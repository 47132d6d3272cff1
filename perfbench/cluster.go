package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/exp"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
)

const (
	// clusterColdRounds is how many fresh clusters the schedule is POSTed
	// to cold.
	clusterColdRounds = 3
	// clusterClients is the closed loop's client count, as many as the
	// benchmark host has cores (cmd/campaign -server and sweepd-loadtest
	// call the service the same way).
	clusterClients = 2
	// clusterVersion is the cache-key version tag every process shares.
	clusterVersion = "perfbench"
	// readyTimeout bounds how long a process may take to come up or down.
	readyTimeout = 30 * time.Second
)

// proc is one sweepd process of the cluster.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has exited
}

// cluster is the README's "Running a cluster" deployment on loopback: a
// coordinator and two workers, each worker with -workers 1, a disk cache
// and live snapshot publishing to the coordinator.
type cluster struct {
	dir     string
	workers []*proc
	coord   *proc
	http    *http.Client
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startProc(bin, dir, name string, port int, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-version", clusterVersion}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Children die with the benchmark even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to drain (SIGTERM) and waits for it to exit,
// killing it if it does not within readyTimeout.
func (p *proc) stop() error {
	defer p.log.Close()
	select {
	case <-p.done:
		return fmt.Errorf("%s exited early (see %s)", p.name, p.log.Name())
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return nil
	case <-time.After(readyTimeout):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s did not drain within %s", p.name, readyTimeout)
	}
}

// cpuTime is the CPU time the process has used so far: the run time of
// each of its threads from /proc/<pid>/task/*/schedstat, in nanoseconds.
// As for getrusage, the kernel leaves time stolen by the host out of it.
func (p *proc) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited; Go keeps its threads, so it was idle
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: empty schedstat", p.name)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: schedstat: %w", p.name, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// cpuTime is the CPU time the coordinator and the workers have used so
// far, summed.
func (c *cluster) cpuTime() (time.Duration, error) {
	var total time.Duration
	for _, p := range append([]*proc{c.coord}, c.workers...) {
		d, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// waitReady polls url until it answers 200 with a body accepted by ok.
func (c *cluster) waitReady(p *proc, path string, ok func([]byte) bool) error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up (see %s)", p.name, p.log.Name())
		default:
		}
		resp, err := c.http.Get(p.url + path)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && ok(body) {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready within %s", p.name, readyTimeout)
}

// startCluster brings a fresh cluster up in a new directory under workdir
// and returns once the coordinator sees both workers alive.
func startCluster(bin, workdir string) (c *cluster, err error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "cluster-")
	if err != nil {
		return nil, err
	}
	c = &cluster{dir: dir, http: &http.Client{Timeout: 2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clusterClients}}}
	defer func() {
		if err != nil {
			c.stop() // the start-up error is the one to report
			c = nil
		}
	}()
	ports := make([]int, 3)
	for i := range ports {
		if ports[i], err = freePort(); err != nil {
			return c, err
		}
	}
	coordURL := fmt.Sprintf("http://127.0.0.1:%d", ports[0])
	var urls []string
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("w%d", i)
		w, err := startProc(bin, dir, name, ports[i+1], "-workers", "1",
			"-cache-dir", filepath.Join(dir, name+"-cache"),
			"-snapshot-every", "100000", "-coordinator-url", coordURL)
		if err != nil {
			return c, err
		}
		c.workers = append(c.workers, w)
		urls = append(urls, w.url)
	}
	for _, w := range c.workers {
		if err := c.waitReady(w, "/healthz", func([]byte) bool { return true }); err != nil {
			return c, err
		}
	}
	// The coordinator probes worker health once at start, so with both
	// workers up it is ready as soon as it serves.
	if c.coord, err = startProc(bin, dir, "coordinator", ports[0], "-coordinator",
		"-worker-urls", strings.Join(urls, ",")); err != nil {
		return c, err
	}
	err = c.waitReady(c.coord, "/healthz", func(b []byte) bool {
		var h struct {
			WorkersAlive int `json:"workers_alive"`
		}
		return json.Unmarshal(b, &h) == nil && h.WorkersAlive == len(c.workers)
	})
	return c, err
}

// stop drains every process, coordinator first, waits for all of them and
// removes the cluster's directory.
func (c *cluster) stop() error {
	var errs []error
	if c.coord != nil {
		errs = append(errs, c.coord.stop())
	}
	for _, w := range c.workers {
		errs = append(errs, w.stop())
	}
	errs = append(errs, os.RemoveAll(c.dir))
	return errors.Join(errs...)
}

// reply is one answered request.
type reply struct {
	status int
	source string // X-Sweepd-Source
	worker string // X-Sweepd-Worker
	body   []byte
	dur    time.Duration
	err    error
}

func (c *cluster) post(url string, body []byte) reply {
	start := time.Now()
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, dur: time.Since(start)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, source: resp.Header.Get("X-Sweepd-Source"),
		worker: resp.Header.Get("X-Sweepd-Worker"), body: b, dur: time.Since(start), err: err}
}

// closedLoop has clients callers work through n requests, each sending
// its next request only when the previous one answered. call gets the
// client number and the request index.
func closedLoop(n, clients int, call func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				call(k, i)
			}
		}(k)
	}
	wg.Wait()
}

// scrape reads a Prometheus text page into name{labels} → value.
func (c *cluster) scrape(url string) (map[string]float64, error) {
	resp, err := c.http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sumWorkers adds one metric over every worker's /metrics page.
func (c *cluster) sumWorkers(names ...string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, w := range c.workers {
		m, err := c.scrape(w.url)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			out[n] += m[n]
		}
	}
	return out, nil
}

// memStats reads the runtime.MemStats fields the heap profile's debug
// page prints (TotalAlloc, HeapInuse, NumGC, ...), summed over workers;
// with gc, each worker collects its heap first.
func (c *cluster) memStats(gc bool) (map[string]float64, error) {
	q := "debug=1"
	if gc {
		q += "&gc=1"
	}
	out := map[string]float64{}
	for _, w := range c.workers {
		resp, err := c.http.Get(w.url + "/debug/pprof/heap?" + q)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
			if !ok {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] += v
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	if _, ok := out["TotalAlloc"]; !ok {
		return nil, fmt.Errorf("heap profile carried no MemStats")
	}
	return out, nil
}

func scenarioBody(sc exp.Scenario) []byte {
	b, _ := json.Marshal(struct {
		Scenario exp.Scenario `json:"scenario"`
	}{sc})
	return b
}

// coldRound is one POST of every point to a fresh cluster: compute, disk
// append, snapshot publishing and relay.
type coldRound struct {
	replies    []reply
	events     float64       // events the workers simulated
	cpu        time.Duration // CPU time of the coordinator and the workers
	wall       time.Duration
	jobs       float64 // jobs the workers ran, and their summed duration
	jobSeconds float64
}

// coldRound POSTs every body once through the coordinator, by a closed
// loop of clusterClients clients.
func (c *cluster) coldRound(bodies [][]byte) (coldRound, error) {
	run := c.coord.url + "/api/v1/run"
	r := coldRound{replies: make([]reply, len(bodies))}
	ev0, err := c.sumWorkers("sweepd_sim_events_total")
	if err != nil {
		return r, err
	}
	cpu0, err := c.cpuTime()
	if err != nil {
		return r, err
	}
	start := time.Now()
	closedLoop(len(bodies), clusterClients, func(_, i int) { r.replies[i] = c.post(run, bodies[i]) })
	r.wall = time.Since(start)
	cpu1, err := c.cpuTime()
	if err != nil {
		return r, err
	}
	r.cpu = cpu1 - cpu0
	ev1, err := c.sumWorkers("sweepd_sim_events_total",
		"sweepd_job_duration_seconds_sum", "sweepd_job_duration_seconds_count")
	if err != nil {
		return r, err
	}
	r.events = ev1["sweepd_sim_events_total"] - ev0["sweepd_sim_events_total"]
	r.jobs, r.jobSeconds = ev1["sweepd_job_duration_seconds_count"], ev1["sweepd_job_duration_seconds_sum"]
	return r, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runCluster runs the sweepd-cluster workload on the campaign's schedule.
// Set-up brings a fresh cluster up setupRepeats times, keeping the last.
// Each point is then POSTed once cold through the coordinator (compute,
// disk append, relay), by a closed loop of clusterClients clients, in
// clusterColdRounds rounds on fresh clusters; those rounds give cpu_s and
// events_per_cpu_s. The timed passes re-request every point (disk read
// with digest check, then relay) and give the memory metrics, the hit
// latencies and the hit pass's CPU time. That is printed but not gated:
// a hit is a loopback ping-pong between four processes on two virtual
// CPUs, and its CPU time follows how fast the host wakes them, which
// moved it by a quarter between runs of the same schedule. Every body
// must equal a local Scenario.Run encoded by EncodeScenarioResult, and
// every hit must say it was one.
func runCluster(e *env) error {
	if e.sweepd == "" {
		return fmt.Errorf("sweepd-cluster needs -sweepd")
	}
	sched, err := campaignSchedule(e.seed)
	if err != nil {
		return err
	}
	if e.tiny {
		sched = sched[:6]
	}
	n := len(sched)
	bodies := make([][]byte, n)
	for i, sc := range sched {
		bodies[i] = scenarioBody(sc)
	}

	var c *cluster
	defer func() {
		if c != nil {
			if serr := c.stop(); serr != nil {
				fmt.Fprintln(os.Stderr, "perfbench: stopping the cluster:", serr)
			}
		}
	}()
	// restart replaces the cluster with a fresh one.
	restart := func() error {
		if c != nil {
			err := c.stop()
			c = nil
			if err != nil {
				return err
			}
		}
		var err error
		// A port found free can be taken before sweepd binds it: retry.
		for attempt := 0; attempt < 3; attempt++ {
			if c, err = startCluster(e.sweepd, e.workdir); err == nil {
				return nil
			}
		}
		return err
	}
	// The processes are new, so the CPU time they have used is what coming
	// up cost them.
	err = timeSetup(e.rep, setupRepeats, func(int) (time.Duration, error) {
		if err := restart(); err != nil {
			return 0, err
		}
		return c.cpuTime()
	})
	if err != nil {
		return err
	}

	// Cold rounds, each on a fresh cluster (the first on the set-up one),
	// so that cpu_s and events_per_cpu_s are medians like the other metrics.
	var rounds []coldRound
	for k := 0; k < clusterColdRounds; k++ {
		if k > 0 {
			if err := restart(); err != nil {
				return err
			}
		}
		r, err := c.coldRound(bodies)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
	}
	cold := rounds[len(rounds)-1].replies // served by the live cluster
	// Its workers are fresh, so every job they ran is a cold computation.
	if last := rounds[len(rounds)-1]; last.jobs > 0 {
		e.rep.layer["service.job_s_mean"] = last.jobSeconds / last.jobs
	}

	// Local references, off the clock and with the cluster idle.
	verifyRoot := e.rep.tracer.begin("verify", 0, "sweepd-cluster")
	refs := make([]scenarioOutput, n)
	closedLoop(n, clusterClients, func(_, i int) { refs[i] = runPoint(sched[i], nil, e.rep.tracer, verifyRoot) })
	e.rep.tracer.end(verifyRoot)
	var dg digester
	var counts workCounts
	var coldLat, coldCPU, evpc, evps []float64
	for k, rd := range rounds {
		coldCPU = append(coldCPU, rd.cpu.Seconds())
		evpc = append(evpc, rd.events/rd.cpu.Seconds())
		evps = append(evps, rd.events/rd.wall.Seconds())
		for i, r := range rd.replies {
			ok, msg := true, ""
			switch pc, valid, perr := pointCounts(refs[i].body); {
			case refs[i].err != nil:
				ok, msg = false, "local run: "+refs[i].err.Error()
			case perr != nil || !valid:
				ok, msg = false, fmt.Sprintf("local result unparsable or unvalidated: %v", perr)
			case r.err != nil:
				ok, msg = false, r.err.Error()
			case r.status != http.StatusOK:
				ok, msg = false, fmt.Sprintf("status %d: %s", r.status, strings.TrimSpace(string(r.body)))
			case !bytes.Equal(r.body, refs[i].body):
				ok, msg = false, "body differs from the local run"
			case k == 0:
				counts.add(pc)
			}
			e.rep.op(ok, "cold round %d %s: %s", k+1, sched[i].ID(), msg)
			if k == 0 {
				dg.add(r.body)
			}
			coldLat = append(coldLat, msOf(r.dur))
		}
	}
	e.rep.digest = dg.sum()
	recordCounts(e.rep, counts)
	run := c.coord.url + "/api/v1/run"

	// Hit passes: the timed part. Each starts from collected worker heaps,
	// as the sim workloads' passes start from a collected heap.
	ms0, err := c.memStats(true)
	if err != nil {
		return err
	}
	e.rep.layer["service.worker_live_mb"] = ms0["HeapAlloc"] / mib
	hits := make([]reply, n)
	var hitLat, hitCPU, alloc, heap []float64
	var passCPU time.Duration
	passes, err := timedPasses(e, 2, func(int) error {
		cpu0, err := c.cpuTime()
		if err != nil {
			return err
		}
		closedLoop(n, clusterClients, func(_, i int) { hits[i] = c.post(run, bodies[i]) })
		cpu1, err := c.cpuTime()
		passCPU = cpu1 - cpu0
		return err
	}, func(rep int) {
		hitCPU = append(hitCPU, passCPU.Seconds())
		for i, r := range hits {
			ok := r.err == nil && r.status == http.StatusOK && r.source == "hit" && bytes.Equal(r.body, refs[i].body)
			e.rep.op(ok, "hit pass %d %s: err=%v status=%d source=%q identical=%v",
				rep+1, sched[i].ID(), r.err, r.status, r.source, bytes.Equal(r.body, refs[i].body))
			hitLat = append(hitLat, msOf(r.dur))
		}
		ms1, err := c.memStats(false)
		if err == nil {
			alloc = append(alloc, (ms1["TotalAlloc"]-ms0["TotalAlloc"])/mib)
			// Between collections the heap only grows, so its growth over
			// a pass that started from collected heaps is the pass's peak.
			heap = append(heap, (ms1["HeapAlloc"]-ms0["HeapAlloc"])/mib)
			ms0, err = c.memStats(true)
		}
		e.rep.op(err == nil, "worker memory stats: %v", err)
	})
	if err != nil {
		return err
	}
	var walls []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
	}
	e.rep.wallS = median(walls)
	e.rep.e2e["cpu_s"] = median(coldCPU)
	e.rep.e2e["events_per_cpu_s"] = median(evpc)
	e.rep.e2e["alloc_mb"] = median(alloc)
	e.rep.e2e["peak_heap_mb"] = median(heap)
	e.rep.extra("passes", float64(len(passes)), "count", "timed hit passes; every per-pass figure is their median")
	e.rep.extra("wall_s", e.rep.wallS, "s", "wall time of one hit pass")
	e.rep.extra("hit_cpu_s", median(hitCPU), "s", "CPU time the coordinator and workers spend on one hit pass")
	e.rep.extra("events_per_s", median(evps), "1/s", "simulated events per wall second of a cold round")
	latencyExtras(e.rep, "cold_ms", coldLat, "ms", 0.9)
	e.rep.extra("cold_rounds", float64(len(rounds)), "count", "cold rounds on fresh clusters; cpu_s, events_per_cpu_s and events_per_s are their medians")
	latencyExtras(e.rep, "hit_ms", hitLat, "ms", 0.99)
	e.rep.extra("requests_per_s", float64(n)/e.rep.wallS, "1/s",
		fmt.Sprintf("(hit phase, closed loop of %d clients, %d requests per pass)", clusterClients, n))

	coordM, err := c.scrape(c.coord.url)
	if err != nil {
		return err
	}
	for _, m := range []string{"sweepd_coord_failovers_total", "sweepd_coord_dlq_entered_total"} {
		e.rep.op(coordM[m] == 0, "%s = %g in a healthy pass", m, coordM[m])
	}
	if e.rep.tracer != nil {
		if err := traceCluster(e, c, sched, bodies, cold, refs, coordM, median(hitLat)); err != nil {
			return err
		}
	}
	zeroLayers(e.rep, "workload.", "sim.", "validate.", "exp.", "service.", "cache.", "relay.", "snapshot.")
	return nil
}

// traceCluster adds the per-layer figures of the cluster workload: a
// traced hit pass (cache key plus coordinator request per point, per
// client), hits sent straight to each point's owning worker, timed
// snapshot publishes, and the processes' own /metrics.
func traceCluster(e *env, c *cluster, sched []exp.Scenario, bodies [][]byte, cold []reply, refs []scenarioOutput, coordM map[string]float64, hitP50 float64) error {
	tr, r := e.rep.tracer, e.rep
	net := network.DefaultParams()
	run := c.coord.url + "/api/v1/run"
	n := len(sched)

	ms0, err := c.memStats(true)
	if err != nil {
		return err
	}
	mark := tr.mark()
	traced := make([]reply, n)
	st, err := measure(func() error {
		roots := make([]int, clusterClients)
		for k := range roots {
			roots[k] = tr.begin("client", 0, fmt.Sprintf("client-%d", k))
		}
		closedLoop(n, clusterClients, func(k, i int) {
			req := sched[i].ID()
			tr.do("cache.key", roots[k], req, func(int) error {
				_ = cache.Key(clusterVersion, sched[i].CacheFields(net))
				return nil
			})
			tr.do("service.request", roots[k], req, func(int) error {
				traced[i] = c.post(run, bodies[i])
				return nil
			})
		})
		for _, id := range roots {
			tr.end(id)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, h := range traced {
		r.op(h.err == nil && h.source == "hit" && bytes.Equal(h.body, refs[i].body),
			"traced hit %s: err=%v source=%q", sched[i].ID(), h.err, h.source)
	}
	spans := tr.since(mark)
	spanMean(r, "cache.key_us", spans, "cache.key", time.Microsecond)
	recordShares(r, spans, st.wall.Seconds(), clusterClients)
	r.layer["trace.overhead_s"] = st.wall.Seconds() - r.wallS
	ms1, err := c.memStats(false)
	if err != nil {
		return err
	}
	r.layer["runtime.gc_cycles"] = ms1["NumGC"] - ms0["NumGC"]
	r.layer["runtime.gc_cpu_frac"] = ms1["GCCPUFraction"] / float64(len(c.workers))

	// Hits straight to the owning worker, as the coordinator relays them.
	owner := map[string]string{}
	for i, w := range c.workers {
		owner[fmt.Sprintf("w%d", i)] = w.url
	}
	probe := tr.begin("probe.worker_hits", 0, "sweepd-cluster")
	direct := make([]reply, n)
	closedLoop(n, clusterClients, func(_, i int) {
		url, ok := owner[cold[i].worker]
		if !ok {
			direct[i].err = fmt.Errorf("cold reply names no known worker (%q)", cold[i].worker)
			return
		}
		tr.do("service.worker_request", probe, sched[i].ID(), func(int) error {
			direct[i] = c.post(url+"/api/v1/run", bodies[i])
			return nil
		})
	})
	tr.end(probe)
	var directLat []float64
	for i, h := range direct {
		r.op(h.err == nil && h.source == "hit" && bytes.Equal(h.body, refs[i].body),
			"direct hit %s: err=%v source=%q", sched[i].ID(), h.err, h.source)
		directLat = append(directLat, msOf(h.dur))
	}
	r.layer["service.worker_hit_ms_p50"] = median(directLat)
	r.layer["relay.hit_overhead_ms_p50"] = hitP50 - median(directLat)

	wm, err := c.sumWorkers("sweepd_cache_hits_total", "sweepd_cache_misses_total",
		"sweepd_cache_disk_hits_total", "sweepd_cache_disk_corrupt_total")
	if err != nil {
		return err
	}
	if look := wm["sweepd_cache_hits_total"] + wm["sweepd_cache_misses_total"]; look > 0 {
		r.layer["cache.hit_ratio"] = wm["sweepd_cache_hits_total"] / look
	}
	r.layer["cache.disk_hits"] = wm["sweepd_cache_disk_hits_total"]
	r.layer["cache.disk_corrupt"] = wm["sweepd_cache_disk_corrupt_total"]
	r.layer["relay.failovers"] = coordM["sweepd_coord_failovers_total"]
	r.layer["relay.dlq_entered"] = coordM["sweepd_coord_dlq_entered_total"]
	r.layer["snapshot.published"] = coordM["sweepd_coord_snapshots_stored_total"]

	// Local scenario runs and encodes, from the verification spans.
	all := tr.since(0)
	spanMean(r, "exp.scenario_ms", all, "exp.scenario", time.Millisecond)
	spanMean(r, "service.encode_us", all, "service.encode", time.Microsecond)
	for _, o := range refs {
		if o.err != nil {
			r.layer["exp.points_failed"]++
		}
	}
	return snapshotProbe(e, c, sched, cold)
}

// snapshotPuts is how many snapshot publishes the trace times.
const snapshotPuts = 20

// snapshotProbe times publishing real snapshot blobs to the coordinator,
// as a worker does mid-run: the blobs of a local run of the schedule's
// longest point, taken about snapshotPuts times over the run and POSTed
// in turn until snapshotPuts publishes are timed.
func snapshotProbe(e *env, c *cluster, sched []exp.Scenario, cold []reply) error {
	tr, r := e.rep.tracer, e.rep
	longest, most := -1, int64(0)
	for i, rp := range cold {
		if pc, _, err := pointCounts(rp.body); err == nil && pc.events > most {
			longest, most = i, pc.events
		}
	}
	r.layer["snapshot.put_ms_mean"] = 0
	if longest < 0 {
		return nil
	}
	sc := sched[longest]
	var blobs [][]byte
	o := exp.DefaultOptions()
	o.SnapshotEvery = most/snapshotPuts + 1
	o.OnSnapshot = func(s sim.Snapshot) { blobs = append(blobs, append([]byte(nil), s.Blob...)) }
	if _, err := sc.Run(o); err != nil {
		return fmt.Errorf("snapshot probe run: %w", err)
	}
	if len(blobs) == 0 {
		return nil
	}
	probe := tr.begin("probe.snapshot_puts", 0, sc.ID())
	var total time.Duration
	for i := 0; i < snapshotPuts; i++ {
		b := blobs[i%len(blobs)]
		status := 0
		start := time.Now()
		tr.do("snapshot.put", probe, sc.ID(), func(int) error {
			resp, err := c.http.Post(fmt.Sprintf("%s/api/v1/snapshots/perfbench-probe-%d", c.coord.url, i%len(blobs)),
				"application/octet-stream", bytes.NewReader(b))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
			return nil
		})
		total += time.Since(start)
		r.op(status == http.StatusNoContent, "snapshot put %d: status %d", i, status)
	}
	tr.end(probe)
	r.layer["snapshot.put_ms_mean"] = msOf(total) / snapshotPuts
	fmt.Fprintf(e.out, "snapshot probe: %d puts of %d blobs (first %d bytes) from %s\n",
		snapshotPuts, len(blobs), len(blobs[0]), sc.ID())
	return nil
}
