package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// rtStats is a reading of the runtime counters a pass is judged by.
type rtStats struct {
	allocB   uint64  // cumulative heap bytes allocated
	gcCycles uint64  // completed GC cycles
	gcCPU    float64 // CPU seconds spent in GC (runtime estimate)
	totalCPU float64 // CPU seconds available to the process (runtime estimate)
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRT() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStats{
		allocB:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{a.allocB - b.allocB, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// gcFrac is the share of the process CPU the collector took.
func (a rtStats) gcFrac() float64 {
	if a.totalCPU <= 0 {
		return 0
	}
	return a.gcCPU / a.totalCPU
}

// allocBytes reads only the cumulative allocation counter, for spans.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapBytes reads the heap the last GC cycle found reachable.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the CPU time this process has used, user plus system, over
// all its threads. The kernel leaves out time a virtual CPU spent stolen
// by the host (paravirtual steal-time accounting), so unlike wall time it
// does not grow when the host runs other guests on our cores.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampleEvery is the peak-heap sampling period: short against the
// time between GC cycles on every workload, so every cycle's reading is
// seen, and cheap (one runtime/metrics read, no stop-the-world).
const heapSampleEvery = 2 * time.Millisecond

// passStats is what one pass measured.
type passStats struct {
	wall time.Duration
	cpu  time.Duration // process CPU time, user plus system
	rt   rtStats
	// peakHeapB is the peak live heap of the pass above the collected
	// heap it started from.
	peakHeapB uint64
}

// measure runs fn as one pass, starting from a collected heap so passes
// do not inherit each other's garbage, while a sampler tracks the peak
// live heap: the largest heap any GC cycle of the pass found reachable.
// Unlike the heap's momentary size, which swings up to twice the live
// heap with the GC phase, it depends on what the program keeps, so it
// repeats closely from run to run.
func measure(fn func() error) (passStats, error) {
	runtime.GC()
	base := liveHeapBytes()
	stop := make(chan struct{})
	peakc := make(chan uint64)
	go func() {
		peak := base
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				if h := liveHeapBytes(); h > peak {
					peak = h
				}
				peakc <- peak
				return
			case <-t.C:
				if h := liveHeapBytes(); h > peak {
					peak = h
				}
			}
		}
	}()
	before := readRT()
	cpu0 := cpuTime()
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	after := readRT()
	close(stop)
	peak := <-peakc
	st := passStats{wall: wall, cpu: cpu, rt: after.sub(before), peakHeapB: peak - base}
	if st.rt.gcCycles == 0 {
		// No cycle measured the live heap; with nothing collected the heap
		// only grew, by what the pass allocated.
		st.peakHeapB = st.rt.allocB
	}
	return st, err
}

// memoryPass runs fn as one pass off the clock, with the collector started
// every gogc percent of heap growth instead of every 100, so that many
// more cycles report the live heap and the peak is seen wherever in the
// pass it falls. With the default, a pass that allocates three times its
// live heap ends about three cycles, and the peak they saw moved by up to
// 12% between runs with where they landed. The live heap itself does not
// depend on GOGC; only how often it is read does.
func memoryPass(gogc int, fn func() error) (passStats, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(gogc))
	return measure(fn)
}

// timedPasses runs pass until the run's measuring time is used up, and at
// least minPasses times. A pass starts only if half of the last one still
// fits before the deadline, so a run measures about --seconds, not up to a
// pass longer. after, if not nil, runs between passes, off the clock: it
// checks the pass's outputs.
func timedPasses(e *env, minPasses int, pass func(rep int) error, after func(rep int)) ([]passStats, error) {
	dl := e.deadline()
	var out []passStats
	for rep := 0; rep < minPasses || time.Now().Add(out[len(out)-1].wall/2).Before(dl); rep++ {
		st, err := measure(func() error { return pass(rep) })
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if after != nil {
			after(rep)
		}
	}
	return out, nil
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow start does not move it.
const setupRepeats = 9

// timeSetup runs set-up n times and records the medians: setup_s, the
// CPU time it took, and setup_wall_s beside it. fn returns the CPU time
// other processes spent on it (the cluster's, coming up); the benchmark
// process's own is measured here. As for cpu_s, CPU time leaves out what
// the host gave to other guests: over ten paper-scale runs that lost up
// to a third of the machine's time that way, the wall time of set-up
// spread 0.41 of its median.
func timeSetup(r *runReport, n int, fn func(i int) (time.Duration, error)) error {
	var cpu, wall []float64
	for i := 0; i < n; i++ {
		c0, start := cpuTime(), time.Now()
		others, err := fn(i)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		wall = append(wall, time.Since(start).Seconds())
		cpu = append(cpu, (cpuTime() - c0 + others).Seconds())
	}
	r.e2e["setup_s"] = median(cpu)
	r.extra("setup_wall_s", median(wall), "s", fmt.Sprintf("wall time of set-up (median of %d)", n))
	return nil
}

const mib = 1 << 20

// recordPasses sets the end-to-end metrics every sim workload derives
// from its timed passes. eventsPerPass is the simulated work of one pass.
// The CPU figures are the gated ones; the wall-clock figures, which also
// count time the host gave to other guests, are printed beside them.
func recordPasses(r *runReport, passes []passStats, eventsPerPass int64) {
	var cpu, evpc, wall, evps, alloc, peak []float64
	for _, p := range passes {
		cpu = append(cpu, p.cpu.Seconds())
		evpc = append(evpc, float64(eventsPerPass)/p.cpu.Seconds())
		wall = append(wall, p.wall.Seconds())
		evps = append(evps, float64(eventsPerPass)/p.wall.Seconds())
		alloc = append(alloc, float64(p.rt.allocB)/mib)
		peak = append(peak, float64(p.peakHeapB)/mib)
	}
	r.e2e["cpu_s"] = median(cpu)
	r.e2e["events_per_cpu_s"] = median(evpc)
	r.e2e["alloc_mb"] = median(alloc)
	r.e2e["peak_heap_mb"] = median(peak)
	r.wallS = median(wall)
	r.extra("passes", float64(len(passes)), "count", "timed untraced passes; every per-pass figure is their median")
	r.extra("wall_s", r.wallS, "s", "wall time of one pass")
	r.extra("events_per_s", median(evps), "1/s", "simulated events per wall second")
}

// median returns the middle value of xs (the mean of the middle two for
// an even count), or NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is the fewest samples a reported tail percentile must have
// beyond it.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted: the sample at
// rank ceil(q·n), so n − ceil(q·n) samples lie beyond it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1]
}

// tailQuantile picks the highest of qs that leaves at least minBeyond of n
// samples beyond it under the nearest-rank rule.
func tailQuantile(n int, qs ...float64) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range qs {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond && (!ok || q > best) {
			best, ok = q, true
		}
	}
	return best, ok
}

// latencyExtras reports the median and the wanted tail percentile of
// samples (or the highest lower one the sample count supports), named
// <prefix>_p50 and <prefix>_p<q>, with the sample count.
func latencyExtras(r *runReport, prefix string, samples []float64, unit string, want float64) {
	if len(samples) == 0 {
		return
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	note := fmt.Sprintf("(n=%d)", len(s))
	r.extra(prefix+"_p50", median(s), unit, note)
	var qs []float64
	for _, q := range []float64{0.99, 0.95, 0.9, 0.75} {
		if q <= want {
			qs = append(qs, q)
		}
	}
	if q, ok := tailQuantile(len(s), qs...); ok {
		r.extra(fmt.Sprintf("%s_p%g", prefix, q*100), quantile(s, q), unit,
			fmt.Sprintf("(n=%d, %d beyond)", len(s), len(s)-int(math.Ceil(q*float64(len(s))))))
	}
}
