package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"checkpointsim/internal/exp"
	"checkpointsim/internal/report"
	"checkpointsim/internal/service"
)

// campaignDraws is how much of the seeded schedule the campaign picks its
// points from. Each (workload, scale, protocol) cell of the default space
// turns up about a hundred times in it, so none is missing.
const campaignDraws = 20000

// campaignSchedule is the campaign's input for seed: the first point of
// every (workload, scale, protocol) cell of the seeded default-space
// schedule, in schedule order — 198 points. The seed still draws each
// point's failure law, storage tier, noise and RNG seed, but not the mix
// of programs, sizes and protocols. Point cost is heavy-tailed (a P=32
// transpose costs ~40× a P=8 farm), so with a plain prefix of the schedule
// a pass's work followed the seed's draw of heavy points: 800 points
// still spread 0.13 seed to seed in allocation and 0.19 in time. With one
// point per cell the simulated events of a pass vary by about 1%.
func campaignSchedule(seed uint64) ([]exp.Scenario, error) {
	space := exp.DefaultCampaignSpace()
	all, err := space.Schedule(seed, campaignDraws)
	if err != nil {
		return nil, err
	}
	seen := map[[3]string]bool{}
	var out []exp.Scenario
	for _, sc := range all {
		cell := [3]string{sc.Workload, strconv.Itoa(sc.Ranks), sc.Protocol}
		if !seen[cell] {
			seen[cell] = true
			out = append(out, sc)
		}
	}
	if want := len(space.Workloads) * len(space.Scales) * len(space.Protocols); len(out) != want {
		return nil, fmt.Errorf("campaign schedule: %d of %d cells in %d draws", len(out), want, campaignDraws)
	}
	return out, nil
}

// scenarioOutput is one point as a sweepd worker serves it: the tables of
// exp.Scenario.Run encoded by service.EncodeScenarioResult.
type scenarioOutput struct {
	body []byte
	err  error
	dur  time.Duration
}

// runPoint runs and encodes one scenario point, inside spans when traced.
func runPoint(sc exp.Scenario, events *int64, tr *tracer, parent int) scenarioOutput {
	req := sc.ID()
	start := time.Now()
	o := exp.DefaultOptions()
	o.Events = events
	var tables []*report.Table
	err := tr.do("exp.scenario", parent, req, func(int) error {
		var err error
		tables, err = sc.Run(o)
		return err
	})
	var body []byte
	if err == nil {
		err = tr.do("service.encode", parent, req, func(int) error {
			var err error
			body, err = service.EncodeScenarioResult(sc, tables)
			return err
		})
	}
	return scenarioOutput{body: body, err: err, dur: time.Since(start)}
}

// pointCounts parses the metric/value table of an encoded scenario result
// into work counts, and reports whether the point's validator passed.
func pointCounts(body []byte) (workCounts, bool, error) {
	var res service.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return workCounts{}, false, err
	}
	if len(res.Tables) != 1 {
		return workCounts{}, false, fmt.Errorf("want one table, got %d", len(res.Tables))
	}
	vals := map[string]string{}
	for _, row := range res.Tables[0].Rows {
		if len(row) == 2 {
			vals[row[0]] = row[1]
		}
	}
	var bad error
	num := func(k string) int64 {
		v, ok := vals[k]
		if !ok {
			return 0 // storage rows exist only with a storage tier
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil && bad == nil {
			bad = fmt.Errorf("row %s: %w", k, err)
		}
		return n
	}
	c := workCounts{
		runs:            1,
		events:          num("events"),
		makespanNS:      num("makespan_ns"),
		appMessages:     num("app_messages"),
		ctlMessages:     num("ctl_messages"),
		ckptWrites:      num("ckpt_writes"),
		ckptRounds:      num("ckpt_rounds"),
		loggedMessages:  num("logged_messages"),
		forced:          num("ckpt_forced"),
		storageWrites:   num("storage_writes"),
		storageBytes:    num("storage_bytes"),
		failureInjected: num("failures"),
	}
	return c, vals["validate"] == "ok", bad
}

// pointSet summarizes the outputs of one pass over a schedule.
type pointSet struct {
	counts workCounts
	digest string
	failed int // points that errored, did not parse, or failed validation
}

// checkPoints verifies every output of a pass over sched — it ran, it
// parses, its validator passed and, given ref, it is byte-identical to the
// reference pass — recording one operation per point.
func checkPoints(r *runReport, what string, sched []exp.Scenario, outs []scenarioOutput, ref []scenarioOutput) pointSet {
	var ps pointSet
	var dg digester
	for i, o := range outs {
		ok, msg := true, ""
		switch c, valid, err := pointCounts(o.body); {
		case o.err != nil:
			ok, msg = false, o.err.Error()
		case err != nil:
			ok, msg = false, "unparsable result: "+err.Error()
		case !valid:
			ok, msg = false, "no \"validate ok\" row"
		case ref != nil && !bytes.Equal(o.body, ref[i].body):
			ok, msg = false, "tables differ from the first pass"
		default:
			ps.counts.add(c)
		}
		if !ok {
			ps.failed++
		}
		r.op(ok, "%s %s: %s", what, sched[i].ID(), msg)
		dg.add(o.body)
	}
	ps.digest = dg.sum()
	return ps
}

// campaignWarmPoints is the size of the set-up warm-up: enough small
// points that its time is not lost in the host's jitter.
const campaignWarmPoints = 64

// campaignWarmSpace is the set-up warm-up: every protocol on a small 2D
// stencil without failures, storage or noise, so the timed passes start
// with all protocol code paths loaded at a cost that hardly depends on
// the seed.
func campaignWarmSpace() exp.CampaignSpace {
	s := exp.DefaultCampaignSpace()
	s.Workloads, s.Scales = []string{"stencil2d"}, []int{8}
	s.FailureLaws, s.StorageTiers, s.NoiseLevels = []string{"none"}, []string{"none"}, []string{"none"}
	return s
}

// campaignMemoryPass runs the schedule once more, off the clock, with the
// collector running all the time (GOGC=1), so that a cycle ends, and
// reports the live heap, every few milliseconds of every point. In the
// timed passes a point is often over before a cycle ends, so their
// sampled peak read 16–25 MiB depending on which point a cycle happened
// to land in. It returns the outputs and, sorted, the largest live heap
// each point reached above the collected heap it started from, in MiB.
func campaignMemoryPass(sched []exp.Scenario) ([]scenarioOutput, []float64) {
	outs := make([]scenarioOutput, len(sched))
	peaks := make([]float64, len(sched))
	for i, sc := range sched {
		st, _ := memoryPass(1, func() error {
			outs[i] = runPoint(sc, nil, nil, 0)
			return nil
		})
		peaks[i] = float64(st.peakHeapB) / mib
	}
	sort.Float64s(peaks)
	return outs, peaks
}

// recordPointPeaks sets the campaign's peak_heap_mb from the sorted
// per-point peaks: the highest percentile with at least minBeyond points
// beyond it (p90 of 198), the heap the heavy points hold. The largest
// single peak is printed beside it: it belongs to whichever point the
// seed made failure-heavy, and read 18.7–25 MiB over seeds 1–8, where
// the p90 read 10.5–10.8 MiB.
func recordPointPeaks(r *runReport, peaks []float64) {
	top := peaks[len(peaks)-1]
	r.e2e["peak_heap_mb"] = top
	note := fmt.Sprintf("largest per-point peak live heap (n=%d); peak_heap_mb is this", len(peaks))
	if q, ok := tailQuantile(len(peaks), 0.95, 0.9); ok {
		r.e2e["peak_heap_mb"] = quantile(peaks, q)
		note = fmt.Sprintf("largest per-point peak live heap (n=%d); peak_heap_mb is their p%g", len(peaks), q*100)
	}
	r.extra("peak_heap_max_mb", top, "MiB", note)
}

// runCampaign runs the campaign workload: a seeded schedule over the
// default campaign space (all protocols, failure laws, storage tiers and
// noise shapes at P ≤ 32), one point at a time, as a serial client.
// Scenario.Run always validates, so every timed pass is also a
// verification pass; the first is the reference the others must match
// byte for byte.
func runCampaign(e *env) error {
	var sched []exp.Scenario
	err := timeSetup(e.rep, setupRepeats, func(int) (time.Duration, error) {
		var err error
		if sched, err = campaignSchedule(e.seed); err != nil {
			return 0, err
		}
		if e.tiny {
			sched = sched[:12]
		}
		warm, err := campaignWarmSpace().Schedule(e.seed, campaignWarmPoints)
		if err != nil {
			return 0, err
		}
		for _, sc := range warm {
			if o := runPoint(sc, nil, nil, 0); o.err != nil {
				return 0, o.err
			}
		}
		return 0, nil
	})
	if err != nil {
		return err
	}

	var ref []scenarioOutput
	var refSet pointSet
	var refEvents int64
	var lat []float64
	var outs []scenarioOutput
	var events int64
	failedPoints := 0
	passes, err := timedPasses(e, 2, func(int) error {
		events = 0
		outs = make([]scenarioOutput, len(sched))
		for i, sc := range sched {
			outs[i] = runPoint(sc, &events, nil, 0)
		}
		return nil
	}, func(rep int) {
		for _, o := range outs {
			lat = append(lat, msOf(o.dur))
		}
		what := fmt.Sprintf("campaign pass %d", rep+1)
		set := checkPoints(e.rep, what, sched, outs, ref)
		failedPoints += set.failed
		if ref == nil {
			ref, refSet, refEvents = outs, set, events
			return
		}
		checkRepeat(e.rep, what, refSet.counts, set.counts, refSet.digest, set.digest)
		e.rep.op(events == refEvents, "%s: %d events, first pass %d", what, events, refEvents)
	})
	if err != nil {
		return err
	}
	e.rep.digest = refSet.digest
	recordCounts(e.rep, refSet.counts)
	recordPasses(e.rep, passes, refEvents)
	latencyExtras(e.rep, "point_ms", lat, "ms", 0.95)
	e.rep.extra("points_per_s", float64(len(sched))/e.rep.wallS, "1/s",
		fmt.Sprintf("(%d points, %d events per pass, one serial client)", len(sched), refEvents))
	memOuts, peaks := campaignMemoryPass(sched)
	failedPoints += checkPoints(e.rep, "campaign memory pass", sched, memOuts, ref).failed
	recordPointPeaks(e.rep, peaks)
	e.rep.layer["exp.points_failed"] = float64(failedPoints)

	if e.rep.tracer != nil {
		mark := e.rep.tracer.mark()
		var traced []scenarioOutput
		st, err := measure(func() error {
			root := e.rep.tracer.begin("pass", 0, "campaign")
			defer e.rep.tracer.end(root)
			traced = make([]scenarioOutput, len(sched))
			for i, sc := range sched {
				traced[i] = runPoint(sc, nil, e.rep.tracer, root)
			}
			return nil
		})
		if err != nil {
			return err
		}
		set := checkPoints(e.rep, "campaign traced pass", sched, traced, ref)
		e.rep.layer["exp.points_failed"] += float64(set.failed)
		spans := e.rep.tracer.since(mark)
		spanMean(e.rep, "exp.scenario_ms", spans, "exp.scenario", time.Millisecond)
		spanMean(e.rep, "service.encode_us", spans, "service.encode", time.Microsecond)
		recordRuntime(e.rep, st)
		recordShares(e.rep, spans, st.wall.Seconds(), 1)
	}
	zeroLayers(e.rep, "workload.", "sim.", "validate.", "exp.", "service.", "cache.", "relay.", "snapshot.")
	return nil
}
