package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the self-tests keep the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports every one of them, each measured on untraced passes; METRICS.md
// gives each workload's reading of them. Time is CPU time: wall time on a
// shared host also counts the time other guests held our cores, and is
// printed beside it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"events_per_cpu_s", "1/s", "higher"},
	{"alloc_mb", "MiB", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"workload.gen_s", "s", "lower"},
	{"workload.ops", "count", "lower"},
	{"workload.alloc_mb", "MiB", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.alloc_mb", "MiB", "lower"},
	{"sim.app_messages", "count", "lower"},
	{"sim.ctl_messages", "count", "lower"},
	{"sim.makespan_ns", "ns", "lower"},
	{"sim.capped", "ratio", "lower"},
	{"checkpoint.writes", "count", "lower"},
	{"checkpoint.rounds", "count", "lower"},
	{"checkpoint.logged_messages", "count", "lower"},
	{"checkpoint.forced", "count", "lower"},
	{"storage.writes", "count", "lower"},
	{"storage.bytes", "B", "lower"},
	{"failure.injected", "count", "lower"},
	{"validate.s", "s", "lower"},
	{"validate.trace_events", "count", "lower"},
	{"validate.ns_per_event", "ns", "lower"},
	{"exp.scenario_ms", "ms", "lower"},
	{"exp.points_failed", "count", "lower"},
	{"service.encode_us", "us", "lower"},
	{"cache.key_us", "us", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.disk_hits", "count", "higher"},
	{"cache.disk_corrupt", "count", "lower"},
	{"service.worker_hit_ms_p50", "ms", "lower"},
	{"service.job_s_mean", "s", "lower"},
	{"service.worker_live_mb", "MiB", "lower"},
	{"relay.hit_overhead_ms_p50", "ms", "lower"},
	{"relay.failovers", "count", "lower"},
	{"relay.dlq_entered", "count", "lower"},
	{"snapshot.published", "count", "lower"},
	{"snapshot.put_ms_mean", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"trace.wall_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"self.workload_s", "s", "lower"},
	{"self.sim_s", "s", "lower"},
	{"self.validate_s", "s", "lower"},
	{"self.exp_s", "s", "lower"},
	{"self.service_s", "s", "lower"},
	{"self.cache_s", "s", "lower"},
	{"self.other_s", "s", "lower"},
}

// selfLayers are the layers whose self time the traced pass attributes,
// in report order; "other" takes the remainder of the traced wall time.
var selfLayers = []string{"workload", "sim", "validate", "exp", "service", "cache"}

// extraMetric is a workload-specific end-to-end figure (a latency
// percentile, a request rate, the error rate) printed by name with its
// unit and sample count. It is not part of the JSON result, whose metric
// set must be the same for every workload.
type extraMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

type counter struct {
	name  string
	value int64
}

// runReport collects everything one run measured and checked.
type runReport struct {
	e2e      map[string]float64
	layer    map[string]float64
	extras   []extraMetric
	counters []counter
	digest   string
	// wallS is the median wall time of an untraced timed pass, the base
	// of the rates printed beside the metrics and of the tracing overhead.
	wallS float64

	attempted, failed int64
	failures          []string

	tracer *tracer
}

func newReport() *runReport {
	return &runReport{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// maxFailureLines bounds how many failure messages a run prints.
const maxFailureLines = 20

// op records one attempted operation (a run, a scenario point, a request
// or a repetition check) and whether it succeeded.
func (r *runReport) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < maxFailureLines {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

func (r *runReport) extra(name string, value float64, unit, note string) {
	r.extras = append(r.extras, extraMetric{name, value, unit, note})
}

// result assembles the JSON result: the end-to-end metric set, or with
// trace the per-layer set. A metric the workload forgot to set is a bug
// in the benchmark, reported as an error.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runReport) result(trace bool) (*result, error) {
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layer
	}
	res := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a number (%v)", d.name, v)
		}
		if !trace && v <= 0 {
			return nil, fmt.Errorf("end-to-end metric %s measured %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// print writes the human-readable part of the output: every metric by
// name with its unit, the exact counters, the output digest and the
// error rate.
func (r *runReport) print(w io.Writer, trace bool) {
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
	if !trace {
		for _, x := range r.extras {
			fmt.Fprintf(w, "metric %-28s %14.6g %s  %s\n", x.name, x.value, x.unit, x.note)
		}
	} else if wall := vals["trace.wall_s"]; wall > 0 {
		fmt.Fprintf(w, "self-time shares of the traced pass (%.4g s):", wall)
		for _, l := range append(append([]string{}, selfLayers...), "other") {
			fmt.Fprintf(w, " %s %.1f%%", l, 100*vals["self."+l+"_s"]/wall)
		}
		fmt.Fprintln(w)
	}
	sort.Slice(r.counters, func(i, j int) bool { return r.counters[i].name < r.counters[j].name })
	for _, c := range r.counters {
		fmt.Fprintf(w, "counter %-27s %d\n", c.name, c.value)
	}
	if r.digest != "" {
		fmt.Fprintf(w, "digest sha256:%s\n", r.digest)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "metric %-28s %14.6g ratio  (%d failed of %d attempted)\n", "error_rate", rate, r.failed, r.attempted)
}
