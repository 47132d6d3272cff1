// Command perfbench is the repository benchmark: four seeded workloads that
// drive checkpointsim end to end and layer by layer, check every output,
// and print one JSON result line. See METRICS.md for what each workload
// stresses and which per-layer metric should move which end-to-end metric.
//
// Usage (from the repository root; run.sh builds this binary and sweepd):
//
//	bash perfbench/run.sh --workload paper-scale --seed 1 --seconds 15 --trace 0
//
// With -trace 0 the result carries the end-to-end metrics, measured on
// untraced passes; with -trace 1 it carries the per-layer metrics, taken
// from one extra traced pass plus the verification pass, and the spans are
// written to <workdir>/spans-<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// env is what a workload runs with.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool   // smoke-test sizes, for the self-tests
	sweepd  string // path of the sweepd binary (sweepd-cluster only)
	workdir string // scratch space for cluster cache directories
	out     io.Writer
	rep     *runReport
}

// deadline is when the timed passes of a workload stop starting new passes.
func (e *env) deadline() time.Time {
	return time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
}

// workloadFunc runs one workload: set-up, verification, timed passes and,
// with e.trace, the traced pass. Errors that stop the workload are
// returned; output mismatches are recorded on e.rep and do not stop it.
type workloadFunc func(e *env) error

// workloads maps each benchmark workload name to its runner.
var workloads = map[string]workloadFunc{
	"paper-scale":    runPaperScale,
	"campaign":       runCampaign,
	"rollback-storm": runRollbackStorm,
	"sweepd-cluster": runCluster,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run parses the flags, runs the workload and prints the report. It
// returns the process exit code: 0 only for a complete run whose outputs
// all verified.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "input seed; equal seeds give equal inputs")
		seconds = fs.Float64("seconds", 10, "how long the timed passes run")
		trace   = fs.Int("trace", 0, "1 = report per-layer metrics from a traced pass, 0 = end-to-end metrics")
		sweepd  = fs.String("sweepd", "", "sweepd binary (required by sweepd-cluster)")
		workdir = fs.String("workdir", ".bench_build", "scratch directory for cluster state")
		tiny    = fs.Bool("tiny", false, "smoke-test sizes (self-tests only; not a benchmark setting)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	wf, ok := workloads[*name]
	if !ok {
		return 2, fmt.Errorf("unknown -workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive")
	}
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *tiny,
		sweepd: *sweepd, workdir: *workdir, out: out, rep: newReport()}
	if e.trace {
		e.rep.tracer = newTracer()
	}
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	if err := wf(e); err != nil {
		return 1, err
	}
	if e.trace {
		path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := e.rep.tracer.write(path); err != nil {
			return 1, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(e.rep.tracer.spans), path)
	}
	res, err := e.rep.result(e.trace)
	if err != nil {
		return 1, err
	}
	e.rep.print(out, e.trace)
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations failed verification", res.Failed, res.Attempted)
	}
	return 0, nil
}
