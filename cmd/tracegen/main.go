// Command tracegen emits GOAL programs (the textual dialect of
// internal/goal, LogGOPSim-compatible) for the communication skeletons of
// the production applications the source study replayed: halo-exchange
// stencils, wavefront sweeps, allreduce-dominated solvers, transposes, and
// the rest of the internal/workload suite, at parameterized scales.
//
// The emitted traces feed the trace-ingest path: cmd/checksim -trace runs
// one through a chosen protocol stack, exp.TraceExperiment sweeps the
// protocol suite over it, and cmd/campaign's corpus goldens pin its
// results. Equal flags always emit byte-identical traces (workload
// generators are seeded), so traces are safe to regenerate instead of
// archive.
//
// Usage:
//
//	tracegen -workload sweep -ranks 64 -iters 20 -compute 1ms -bytes 4096 -o trace.goal
//	tracegen -corpus internal/exp/testdata/traces   # regenerate the committed corpus
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/workload"
)

// corpusSpecs is the committed trace corpus under
// internal/exp/testdata/traces: one small instance of each of the paper's
// four skeleton families (halo exchange, wavefront sweep,
// allreduce-dominated, transpose), sized so a validated simulation finishes
// in milliseconds. The golden tests pin the results of exactly these files;
// `tracegen -corpus` must regenerate them byte-for-byte.
var corpusSpecs = []struct {
	name     string
	workload string
	ranks    int
	iters    int
	compute  simtime.Duration
	jitter   float64
	bytes    int64
	seed     uint64
}{
	{"stencil2d_p16", "stencil2d", 16, 6, 500 * simtime.Microsecond, 0.1, 4096, 42},
	{"sweep_p16", "sweep", 16, 4, 300 * simtime.Microsecond, 0, 2048, 42},
	{"cg_p16", "cg", 16, 6, 400 * simtime.Microsecond, 0, 1024, 42},
	{"transpose_p8", "transpose", 8, 5, 500 * simtime.Microsecond, 0.05, 8192, 42},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	compute := 500 * simtime.Microsecond
	fs.TextVar(&compute, "compute", compute, "mean per-iteration compute")
	var (
		name   = fs.String("workload", "stencil2d", "workload skeleton (-list to enumerate)")
		list   = fs.Bool("list", false, "list workloads and exit")
		ranks  = fs.Int("ranks", 16, "number of ranks")
		iters  = fs.Int("iters", 10, "iterations")
		jitter = fs.Float64("jitter", 0, "relative compute jitter (stddev fraction)")
		bytes  = fs.Int64("bytes", 4096, "dominant message size")
		seed   = fs.Uint64("seed", 42, "seed for jittered/randomized skeletons")
		output = fs.String("o", "", "output file (default stdout)")
		corpus = fs.String("corpus", "", "write the standard trace corpus into this directory and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, w := range workload.Names() {
			fmt.Fprintf(out, "%-12s %s\n", w, workload.Describe(w))
		}
		return nil
	}
	if *corpus != "" {
		return writeCorpus(*corpus, out)
	}
	text, err := generate(*name, *ranks, *iters, compute, *jitter, *bytes, *seed)
	if err != nil {
		return err
	}
	if *output == "" {
		_, err := io.WriteString(out, text)
		return err
	}
	return os.WriteFile(*output, []byte(text), 0o644)
}

// generate builds the named workload and serializes it with a provenance
// header. The header records the exact regeneration command so a committed
// trace is never a mystery artifact.
func generate(name string, ranks, iters int, compute simtime.Duration, jitter float64, bytes int64, seed uint64) (string, error) {
	prog, err := workload.FromName(name, workload.CommonConfig{
		Base: workload.Base{
			Ranks:      ranks,
			Iterations: iters,
			Compute:    compute,
			Jitter:     jitter,
			Seed:       seed,
		},
		Bytes: bytes,
	})
	if err != nil {
		return "", err
	}
	st := prog.Stats()
	header := fmt.Sprintf(
		"# tracegen -workload %s -ranks %d -iters %d -compute %v -jitter %g -bytes %d -seed %d\n# %v\n",
		name, ranks, iters, compute, jitter, bytes, seed, st)
	return header + goal.WriteString(prog), nil
}

// writeCorpus regenerates the committed trace corpus into dir.
func writeCorpus(dir string, out io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range corpusSpecs {
		text, err := generate(s.workload, s.ranks, s.iters, s.compute, s.jitter, s.bytes, s.seed)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		path := filepath.Join(dir, s.name+".goal")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d bytes)\n", path, len(text))
	}
	return nil
}
