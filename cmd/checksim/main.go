// Command checksim runs a single checkpointing simulation and prints its
// results.
//
// Usage:
//
//	checksim -workload stencil2d -ranks 64 -iters 100 -compute 1ms \
//	         -bytes 4096 -protocol coordinated -interval 10ms -write 1ms
//
// Failure injection:
//
//	checksim -workload cg -ranks 64 -protocol uncoordinated -offset staggered \
//	         -interval 10ms -write 1ms -log-alpha 1us -log-beta 0.2 \
//	         -mtbf 4s -restart 2ms -recovery local
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"checkpointsim"
	"checkpointsim/internal/exp"
	"checkpointsim/internal/network"
	"checkpointsim/internal/prof"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
	"checkpointsim/internal/timeline"
	"checkpointsim/internal/validate"
)

// recoveries names the failure recovery disciplines for -recovery.
var recoveries = map[string]checkpointsim.RecoveryKind{
	"global":   checkpointsim.RecoverGlobal,
	"local":    checkpointsim.RecoverLocal,
	"cluster":  checkpointsim.RecoverCluster,
	"twolevel": checkpointsim.RecoverTwoLevel,
	"takeover": checkpointsim.RecoverTakeover,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "checksim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("checksim", flag.ContinueOnError)
	// Every flag binds straight into the field it sets; noise and failures
	// bind into configs attached below when their period or MTBF is set.
	var (
		cfg checkpointsim.RunConfig
		nz  checkpointsim.NoiseConfig
		fl  checkpointsim.FailureConfig
	)
	pc := &cfg.Protocol
	// dur binds a duration flag; its signature keeps every default a
	// simtime.Duration, the type flag.TextVar requires at run time.
	dur := func(p *simtime.Duration, name string, value simtime.Duration, usage string) {
		fs.TextVar(p, name, value, usage)
	}
	fs.StringVar(&cfg.Workload, "workload", "stencil2d", "workload name (-list to enumerate)")
	traceFile := fs.String("trace", "", "run this GOAL trace file instead of a generated workload (see cmd/tracegen)")
	list := fs.Bool("list", false, "list workloads and exit")
	fs.IntVar(&cfg.Ranks, "ranks", 64, "number of ranks")
	fs.IntVar(&cfg.Iterations, "iters", 50, "iterations")
	dur(&cfg.Compute, "compute", simtime.Millisecond, "mean per-iteration compute")
	fs.Float64Var(&cfg.Jitter, "jitter", 0, "relative compute jitter (stddev fraction)")
	fs.Int64Var(&cfg.MsgBytes, "bytes", 4096, "dominant message size")
	fs.StringVar((*string)(&pc.Kind), "protocol", "none", "none|coordinated|uncoordinated|hierarchical|nonblocking|partner|twolevel|replication|cic")
	dur(&pc.Interval, "interval", 10*simtime.Millisecond, "checkpoint interval")
	dur(&pc.Write, "write", simtime.Millisecond, "checkpoint write time")
	fs.StringVar(&pc.Offset, "offset", "staggered", "uncoordinated offsets: aligned|staggered|random")
	fs.IntVar(&pc.ClusterSize, "cluster", 8, "hierarchical cluster size")
	dur(&pc.Window, "window", 4*simtime.Millisecond, "nonblocking: background write window")
	fs.Float64Var(&pc.Slowdown, "slowdown", 1.25, "nonblocking: interference factor during the window")
	fs.Int64Var(&pc.CkptBytes, "ckpt-bytes", 1<<20, "partner: checkpoint image size")
	dur(&pc.TwoLevel.LocalInterval, "local-interval", 2*simtime.Millisecond, "twolevel: local checkpoint interval")
	dur(&pc.TwoLevel.LocalWrite, "local-write", 100*simtime.Microsecond, "twolevel: local write time")
	fs.IntVar(&pc.ReplicaDegree, "replica-degree", 1, "replication: replicas per application rank (machine grows to ranks*(degree+1))")
	dur(&pc.HeartbeatPeriod, "hb-period", simtime.Millisecond, "replication: heartbeat period (bounds failure-detection latency)")
	dur(&pc.TakeoverCost, "takeover", 500*simtime.Microsecond, "replication: replica promotion cost after detection")
	fs.IntVar(&pc.CICLag, "cic-lag", 1, "cic: index-lag threshold forcing a checkpoint (1 = Z-path-free)")
	fs.IntVar(&pc.Incremental.FullEvery, "incr-every", 0, "uncoordinated: every k-th write is full, others incremental (0 = off)")
	fs.Float64Var(&pc.Incremental.Fraction, "incr-fraction", 0.25, "uncoordinated: incremental write fraction of full")
	dur(&pc.Logging.Alpha, "log-alpha", 0, "per-message logging CPU cost")
	fs.Float64Var(&pc.Logging.BetaNsPerByte, "log-beta", 0, "per-byte logging cost (ns/B)")
	dur(&nz.Period, "noise-period", 0, "noise period (0 = no noise)")
	dur(&nz.Duration, "noise-duration", 25*simtime.Microsecond, "noise event duration")
	dur(&fl.MTBF, "mtbf", 0, "per-node MTBF (0 = no failures)")
	dur(&fl.Restart, "restart", simtime.Millisecond, "failure restart cost")
	recovery := fs.String("recovery", "global", "failure recovery: global|local|cluster|twolevel|takeover")
	fs.Uint64Var(&cfg.Seed, "seed", 42, "random seed")
	dur((*simtime.Duration)(&cfg.MaxTime), "max-time", 0, "abort after this much virtual time (0 = unlimited)")
	netPreset := fs.String("net", "default", "network preset: default|capability|ethernet")
	bisection := fs.Float64("bisection", 0, "bisection bandwidth in GB/s (0 = unconstrained)")
	fs.Float64Var(&cfg.Storage.AggregateBytesPerSec, "store-agg", 0, "aggregate PFS bandwidth in GB/s (0 = unconstrained)")
	fs.Float64Var(&cfg.Storage.PerWriterBytesPerSec, "store-writer", 0, "per-writer PFS bandwidth cap in GB/s (0 = uncapped)")
	fs.Float64Var(&cfg.Storage.NodeBytesPerSec, "store-node", 0, "node-local burst-buffer bandwidth in GB/s (0 = unconstrained)")
	fs.IntVar(&cfg.Storage.RanksPerNode, "ranks-per-node", 0, "ranks per node for the node storage tier (0 = 1)")
	fs.Int64Var(&pc.Bytes, "image-bytes", 0, "checkpoint image size drained through the store (0 = derive from -write)")
	validateRun := fs.Bool("validate", false, "run the simulation under the trace-conformance checker (internal/validate); invariant violations are fatal")
	fs.Int64Var(&cfg.SnapshotEvery, "snapshot-every", 0, "snapshot the complete simulator state every N events at a safe boundary (0 = off; requires -snapshot-dir)")
	snapDir := fs.String("snapshot-dir", "", "directory receiving snapshot blobs (snap-<events>.ckpt, written atomically)")
	resumeFile := fs.String("resume", "", "resume from this snapshot blob instead of starting from t=0 (config must match the snapshotting run)")
	timelineCSV := fs.String("timeline", "", "write a per-job CPU timeline CSV to this file")
	gantt := fs.Bool("gantt", false, "print an ASCII Gantt chart and utilization summary")
	ganttWidth := fs.Int("gantt-width", 100, "Gantt chart width in columns")
	var profiles prof.Profiles
	profiles.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, w := range checkpointsim.Workloads() {
			fmt.Fprintf(out, "%-12s %s\n", w, checkpointsim.DescribeWorkload(w))
		}
		return nil
	}
	// The two-level protocol's global level is the -interval/-write pair.
	pc.TwoLevel.GlobalInterval, pc.TwoLevel.GlobalWrite = pc.Interval, pc.Write

	if cfg.Net, err = network.Preset(*netPreset); err != nil {
		return err
	}
	// Validated even with failures off, so a typo never passes silently.
	recoveryKind, ok := recoveries[*recovery]
	if !ok {
		return fmt.Errorf("unknown recovery %q", *recovery)
	}
	if *bisection < 0 {
		return fmt.Errorf("negative bisection bandwidth")
	}
	cfg.Net.BisectionBytesPerSec = *bisection * 1e9
	for _, bw := range []*float64{&cfg.Storage.AggregateBytesPerSec, &cfg.Storage.PerWriterBytesPerSec, &cfg.Storage.NodeBytesPerSec} {
		if *bw < 0 {
			return fmt.Errorf("negative storage bandwidth")
		}
		*bw *= 1e9 // the flags are in GB/s
	}
	var traceName, traceDigest string
	if *traceFile != "" {
		prog, name, digest, err := exp.LoadTraceFile(*traceFile)
		if err != nil {
			return err
		}
		cfg.Program = prog
		traceName, traceDigest = name, digest
	}
	var timelineRows [][]string
	col := timeline.NewCollector()
	if *timelineCSV != "" || *gantt {
		cfg.Trace = func(ev checkpointsim.TraceEvent) {
			col.Add(ev)
			if *timelineCSV != "" && ev.Type == checkpointsim.TraceCPU {
				timelineRows = append(timelineRows, []string{
					strconv.Itoa(ev.Rank), ev.Kind,
					strconv.FormatInt(int64(ev.Start), 10),
					strconv.FormatInt(int64(ev.End), 10),
				})
			}
		}
	}
	var chk *validate.Checker
	if *validateRun {
		if *resumeFile != "" {
			return fmt.Errorf("-resume cannot be combined with -validate: the conformance checker needs the trace from t=0, which a resumed run does not replay")
		}
		chk = validate.New(cfg.Net)
		cfg.Trace = chk.Hook(cfg.Trace)
	}
	var snapped int
	var snapErr error
	if cfg.SnapshotEvery > 0 {
		if *snapDir == "" {
			return fmt.Errorf("-snapshot-every requires -snapshot-dir")
		}
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			return err
		}
		cfg.OnSnapshot = func(s checkpointsim.Snapshot) {
			name := filepath.Join(*snapDir, fmt.Sprintf("snap-%012d.ckpt", s.Events))
			if werr := snapshot.WriteFile(name, s.Blob); werr != nil && snapErr == nil {
				snapErr = fmt.Errorf("writing snapshot %s: %w", name, werr)
			}
			snapped++
		}
	}
	if *resumeFile != "" {
		blob, rerr := os.ReadFile(*resumeFile)
		if rerr != nil {
			return rerr
		}
		cfg.ResumeFrom = blob
	}
	if nz.Period != 0 {
		cfg.Noise = &nz
	}
	if fl.MTBF != 0 {
		fl.Kind = recoveryKind
		cfg.Failures = &fl
	}

	stopProfiles, err := profiles.Start()
	if err != nil {
		return err
	}
	defer func() {
		if serr := stopProfiles(); err == nil {
			err = serr
		}
	}()
	res, err := checkpointsim.Run(cfg)
	if err != nil {
		return err
	}
	if snapErr != nil {
		return snapErr
	}
	if chk != nil {
		if verr := chk.Reconcile(res.Result, res.Store, res.Protocol); verr != nil {
			return verr
		}
	}
	if cfg.Program != nil {
		fmt.Fprintf(out, "workload:  trace %s@%s on %d ranks, %d ops\n",
			traceName, traceDigest, cfg.Program.NumRanks, len(cfg.Program.Ops))
	} else {
		fmt.Fprintf(out, "workload:  %s on %d ranks, %d iterations\n", cfg.Workload, cfg.Ranks, cfg.Iterations)
	}
	fmt.Fprintf(out, "protocol:  %s\n", res.Protocol.Name())
	fmt.Fprint(out, res.Result)
	if chk != nil {
		fmt.Fprintln(out, "validate:  ok — trace conformance verified")
	}
	st := res.Protocol.Stats()
	if st.Writes > 0 {
		fmt.Fprintf(out, "checkpoints: %d writes", st.Writes)
		if st.Forced > 0 {
			fmt.Fprintf(out, " (%d forced)", st.Forced)
		}
		if st.Rounds > 0 {
			fmt.Fprintf(out, ", %d rounds (quiesce %v/round, span %v/round)",
				st.Rounds,
				st.CoordDelay/simtime.Duration(st.Rounds),
				st.RoundSpan/simtime.Duration(st.Rounds))
		}
		fmt.Fprintln(out)
	}
	if st.MirroredMessages > 0 || st.Heartbeats > 0 {
		fmt.Fprintf(out, "replication: %d mirrored messages (%.1f MiB), %d heartbeats, %d takeovers\n",
			st.MirroredMessages, float64(st.MirroredBytes)/(1<<20), st.Heartbeats, st.Takeovers)
	}
	if s := res.Store; s != nil {
		ss := s.Stats()
		fmt.Fprintf(out, "storage:   %s — %d writes, %.1f MiB drained, peak %d writers, wait %v\n",
			s.Params(), ss.Writes, float64(ss.Bytes)/(1<<20), ss.PeakWriters, ss.WaitTime)
	}
	if st.LoggedMessages > 0 {
		fmt.Fprintf(out, "logging:   %d messages, %.1f MiB, %v CPU\n",
			st.LoggedMessages, float64(st.LoggedBytes)/(1<<20), st.LogPenalty)
	}
	if n := len(res.FailureEvents); n > 0 {
		fmt.Fprintf(out, "failures:  %d\n", n)
		for i, ev := range res.FailureEvents {
			if i >= 10 {
				fmt.Fprintf(out, "  ... %d more\n", n-10)
				break
			}
			fmt.Fprintf(out, "  t=%v rank=%d lost=%v recovery=%v\n",
				simtime.Duration(ev.Time), ev.Rank, ev.LostWork, ev.Recovery)
		}
	}
	// Per-rank spread of finish times (synchronization skew).
	fins := append([]simtime.Time(nil), res.RankFinish...)
	sort.Slice(fins, func(i, j int) bool { return fins[i] < fins[j] })
	if len(fins) > 1 {
		fmt.Fprintf(out, "finish skew: first %v, last %v (spread %v)\n",
			simtime.Duration(fins[0]), simtime.Duration(fins[len(fins)-1]),
			fins[len(fins)-1].Sub(fins[0]))
	}
	if snapped > 0 {
		fmt.Fprintf(out, "snapshots: %d written to %s\n", snapped, *snapDir)
	}
	if *resumeFile != "" {
		fmt.Fprintf(out, "resumed:   from %s\n", *resumeFile)
	}
	if *gantt {
		col.PrintSummary(out, res.Makespan)
		col.Gantt(out, *ganttWidth, res.Makespan, 32)
	}
	if *timelineCSV != "" {
		f, err := os.Create(*timelineCSV)
		if err != nil {
			return err
		}
		cw := csv.NewWriter(f)
		if err := cw.Write([]string{"rank", "kind", "start_ns", "end_ns"}); err != nil {
			f.Close()
			return err
		}
		if err := cw.WriteAll(timelineRows); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "timeline:  %d records -> %s\n", len(timelineRows), *timelineCSV)
	}
	return nil
}
