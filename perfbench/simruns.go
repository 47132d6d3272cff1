package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	cs "checkpointsim"
	"checkpointsim/internal/model"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/validate"
	"checkpointsim/internal/workload"
)

// genSpec is one program a sim workload generates with workload.FromName.
type genSpec struct {
	label string
	name  string
	cfg   workload.CommonConfig
}

// facadeRun is one checkpointsim.Run call on the program gens[prog].
type facadeRun struct {
	label string
	prog  int
	cfg   cs.RunConfig
}

// simPlan is the fixed input of a sim workload pass: programs to generate
// and the facade runs over them, executed in order, each program right
// before its runs.
type simPlan struct {
	gens []genSpec
	runs []facadeRun
}

// simPass is what one execution of a plan produced.
type simPass struct {
	counts workCounts
	digest string
	// Validator figures, from validated executions only.
	valEvents int64
	valTime   time.Duration
}

// execOpts selects how a plan executes.
type execOpts struct {
	validate bool
	tr       *tracer    // nil = untraced
	parent   int        // span the calls hang under
	rep      *runReport // receives validator verdicts when validating
}

// execute runs the plan once. Validation is a pure observer: the results,
// and so the counts and digest, are those of an unvalidated execution.
func (p simPlan) execute(o execOpts) (simPass, error) {
	var out simPass
	var dg digester
	net := cs.DefaultNetwork()
	for gi, g := range p.gens {
		req := fmt.Sprintf("%s#%d", g.label, gi)
		var prog *cs.Program
		err := o.tr.do("workload.gen", o.parent, req, func(int) error {
			var err error
			prog, err = workload.FromName(g.name, g.cfg)
			return err
		})
		if err != nil {
			return out, fmt.Errorf("%s: %w", g.label, err)
		}
		out.counts.ops += int64(len(prog.Ops))
		for _, fr := range p.runs {
			if fr.prog != gi {
				continue
			}
			cfg := fr.cfg
			cfg.Program = prog
			var chk *validate.Checker
			var hookTime time.Duration
			var hookEvents int64
			if o.validate {
				chk = validate.New(net)
				hook := chk.Hook(nil)
				if o.tr != nil {
					cfg.Trace = func(ev cs.TraceEvent) {
						t := time.Now()
						hook(ev)
						hookTime += time.Since(t)
						hookEvents++
					}
				} else {
					cfg.Trace = func(ev cs.TraceEvent) { hook(ev); hookEvents++ }
				}
			}
			id := o.tr.begin("sim.run", o.parent, req)
			res, err := cs.Run(cfg)
			o.tr.end(id)
			if o.validate {
				o.tr.aggregate("validate.hook", id, req, hookTime)
				out.valEvents += hookEvents
				out.valTime += hookTime
			}
			out.counts.runs++
			if errors.Is(err, sim.ErrCapExceeded) {
				// A capped run has no result to reconcile (as in the
				// experiments); its verdict is the cap itself.
				if o.validate {
					o.rep.op(true, "")
				}
				out.counts.capped++
				dg.add([]byte("capped: " + err.Error()))
				continue
			}
			if err != nil {
				return out, fmt.Errorf("%s: %w", fr.label, err)
			}
			if o.validate {
				start := time.Now()
				var verr error
				o.tr.do("validate.finish", o.parent, req, func(int) error {
					verr = checkRun(chk, res)
					return nil
				})
				out.valTime += time.Since(start)
				o.rep.op(verr == nil, "%s: %v", fr.label, verr)
			}
			dg.add(res.CanonicalBytes())
			out.counts.add(resultCounts(res))
		}
	}
	out.digest = dg.sum()
	return out, nil
}

// checkRun runs the validator's post-run reconciliation for one facade
// run: the same checks the campaign applies to its scenarios.
func checkRun(chk *validate.Checker, res *cs.RunResult) error {
	if err := chk.Finish(res.Result); err != nil {
		return err
	}
	if res.Store != nil {
		if err := chk.CheckStorage(res.Store.Stats()); err != nil {
			return err
		}
	}
	if tl, ok := res.Protocol.(validate.TaxedLogger); ok {
		if err := chk.CheckLogging(tl); err != nil {
			return err
		}
	}
	if rm, ok := res.Protocol.(validate.ReplicaMirror); ok {
		if err := chk.CheckReplication(rm); err != nil {
			return err
		}
	}
	if ci, ok := res.Protocol.(validate.CICIntrospect); ok {
		if err := chk.CheckCIC(ci); err != nil {
			return err
		}
	}
	return nil
}

func resultCounts(res *cs.RunResult) workCounts {
	st := res.Protocol.Stats()
	c := workCounts{
		events:          res.Events,
		makespanNS:      int64(res.Makespan),
		appMessages:     res.Metrics.AppMessages,
		ctlMessages:     res.Metrics.CtlMessages,
		ckptWrites:      st.Writes,
		ckptRounds:      st.Rounds,
		loggedMessages:  st.LoggedMessages,
		forced:          st.Forced,
		failureInjected: int64(len(res.FailureEvents)),
	}
	if res.Store != nil {
		ss := res.Store.Stats()
		c.storageWrites, c.storageBytes = ss.Writes, ss.Bytes
	}
	return c
}

// --- paper-scale ---

// paperScalePlan is the paper's two communication structures under its two
// coordination disciplines at the largest scale: a 7-point 3D halo at
// P=4096 under coordinated checkpointing, and CG (ring halo plus two
// allreduces per iteration) at P=1024 under staggered uncoordinated
// checkpointing with sender-based logging. Failure-free: only generation,
// the engine and the protocols work. scale divides both rank counts (the
// set-up warm-up uses 8).
func paperScalePlan(seed uint64, scale int) simPlan {
	base := func(ranks int, i uint64) workload.CommonConfig {
		return workload.CommonConfig{Base: workload.Base{Ranks: ranks / scale, Iterations: 12,
			Compute: cs.Millisecond, Jitter: 0.05, Seed: rng.Derive(seed, i)}, Bytes: 4096}
	}
	ckpt := func(kind cs.ProtoKind) cs.ProtocolConfig {
		return cs.ProtocolConfig{Kind: kind, Interval: 5 * cs.Millisecond, Write: 500 * cs.Microsecond,
			Logging: cs.LogParams{Alpha: 500 * cs.Nanosecond, BetaNsPerByte: 0.1}}
	}
	g0, g1 := base(4096, 1), base(1024, 2)
	return simPlan{
		gens: []genSpec{
			{label: fmt.Sprintf("stencil3d-p%d", g0.Ranks), name: "stencil3d", cfg: g0},
			{label: fmt.Sprintf("cg-p%d", g1.Ranks), name: "cg", cfg: g1},
		},
		runs: []facadeRun{
			{label: fmt.Sprintf("stencil3d-p%d/coordinated", g0.Ranks), prog: 0,
				cfg: cs.RunConfig{Seed: g0.Seed, Protocol: ckpt(cs.ProtoCoordinated)}},
			{label: fmt.Sprintf("cg-p%d/uncoordinated-staggered-logged", g1.Ranks), prog: 1,
				cfg: cs.RunConfig{Seed: g1.Seed, Protocol: ckpt(cs.ProtoUncoordinated)}},
		},
	}
}

func runPaperScale(e *env) error {
	scale := 1
	if e.tiny {
		scale = 64
	}
	return runSimWorkload(e, "paper-scale", func(warm bool) simPlan {
		if warm {
			return paperScalePlan(e.seed, 8*scale)
		}
		return paperScalePlan(e.seed, scale)
	})
}

// --- rollback-storm ---

// stormPlan is E18's failure grid through the facade: stencil2d at
// P ∈ {16, 32, 64} × per-node MTBF ∈ {100ms, 400ms, 1.6s}, δ = 2ms, the
// Daly interval per cell and a 60s simulated cap, each cell under
// coordinated checkpointing with global rollback and under staggered
// uncoordinated checkpointing with logging and local replay. Both runs of
// a cell share its program and seed, so they see the same failure clocks.
func stormPlan(seed uint64, scales []int, mtbfs []cs.Duration, iters int) simPlan {
	const write = 2 * cs.Millisecond
	var p simPlan
	for _, ranks := range scales {
		for _, mtbf := range mtbfs {
			i := len(p.gens)
			sd := rng.Derive(seed, uint64(i))
			tau := cs.Duration(model.DalyInterval(write.Seconds(), mtbf.Seconds()/float64(ranks)) * float64(cs.Second))
			if tau <= 0 {
				tau = 2 * write
			}
			label := fmt.Sprintf("stencil2d-p%d-mtbf%s", ranks, mtbf)
			p.gens = append(p.gens, genSpec{label: label, name: "stencil2d",
				cfg: workload.CommonConfig{Base: workload.Base{Ranks: ranks, Iterations: iters,
					Compute: cs.Millisecond, Seed: sd}, Bytes: 4096}})
			common := cs.RunConfig{Seed: sd, MaxTime: cs.Time(60 * cs.Second)}
			coord := common
			coord.Protocol = cs.ProtocolConfig{Kind: cs.ProtoCoordinated, Interval: tau, Write: write}
			coord.Failures = &cs.FailureConfig{MTBF: mtbf, Restart: 2 * cs.Millisecond, Kind: cs.RecoverGlobal}
			uncoord := common
			uncoord.Protocol = cs.ProtocolConfig{Kind: cs.ProtoUncoordinated, Interval: tau, Write: write,
				Offset: "staggered", Logging: cs.LogParams{Alpha: 500 * cs.Nanosecond, BetaNsPerByte: 0.1}}
			uncoord.Failures = &cs.FailureConfig{MTBF: mtbf, Restart: 2 * cs.Millisecond,
				ReplaySpeedup: 2, Kind: cs.RecoverLocal}
			p.runs = append(p.runs,
				facadeRun{label: label + "/coordinated-global", prog: i, cfg: coord},
				facadeRun{label: label + "/uncoordinated-local", prog: i, cfg: uncoord})
		}
	}
	return p
}

func runRollbackStorm(e *env) error {
	ms := func(n int) cs.Duration { return cs.Duration(n) * cs.Millisecond }
	mtbfs := []cs.Duration{ms(100), ms(400), ms(1600)}
	return runSimWorkload(e, "rollback-storm", func(warm bool) simPlan {
		switch {
		case e.tiny:
			return stormPlan(e.seed, []int{8}, []cs.Duration{ms(100), ms(1600)}, 10)
		case warm:
			return stormPlan(e.seed, []int{16}, mtbfs, 60)
		}
		return stormPlan(e.seed, []int{16, 32, 64}, mtbfs, 60)
	})
}

// simMemoryGOGC is the collector setting of the sim workloads' memory
// pass: a cycle every 10% of heap growth reads the live heap about twenty
// times in a paper-scale pass instead of about three.
const simMemoryGOGC = 10

// runSimWorkload is the shared shape of the two facade workloads:
//
//   - set-up (timed, repeated): derive the plan from the seed and execute
//     a reduced warm-up plan, so code, heap and caches are warm;
//   - verification (untimed): execute the plan once under the validator;
//   - timed passes: execute the plan untraced and unvalidated, each
//     repetition's counts and digest checked against the verified pass;
//   - memory pass (untimed): execute it once more with frequent GC
//     cycles, for peak_heap_mb;
//   - with tracing, one more pass with spans around every layer call.
func runSimWorkload(e *env, name string, plan func(warm bool) simPlan) error {
	var p simPlan
	err := timeSetup(e.rep, setupRepeats, func(int) (time.Duration, error) {
		p = plan(false)
		_, err := plan(true).execute(execOpts{})
		return 0, err
	})
	if err != nil {
		return err
	}

	verifyRoot := e.rep.tracer.begin("verify", 0, name)
	ref, err := p.execute(execOpts{validate: true, tr: e.rep.tracer, parent: verifyRoot, rep: e.rep})
	e.rep.tracer.end(verifyRoot)
	if err != nil {
		return fmt.Errorf("verification pass: %w", err)
	}
	e.rep.digest = ref.digest
	recordCounts(e.rep, ref.counts)
	e.rep.counters = append(e.rep.counters, counter{"validate.trace_events", ref.valEvents})
	e.rep.layer["validate.trace_events"] = float64(ref.valEvents)
	e.rep.layer["validate.s"] = ref.valTime.Seconds()
	e.rep.layer["validate.ns_per_event"] = 0
	if ref.valEvents > 0 {
		e.rep.layer["validate.ns_per_event"] = float64(ref.valTime.Nanoseconds()) / float64(ref.valEvents)
	}

	var got simPass
	passes, err := timedPasses(e, 2, func(int) error {
		var err error
		got, err = p.execute(execOpts{})
		return err
	}, func(rep int) {
		checkRepeat(e.rep, fmt.Sprintf("%s repetition %d", name, rep+1), ref.counts, got.counts, ref.digest, got.digest)
	})
	if err != nil {
		return err
	}
	recordPasses(e.rep, passes, ref.counts.events)
	var mem simPass
	st, err := memoryPass(simMemoryGOGC, func() error {
		var err error
		mem, err = p.execute(execOpts{})
		return err
	})
	if err != nil {
		return err
	}
	checkRepeat(e.rep, name+" memory pass", ref.counts, mem.counts, ref.digest, mem.digest)
	e.rep.e2e["peak_heap_mb"] = float64(st.peakHeapB) / mib
	e.rep.extra("memory_pass_gc_cycles", float64(st.rt.gcCycles), "count",
		fmt.Sprintf("GC cycles in the memory pass (GOGC=%d) that peak_heap_mb is read from", simMemoryGOGC))
	e.rep.extra("runs_per_s", float64(ref.counts.runs)/e.rep.wallS, "1/s",
		fmt.Sprintf("(%d facade runs per pass, one serial client)", ref.counts.runs))

	if e.rep.tracer == nil {
		return nil
	}
	mark := e.rep.tracer.mark()
	var traced simPass
	st, err = measure(func() error {
		root := e.rep.tracer.begin("pass", 0, name)
		defer e.rep.tracer.end(root)
		var err error
		traced, err = p.execute(execOpts{tr: e.rep.tracer, parent: root})
		return err
	})
	if err != nil {
		return err
	}
	checkRepeat(e.rep, name+" traced pass", ref.counts, traced.counts, ref.digest, traced.digest)
	spans := e.rep.tracer.since(mark)
	_, genT, genA := spanStats(spans, "workload.gen")
	_, simT, simA := spanStats(spans, "sim.run")
	e.rep.layer["workload.gen_s"] = genT.Seconds()
	e.rep.layer["workload.alloc_mb"] = float64(genA) / mib
	e.rep.layer["sim.run_s"] = simT.Seconds()
	e.rep.layer["sim.alloc_mb"] = float64(simA) / mib
	e.rep.layer["sim.events_per_s"] = float64(traced.counts.events) / simT.Seconds()
	recordRuntime(e.rep, st)
	recordShares(e.rep, spans, st.wall.Seconds(), 1)
	zeroLayers(e.rep, "exp.", "service.", "cache.", "relay.", "snapshot.")
	return nil
}

// recordRuntime sets the runtime.* metrics and the tracing overhead from a
// traced pass.
func recordRuntime(r *runReport, traced passStats) {
	r.layer["runtime.gc_cycles"] = float64(traced.rt.gcCycles)
	r.layer["runtime.gc_cpu_frac"] = traced.rt.gcFrac()
	r.layer["trace.overhead_s"] = traced.wall.Seconds() - r.wallS
}

// zeroLayers sets every per-layer metric under the given prefixes that the
// workload has not measured to 0: those layers do no work in it.
func zeroLayers(r *runReport, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if _, ok := r.layer[d.name]; !ok && strings.HasPrefix(d.name, p) {
				r.layer[d.name] = 0
			}
		}
	}
}
