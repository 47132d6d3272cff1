package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/model"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E16TwoLevel compares single-level coordinated checkpointing against the
// multilevel (SCR/FTI-class) protocol: frequent cheap local checkpoints
// backed by rare expensive global ones. The win depends on what fraction of
// failures the local level can serve — the sweep axis. The single-level
// reference is sweep point 0; each coverage level is its own point.
func E16TwoLevel(o Options) ([]*report.Table, error) {
	net := o.net()
	ranks := pick(o, 64, 16)
	iters := pick(o, 120, 50)
	const (
		globalWrite = 4 * simtime.Millisecond
		localWrite  = 100 * simtime.Microsecond // 40x cheaper (node-local SSD)
		restart     = 4 * simtime.Millisecond
		mtbf        = 2 * simtime.Second // per node: failure-rich regime
	)
	coverages := pick(o, []float64{0.5, 0.8, 0.95}, []float64{0.8})

	sys := mtbf.Seconds() / float64(ranks)
	// Single-level interval: Daly for the full failure rate.
	tauG := simtime.FromSeconds(model.DalyInterval(globalWrite.Seconds(), sys))

	t := report.NewTable("E16: single-level vs two-level checkpointing under failures",
		"local-coverage", "protocol", "τ_L/τ_G", "failures", "makespan", "overhead%", "writes(L/G)")

	base, err := run.Generate(run.RunConfig{Workload: "stencil2d", Ranks: ranks, Iterations: iters,
		Compute: ms(1), MsgBytes: 4096, Net: net, Seed: o.Seed})
	if err != nil {
		return nil, errf("E16", err)
	}
	rBase, _, err := runPoint(o, base)
	if err != nil {
		return nil, errf("E16", err)
	}

	type pt struct {
		single bool
		cov    float64
	}
	points := []pt{{single: true}}
	for _, cov := range coverages {
		points = append(points, pt{cov: cov})
	}

	err = sweep(t, o, "E16", points, func(i int, p pt) (rows, error) {
		cfg := run.RunConfig{Workload: "stencil2d", Ranks: ranks, Iterations: iters,
			Compute: ms(1), MsgBytes: 4096, Net: net, Seed: pointSeed(o, "E16", i),
			MaxTime: simtime.Time(300 * simtime.Second)}
		var rs rows
		if p.single {
			// Single-level reference: coordinated at the Daly-optimal interval.
			cfg.Protocol = run.ProtocolConfig{Kind: run.ProtoCoordinated, Interval: tauG, Write: globalWrite}
			cfg.Failures = &failure.Config{MTBF: mtbf, Restart: restart, Kind: failure.RollbackGlobal}
			r, b, err := runPoint(o, cfg)
			if err != nil {
				return nil, err
			}
			rs.add("-", "single-level", "-/"+tauG.String(), len(b.Failures.Events()),
				simtime.Duration(r.Makespan).String(), r.OverheadPercent(rBase),
				report.Cell(b.Protocol.Stats().Writes))
			return rs, nil
		}

		// Each level gets its own Daly interval for the failure share it
		// serves — the standard multilevel optimization.
		tl0, tg0 := model.TwoLevelIntervals(localWrite.Seconds(), globalWrite.Seconds(), sys, p.cov)
		tauL := simtime.FromSeconds(tl0)
		tauGL := simtime.FromSeconds(tg0)
		cfg.Protocol = run.ProtocolConfig{Kind: run.ProtoTwoLevel, TwoLevel: checkpoint.TwoLevelParams{
			LocalInterval: tauL, LocalWrite: localWrite,
			GlobalInterval: tauGL, GlobalWrite: globalWrite,
		}}
		cfg.Failures = &failure.Config{MTBF: mtbf, Restart: restart,
			LocalRestart: restart / 10, LocalCoverage: p.cov, Kind: failure.RecoverTwoLevel}
		r, b, err := runPoint(o, cfg)
		if err != nil {
			return nil, err
		}
		local, global := b.Protocol.(*checkpoint.TwoLevel).LevelWrites()
		rs.add(p.cov, "two-level", tauL.String()+"/"+tauGL.String(), len(b.Failures.Events()),
			simtime.Duration(r.Makespan).String(), r.OverheadPercent(rBase),
			report.Cell(local)+"/"+report.Cell(global))
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("per-level Daly intervals: τ_L = Daly(δ_L, θ_sys/cov), τ_G = Daly(δ_G, θ_sys/(1−cov)); local restart = R/10")
	return []*report.Table{t}, nil
}
