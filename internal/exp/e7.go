package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/model"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E7Recovery compares the protocols under injected failures across a
// per-node MTBF sweep: coordinated checkpointing with global rollback
// against uncoordinated (staggered, with logging) with single-rank log
// replay. Each uses its own Daly-optimal interval for the configuration.
//
// One sweep point = one MTBF; all three protocol runs in a point share the
// point's RNG stream, so they see identical failure clocks and differ only
// in victims and recovery costs. The failure-free baseline is agent-free
// and therefore seed-insensitive; it is computed once and shared.
func E7Recovery(o Options) ([]*report.Table, error) {
	net := o.net()
	ranks := pick(o, 64, 16)
	iters := pick(o, 120, 50)
	const (
		write   = 2 * simtime.Millisecond
		restart = 2 * simtime.Millisecond
	)
	logp := checkpoint.LogParams{Alpha: 500 * simtime.Nanosecond, BetaNsPerByte: 0.1}
	mtbfs := pick(o,
		[]simtime.Duration{2 * simtime.Second, 4 * simtime.Second, 8 * simtime.Second, 16 * simtime.Second},
		[]simtime.Duration{2 * simtime.Second, 8 * simtime.Second})

	t := report.NewTable("E7: runtime under failures vs per-node MTBF (stencil2d)",
		"node-MTBF", "protocol", "τ", "failures", "makespan", "overhead%", "lost-work")

	base, err := run.Generate(run.RunConfig{Workload: "stencil2d", Ranks: ranks, Iterations: iters,
		Compute: ms(1), MsgBytes: 4096, Net: net, Seed: o.Seed})
	if err != nil {
		return nil, errf("E7", err)
	}
	rBase, _, err := runPoint(o, base)
	if err != nil {
		return nil, errf("E7", err)
	}

	err = sweep(t, o, "E7", mtbfs, func(i int, mtbf simtime.Duration) (rows, error) {
		sd := pointSeed(o, "E7", i)
		sys := float64(mtbf.Seconds()) / float64(ranks)
		tau := simtime.FromSeconds(model.DalyInterval(write.Seconds(), sys))
		if tau <= 0 {
			tau = write * 2
		}
		// One program serves all three protocol runs of this point: the spec
		// and seed are identical and engines never mutate a program.
		spec, err := run.Generate(run.RunConfig{Workload: "stencil2d", Ranks: ranks, Iterations: iters,
			Compute: ms(1), MsgBytes: 4096, Net: net, Seed: sd,
			MaxTime: simtime.Time(300 * simtime.Second)})
		if err != nil {
			return nil, err
		}
		variants := []struct {
			label string
			proto run.ProtocolConfig
			fail  failure.Config
		}{
			{"coordinated+rollback",
				run.ProtocolConfig{Kind: run.ProtoCoordinated, Interval: tau, Write: write},
				failure.Config{MTBF: mtbf, Restart: restart, Kind: failure.RollbackGlobal}},
			{"uncoordinated+replay",
				run.ProtocolConfig{Kind: run.ProtoUncoordinated, Interval: tau, Write: write, Logging: logp},
				failure.Config{MTBF: mtbf, Restart: restart, ReplaySpeedup: 2, Kind: failure.ReplayLocal}},
			// The middle ground: coordinate inside clusters, log across.
			{"hierarchical+cluster",
				run.ProtocolConfig{Kind: run.ProtoHierarchical, ClusterSize: ranks / 8,
					Interval: tau, Write: write, Logging: logp},
				failure.Config{MTBF: mtbf, Restart: restart, ReplaySpeedup: 2, Kind: failure.RollbackCluster}},
		}
		var rs rows
		for _, v := range variants {
			c := spec
			c.Protocol = v.proto
			c.Failures = &v.fail
			r, b, err := runPoint(o, c)
			if err != nil {
				return nil, err
			}
			rs.add(mtbf.String(), v.label, tau.String(), len(b.Failures.Events()),
				simtime.Duration(r.Makespan).String(), r.OverheadPercent(rBase),
				b.Failures.TotalLost().String())
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("same seed per row-pair: identical failure clocks, different victims/costs")
	return []*report.Table{t}, nil
}
