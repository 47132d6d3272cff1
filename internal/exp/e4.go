package exp

import (
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E4WeakScaling sweeps machine size and reports failure-free checkpointing
// overhead for the coordinated protocol and the three uncoordinated offset
// policies (with a modest logging tax), over a halo-exchange code and an
// allreduce-dominated code. One sweep point = one (workload, scale) cell:
// its baseline and the four protocol runs share the point's RNG stream.
func E4WeakScaling(o Options) ([]*report.Table, error) {
	net := o.net()
	scales := pick(o, []int{16, 64, 256, 1024}, []int{16, 64})
	workloads := pick(o, []string{"stencil2d", "cg"}, []string{"stencil2d"})
	protos := coordVsUncoord(run.ProtocolConfig{Interval: 10 * simtime.Millisecond, Write: simtime.Millisecond},
		checkpoint.LogParams{Alpha: 500 * simtime.Nanosecond, BetaNsPerByte: 0.1},
		"aligned", "staggered", "random")
	iters := pick(o, 40, 15)

	type cell struct {
		w string
		p int
	}
	var points []cell
	for _, w := range workloads {
		for _, p := range scales {
			points = append(points, cell{w, p})
		}
	}

	t := report.NewTable("E4: failure-free checkpoint overhead vs scale (τ=10ms, δ=1ms)",
		"workload", "P", "protocol", "makespan", "overhead%", "writes")
	err := sweep(t, o, "E4", points, func(i int, c cell) (rows, error) {
		sd := pointSeed(o, "E4", i)
		base, err := run.Generate(run.RunConfig{Workload: c.w, Ranks: c.p, Iterations: iters,
			Compute: ms(1), MsgBytes: 4096, Net: net, Seed: sd})
		if err != nil {
			return nil, err
		}
		rBase, _, err := runPoint(o, base)
		if err != nil {
			return nil, err
		}
		var rs rows
		rs.add(c.w, c.p, "none", simtime.Duration(rBase.Makespan).String(), 0.0, 0)

		// Protocol runs write through a store built from o.Storage (none
		// under the default zero parameters).
		v := base
		v.Storage = o.Storage
		for _, proto := range protos {
			v.Protocol = proto
			r, b, err := runPoint(o, v)
			if err != nil {
				return nil, err
			}
			rs.add(c.w, c.p, b.Protocol.Name(), simtime.Duration(r.Makespan).String(),
				r.OverheadPercent(rBase), b.Protocol.Stats().Writes)
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("uncoordinated protocols carry logging α=0.5µs, β=0.1ns/B; coordinated pays tree coordination")
	return []*report.Table{t}, nil
}
