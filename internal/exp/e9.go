package exp

import (
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E9Stagger ablates the uncoordinated offset policy: with a substantial
// write duty cycle (δ/τ = 20%), aligned offsets behave like coordination-
// free gang checkpointing, while staggering trades that for a rolling
// pattern whose delays communication-heavy workloads must absorb every
// interval. One sweep point = one workload with all three policies.
func E9Stagger(o Options) ([]*report.Table, error) {
	net := o.net()
	ranks := pick(o, 64, 16)
	iters := pick(o, 60, 20)
	workloads := pick(o, []string{"ep", "stencil2d", "stencil3d", "cg"},
		[]string{"ep", "stencil2d"})

	t := report.NewTable("E9: uncoordinated offset policy ablation (δ/τ = 20%, no logging)",
		"workload", "policy", "overhead%", "writes")
	err := sweep(t, o, "E9", workloads, func(i int, w string) (rows, error) {
		sd := pointSeed(o, "E9", i)
		base, err := run.Generate(run.RunConfig{Workload: w, Ranks: ranks, Iterations: iters,
			Compute: ms(1), MsgBytes: 4096, Net: net, Seed: sd})
		if err != nil {
			return nil, err
		}
		rBase, _, err := runPoint(o, base)
		if err != nil {
			return nil, err
		}
		var rs rows
		for _, pol := range []string{"aligned", "staggered", "random"} {
			c := base
			c.Protocol = run.ProtocolConfig{Kind: run.ProtoUncoordinated, Offset: pol,
				Interval: 10 * simtime.Millisecond, Write: 2 * simtime.Millisecond}
			r, b, err := runPoint(o, c)
			if err != nil {
				return nil, err
			}
			rs.add(w, pol, r.OverheadPercent(rBase), b.Protocol.Stats().Writes)
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("logging disabled to isolate the offset effect")
	return []*report.Table{t}, nil
}
