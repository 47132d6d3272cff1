package exp

import (
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
)

// E14Fabric measures how a finite bisection bandwidth changes the
// checkpointing picture: partner checkpointing ships images through the
// same fabric the application uses, so its advantage over local writes
// (E12) erodes as the fabric tightens — and the application itself slows
// even without checkpointing. One sweep point = one bisection bandwidth.
func E14Fabric(o Options) ([]*report.Table, error) {
	ranks := pick(o, 64, 16)
	iters := pick(o, 40, 15)
	const (
		interval = 10 * simtime.Millisecond
		image    = int64(1 << 20)
	)
	// Per-rank 1 GB/s filesystem share for the local-write comparator.
	writeDur := simtime.FromSeconds(float64(image) / (1 << 30))
	bisections := pick(o,
		[]float64{0, 400e9, 100e9, 25e9},
		[]float64{0, 100e9})

	t := report.NewTable("E14: partner checkpointing under fabric contention (transpose, 1MiB images)",
		"bisection-GB/s", "baseline-makespan", "protocol", "overhead%", "fabric-busy")
	err := sweep(t, o, "E14", bisections, func(i int, bis float64) (rows, error) {
		sd := pointSeed(o, "E14", i)
		net := o.net()
		net.BisectionBytesPerSec = bis
		label := "inf"
		if bis > 0 {
			label = report.Cell(bis / 1e9)
		}

		base, err := run.Generate(run.RunConfig{Workload: "transpose", Ranks: ranks, Iterations: iters,
			Compute: ms(1), MsgBytes: 32 * 1024, Net: net, Seed: sd})
		if err != nil {
			return nil, err
		}
		rBase, _, err := runPoint(o, base)
		if err != nil {
			return nil, err
		}
		var rs rows
		variants := []struct {
			label string
			proto run.ProtocolConfig
		}{
			// Local writes: no extra fabric traffic.
			{"local-write", run.ProtocolConfig{Kind: run.ProtoUncoordinated,
				Interval: interval, Write: writeDur}},
			// Partner: images compete for the bisection.
			{"partner", run.ProtocolConfig{Kind: run.ProtoPartner,
				Interval: interval, Write: writeDur / 10, CkptBytes: image}},
		}
		for _, v := range variants {
			c := base
			c.Protocol = v.proto
			r, _, err := runPoint(o, c)
			if err != nil {
				return nil, err
			}
			rs.add(label, simtime.Duration(rBase.Makespan).String(), v.label,
				r.OverheadPercent(rBase), r.Metrics.FabricBusy.String())
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("overheads are relative to the baseline at the same bisection; the baseline column shows the app slowing by itself")
	return []*report.Table{t}, nil
}
