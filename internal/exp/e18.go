package exp

import (
	"errors"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/model"
	"checkpointsim/internal/report"
	"checkpointsim/internal/run"
	"checkpointsim/internal/runner"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
)

// e18Point is one cell of the (scale × MTBF) grid.
type e18Point struct {
	ranks int
	mtbf  simtime.Duration
}

// e18Cell is the outcome of one grid cell, exposed for the oracle-bound
// acceptance tests.
type e18Cell struct {
	ranks                int
	mtbf                 simtime.Duration
	tau                  simtime.Duration
	failures             int
	coord, uncoord, repl simtime.Time
	capC, capU, capR     bool
	replBase             simtime.Time // failure-free replication layout
	winner               string
}

const (
	e18Cap     = simtime.Time(60 * simtime.Second)
	e18Write   = 2 * simtime.Millisecond // checkpoint write δ
	e18Restart = 2 * simtime.Millisecond
)

// e18Tau is the Daly interval for p ranks of per-node MTBF mtbf.
func e18Tau(p int, mtbf simtime.Duration) simtime.Duration {
	sys := float64(mtbf.Seconds()) / float64(p)
	tau := simtime.FromSeconds(model.DalyInterval(e18Write.Seconds(), sys))
	if tau <= 0 {
		tau = e18Write * 2
	}
	return tau
}

// e18Runs are the simulations of one grid cell, in execution order.
type e18Runs struct {
	replBase, coord, uncoord, repl run.RunConfig
}

// e18Configs assembles the runs of grid cell pt under seed sd: the
// failure-free replication layout, coordinated checkpointing with global
// rollback, uncoordinated (staggered, logged) checkpointing with local
// replay, and replication with replica takeover. The checkpointing runs
// share one full-width program; the replication runs share a half-width
// program doing 2× the iterations, which run.Build widens back to P ranks.
func e18Configs(o Options, pt e18Point, sd uint64) (e18Runs, error) {
	iters := pick(o, 60, 30)
	spec := run.RunConfig{Workload: "stencil2d", Ranks: pt.ranks, Iterations: iters,
		Compute: ms(1), MsgBytes: 4096, Net: o.net(), Seed: sd, MaxTime: e18Cap}
	full, err := run.Generate(spec)
	if err != nil {
		return e18Runs{}, err
	}
	spec.Ranks, spec.Iterations = pt.ranks/2, 2*iters
	half, err := run.Generate(spec)
	if err != nil {
		return e18Runs{}, err
	}
	half.Protocol = run.ProtocolConfig{Kind: run.ProtoReplication}
	tau := e18Tau(pt.ranks, pt.mtbf)
	runs := e18Runs{replBase: half, coord: full, uncoord: full, repl: half}
	runs.coord.Protocol = run.ProtocolConfig{Kind: run.ProtoCoordinated, Interval: tau, Write: e18Write}
	runs.coord.Failures = &failure.Config{MTBF: pt.mtbf, Restart: e18Restart, Kind: failure.RollbackGlobal}
	runs.uncoord.Protocol = run.ProtocolConfig{Kind: run.ProtoUncoordinated, Interval: tau, Write: e18Write,
		Logging: checkpoint.LogParams{Alpha: 500 * simtime.Nanosecond, BetaNsPerByte: 0.1}}
	runs.uncoord.Failures = &failure.Config{MTBF: pt.mtbf, Restart: e18Restart, ReplaySpeedup: 2,
		Kind: failure.ReplayLocal}
	runs.repl.Failures = &failure.Config{MTBF: pt.mtbf, Restart: e18Restart, Kind: failure.TakeoverReplica}
	return runs, nil
}

// E18Replication maps the three-way protocol crossover on the
// (scale × per-node MTBF) grid: coordinated checkpointing with global
// rollback, uncoordinated (staggered, logged) with local replay, and
// replication. The replication run holds total resources and total work
// equal: the application runs on P/2 ranks for 2× the iterations, embedded
// in the same P-rank machine (goal.Widen), with the other half serving as
// replicas. Replication pays the halved machine and message duplication
// always; checkpointing pays rollback per failure — so checkpointing wins
// when failures are rare and replication wins once the MTBF-normalized
// scale P/θ makes rework dominate. Cells where a protocol never settles
// under the 60s time cap are reported as capped and lose to any settled
// run.
func E18Replication(o Options) ([]*report.Table, error) {
	cells, err := e18Grid(o)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("E18: replication crossover grid (stencil2d, δ=2ms, equal work and resources)",
		"P", "node-MTBF", "τ", "failures", "coord-makespan", "uncoord-makespan", "repl-makespan", "winner")
	for _, c := range cells {
		t.AddRow(c.ranks, c.mtbf.String(), c.tau.String(), c.failures,
			e18CellStr(c.coord, c.capC), e18CellStr(c.uncoord, c.capU),
			e18CellStr(c.repl, c.capR), c.winner)
	}
	t.AddNote("replication: P/2 app ranks × 2× iterations widened to P (degree 1); no rollback, heartbeat detection + takeover per failure")
	t.AddNote("same seed per cell: all three protocols see identical failure clocks")
	return []*report.Table{t}, nil
}

// e18Grid runs the sweep and returns the cells in grid order
// (scale-major, MTBF-minor).
func e18Grid(o Options) ([]e18Cell, error) {
	scales := pick(o, []int{16, 32, 64}, []int{8, 16})
	mtbfs := pick(o,
		[]simtime.Duration{100 * simtime.Millisecond, 400 * simtime.Millisecond,
			1600 * simtime.Millisecond, 6400 * simtime.Millisecond},
		[]simtime.Duration{100 * simtime.Millisecond, simtime.Second})

	var points []e18Point
	for _, p := range scales {
		for _, m := range mtbfs {
			points = append(points, e18Point{ranks: p, mtbf: m})
		}
	}

	cells, err := runner.MapCtx(o.ctx(), o.Jobs, points, func(i int, pt e18Point) (e18Cell, error) {
		runs, err := e18Configs(o, pt, pointSeed(o, "E18", i))
		if err != nil {
			return e18Cell{}, err
		}
		simulateCapped := func(c run.RunConfig) (simtime.Time, bool, *run.Built, error) {
			r, b, err := runPoint(o, c)
			if errors.Is(err, sim.ErrCapExceeded) {
				return e18Cap, true, b, nil
			}
			if err != nil {
				return 0, false, nil, err
			}
			return r.Makespan, false, b, nil
		}

		cell := e18Cell{ranks: pt.ranks, mtbf: pt.mtbf, tau: e18Tau(pt.ranks, pt.mtbf)}
		// Failure-free replication layout: the duplication and heartbeat
		// overhead alone. Every replication run with failures must finish at
		// or above this floor (oracle bound for the tests).
		if cell.replBase, _, _, err = simulateCapped(runs.replBase); err != nil {
			return e18Cell{}, err
		}
		var coord *run.Built
		if cell.coord, cell.capC, coord, err = simulateCapped(runs.coord); err != nil {
			return e18Cell{}, err
		}
		cell.failures = len(coord.Failures.Events())
		if cell.uncoord, cell.capU, _, err = simulateCapped(runs.uncoord); err != nil {
			return e18Cell{}, err
		}
		if cell.repl, cell.capR, _, err = simulateCapped(runs.repl); err != nil {
			return e18Cell{}, err
		}
		cell.winner = e18Winner(cell)
		return cell, nil
	})
	if err != nil {
		return nil, errf("E18", err)
	}
	return cells, nil
}

// e18Winner names the protocol with the smallest settled makespan; capped
// runs lose to any settled run.
func e18Winner(c e18Cell) string {
	type cand struct {
		name   string
		mk     simtime.Time
		capped bool
	}
	cands := []cand{
		{"coordinated", c.coord, c.capC},
		{"uncoordinated", c.uncoord, c.capU},
		{"replication", c.repl, c.capR},
	}
	best := -1
	for i, cd := range cands {
		if cd.capped {
			continue
		}
		if best < 0 || cd.mk < cands[best].mk {
			best = i
		}
	}
	if best < 0 {
		return "none (all capped)"
	}
	return cands[best].name
}

// e18CellStr renders one makespan cell, marking diverged runs.
func e18CellStr(mk simtime.Time, capped bool) string {
	if capped {
		return ">" + simtime.Duration(e18Cap).String() + " (capped)"
	}
	return simtime.Duration(mk).String()
}
