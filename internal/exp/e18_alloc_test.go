package exp

import (
	"errors"
	"testing"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
)

// e18StormBytesCeiling bounds the bytes one capped E18 storm cell
// allocates. On go1.24 linux/amd64 it measured 177.2 MB/op once the seize
// FIFOs compacted on growth and stored plain seizures as 16-byte entries,
// against 1015.9 MB/op before; nearly all of what is left is the rollback
// backlog itself. The ceiling is 1.5× the post-change value. Allocation
// is deterministic (the race detector measures the same), so a breach is
// a code change, not host noise.
const e18StormBytesCeiling = 265_800_000

// TestE18StormAllocatedBytes guards the seize backlog's memory: one
// coordinated, global-rollback cell at P=64 and 100 ms node MTBF, with
// E18's quick iteration count, queues rollbacks faster than they drain
// and runs into the 60 s cap. cmd/bench gates only ns/op, allocs/op and
// events/s, and allocs/op barely moves when a FIFO keeps its drained
// slots, so bytes need their own gate.
func TestE18StormAllocatedBytes(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	runs, err := e18Configs(o, e18Point{ranks: 64, mtbf: 100 * simtime.Millisecond},
		pointSeed(o, "E18", 0))
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N && runErr == nil; i++ {
			_, _, err := runPoint(o, runs.coord)
			if !errors.Is(err, sim.ErrCapExceeded) {
				runErr = errors.Join(errors.New("storm cell did not hit the cap"), err)
			}
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got := r.AllocedBytesPerOp(); got > e18StormBytesCeiling {
		t.Errorf("storm cell allocates %d B/op, ceiling %d (%d runs)", got, e18StormBytesCeiling, r.N)
	}
	t.Logf("%d B/op, %d allocs/op over %d runs", r.AllocedBytesPerOp(), r.AllocsPerOp(), r.N)
}
