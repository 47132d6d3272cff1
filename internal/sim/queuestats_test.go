package sim

import (
	"testing"

	"checkpointsim/internal/eventq"
	"checkpointsim/internal/network"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/workload"
)

// TestQueueStatsPinned pins the event queue's work counters on a small
// seeded CG run, so a change to the calendar layout shows up as a diff
// here rather than only as a profile shift.
func TestQueueStatsPinned(t *testing.T) {
	prog, err := workload.FromName("cg", workload.CommonConfig{Base: workload.Base{
		Ranks: 64, Iterations: 4, Compute: simtime.Millisecond, Jitter: 0.05, Seed: 9}, Bytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Net: network.DefaultParams(), Program: prog, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := eventq.Stats{Rebuilds: 5, OccupancyRebuilds: 2, TailMerges: 2039, RefsSorted: 6294, RefsMoved: 17846, PeakBucket: 65}
	if got := eng.QueueStats(); got != want {
		t.Errorf("%d events: QueueStats() = %+v, want %+v", res.Events, got, want)
	}
}
