package run

import (
	"testing"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
)

// TestQueueWorkPerEvent bounds the event queue's bucket upkeep on a CG run
// at P=256 under staggered uncoordinated checkpointing with logging, the
// cg half of perfbench's paper-scale at a quarter of its ranks: events
// sorted plus events moved by tail merges stay within a small constant per
// popped event. Re-sorting whole buckets on every out-of-order push cost
// about 21 per event on the P=1024 run.
func TestQueueWorkPerEvent(t *testing.T) {
	b, err := Build(RunConfig{Workload: "cg", Ranks: 256, Iterations: 12,
		Compute: simtime.Millisecond, Jitter: 0.05, Seed: 2, MsgBytes: 4096,
		Protocol: ProtocolConfig{Kind: ProtoUncoordinated,
			Interval: 5 * simtime.Millisecond, Write: 500 * simtime.Microsecond,
			Logging: checkpoint.LogParams{Alpha: 500 * simtime.Nanosecond, BetaNsPerByte: 0.1}}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(b.Sim)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := eng.QueueStats()
	per := float64(st.RefsSorted+st.RefsMoved) / float64(res.Events)
	t.Logf("%d events: %+v, %.2f sorted or moved per event", res.Events, st, per)
	if per > 4 {
		t.Errorf("%.2f events sorted or moved per popped event, want ≤ 4", per)
	}
}
