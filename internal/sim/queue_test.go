package sim

// Tests for the engine's CPU queues: the fifo's capacity bound, the job
// and seize-entry sizes, and a differential test of seizeQueue against a
// plain fifo[job] holding the same jobs.

import (
	"bytes"
	"testing"
	"unsafe"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// Every queued and running job pays for these sizes, and a failure storm
// queues one seizure entry per rank per rollback.
func TestQueueEntrySizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(job{}); got != 56 {
		t.Errorf("sizeof(job) = %d, want 56: keep the sub-8-byte fields together at the front", got)
	}
	if got := unsafe.Sizeof(seizeEntry{}); got != 16 {
		t.Errorf("sizeof(seizeEntry) = %d, want 16", got)
	}
}

// A queue that never fully empties must not grow with the number of
// pushes. The array grows only when more than half of it is live, so it
// never grows past twice a length below 2k: cap ≤ 4k. Before compaction
// the array was reclaimed only on empty, and this walk, which keeps at
// least one item queued, grew it to about half the pushes.
func TestFifoCapacityFollowsLiveDepth(t *testing.T) {
	const (
		k   = 100
		ops = 100_000
	)
	r := rng.New(7)
	var f fifo[int]
	next, want := 0, 0
	f.push(next)
	next++
	for i := 0; i < ops; i++ {
		live := f.len()
		if live < k && (live == 1 || r.Intn(2) == 0) {
			f.push(next)
			next++
		} else {
			if got := f.pop(); got != want {
				t.Fatalf("op %d: popped %d, want %d", i, got, want)
			}
			want++
		}
		if c := cap(f.items); c > 4*k {
			t.Fatalf("op %d: cap %d exceeds 4k = %d at live depth %d after %d pushes",
				i, c, 4*k, f.len(), next)
		}
	}
	// Popped slots must not pin values (for fifo[job], closures and
	// messages): everything outside items[head:] is zero.
	for i, v := range f.items[:f.head] {
		if v != 0 {
			t.Fatalf("popped slot %d still holds %d", i, v)
		}
	}
	for i, v := range f.items[len(f.items):cap(f.items)] {
		if v != 0 {
			t.Fatalf("spare slot %d still holds %d", len(f.items)+i, v)
		}
	}
}

// queueTestEngine builds an engine whose program and reason table are
// large enough for decodeJob to accept the jobs randomJob produces.
func queueTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{Net: network.DefaultParams(), Program: ring(4, 2, 64, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"recovery", "ckpt-write", "io-wait"} {
		e.internReason(r)
	}
	return e
}

// randomJob draws a job of the kinds that reach a seize queue: mostly
// plain seizures, and non-plain ones that must take the side FIFO.
// closures adds done callbacks and open-ended seizures; without it every
// job is serializable. Each closure records its own id in *called, so
// comparing what two popped jobs' closures record compares their identity.
func randomJob(r *rng.Source, e *Engine, closures bool, id int, called *int) job {
	nr := len(e.reasons)
	cost := simtime.Duration(r.Intn(5000))
	reason := reasonID(r.Intn(nr))
	choices := 5
	if closures {
		choices = 7
	}
	switch r.Intn(choices) {
	case 0, 1, 2: // plain
		return job{kind: jobSeize, cost: cost, reason: reason}
	case 3: // seizure that differs from a plain one only in op
		return job{kind: jobSeize, cost: cost, reason: reason,
			op: goal.OpID(1 + r.Intn(len(e.prog.Ops)-1))}
	case 4: // non-seizure job carrying a message
		m := &message{kind: msgCtl, src: 0, dst: 1, bytes: int64(r.Intn(100)), wire: 8}
		return job{kind: jobCtlSend, cost: cost, msg: m, op: goal.NoOp}
	case 5: // checkpoint write with a done callback
		return job{kind: jobSeize, cost: cost, reason: reason,
			fn: func(simtime.Time) { *called = id }}
	default: // open-ended storage seizure
		return job{kind: jobSeizeOpen, nominal: cost, reason: reason,
			waitReason: reasonID(r.Intn(nr)),
			granted:    func(simtime.Time, func()) { *called = id },
			fn:         func(simtime.Time) { *called = -id }}
	}
}

// sameJob reports whether a and b are the same job: equal scalar fields,
// the same message pointer, and closures that record the same id.
func sameJob(a, b job, called *int) bool {
	if a.kind != b.kind || a.op != b.op || a.reason != b.reason || a.waitReason != b.waitReason ||
		a.cost != b.cost || a.nominal != b.nominal || a.msg != b.msg ||
		(a.fn == nil) != (b.fn == nil) || (a.granted == nil) != (b.granted == nil) {
		return false
	}
	if a.fn != nil {
		a.fn(0)
		ida := *called
		b.fn(0)
		if *called != ida {
			return false
		}
	}
	if a.granted != nil {
		a.granted(0, nil)
		ida := *called
		b.granted(0, nil)
		if *called != ida {
			return false
		}
	}
	return true
}

// TestSeizeQueueMatchesFifo drives a seizeQueue and a plain fifo[job]
// through the same random pushes and pops, with and without closures,
// and requires identical pop sequences. Without closures it also
// requires, at every step, the byte-identical snapshot encoding, and that
// decoding the bytes and re-encoding reproduces them.
func TestSeizeQueueMatchesFifo(t *testing.T) {
	e := queueTestEngine(t)
	for _, closures := range []bool{true, false} {
		r := rng.New(11)
		var q seizeQueue
		var ref fifo[job]
		var called int
		steps := 20_000
		if !closures {
			steps = 2_000 // encodes the whole queue every step
		}
		for i := 0; i < steps; i++ {
			if ref.empty() || r.Intn(5) < 3 {
				j := randomJob(r, e, closures, i+1, &called)
				q.push(j)
				ref.push(j)
			} else if a, b := q.pop(), ref.pop(); !sameJob(a, b, &called) {
				t.Fatalf("closures=%v step %d: popped %+v, want %+v", closures, i, a, b)
			}
			if q.len() != ref.len() || q.empty() != ref.empty() {
				t.Fatalf("closures=%v step %d: len %d, want %d", closures, i, q.len(), ref.len())
			}
			if !closures {
				checkSeizeQueueBytes(t, e, &q, &ref)
			}
		}
		for !ref.empty() {
			if a, b := q.pop(), ref.pop(); !sameJob(a, b, &called) {
				t.Fatalf("closures=%v drain: popped %+v, want %+v", closures, a, b)
			}
		}
		if !q.empty() {
			t.Fatalf("closures=%v: seizeQueue holds %d jobs after the reference drained", closures, q.len())
		}
	}
}

// checkSeizeQueueBytes compares the snapshot encoding of an idle rank
// whose seize queue is q against the same rank written with ref in the
// queue's place, field by field as encodeRank lays it out, then decodes
// those bytes and requires the re-encoding to match.
func checkSeizeQueueBytes(t *testing.T, e *Engine, q *seizeQueue, ref *fifo[job]) {
	t.Helper()
	var want snapshot.Encoder
	want.Bool(false) // running
	e.encodeFifo(&want, ref)
	want.Int(0)      // ctlQ
	want.Int(0)      // appQ
	want.Dur(0)      // scaledExtra
	want.Time(0)     // nicFreeAt
	want.Int(0)      // posted
	want.Int(0)      // unexpected
	want.Bool(false) // lastArrival
	want.Time(0)     // finish
	want.Dur(0)      // busy
	want.Dur(0)      // ctlBusy
	want.Dur(0)      // seizedBusy

	var got snapshot.Encoder
	e.encodeRank(&got, &rankState{seizeQ: *q})
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("encodeRank bytes differ from the fifo[job] encoding (%d vs %d bytes)",
			len(got.Bytes()), len(want.Bytes()))
	}

	dec := snapshot.NewDecoder(want.Bytes())
	var st rankState
	e.decodeRank(dec, &st)
	if err := dec.Finish(); err != nil {
		t.Fatalf("decodeRank: %v", err)
	}
	var again snapshot.Encoder
	e.encodeRank(&again, &st)
	if !bytes.Equal(again.Bytes(), want.Bytes()) {
		t.Fatal("decode→encode of a rank did not reproduce its bytes")
	}
}
