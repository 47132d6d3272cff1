package eventq

import (
	"sort"
	"testing"
	"testing/quick"

	"checkpointsim/internal/rng"
	"checkpointsim/internal/simtime"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue[int]
	if q.Len() != 0 {
		t.Error("new queue not empty")
	}
	if _, _, ok := q.Peek(); ok {
		t.Error("Peek on empty returned ok")
	}
	if q.PeekTime() != simtime.Infinity {
		t.Error("PeekTime on empty != Infinity")
	}
}

func TestPopPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty did not panic")
		}
	}()
	var q Queue[int]
	q.Pop()
}

func TestOrderingByTime(t *testing.T) {
	var q Queue[string]
	q.Push(30, "c")
	q.Push(10, "a")
	q.Push(20, "b")
	for _, want := range []string{"a", "b", "c"} {
		if _, v := q.Pop(); v != want {
			t.Errorf("pop = %q, want %q", v, want)
		}
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(5, i)
	}
	for i := 0; i < 100; i++ {
		_, v := q.Pop()
		if v != i {
			t.Fatalf("same-time events out of insertion order: got %d want %d", v, i)
		}
	}
}

func TestPriorityBeforeSequence(t *testing.T) {
	var q Queue[string]
	q.PushPrio(5, 1, "low-prio-first-inserted")
	q.PushPrio(5, 0, "high-prio")
	if _, v := q.Pop(); v != "high-prio" {
		t.Errorf("priority not respected: got %q", v)
	}
	_, v := q.Pop()
	if v != "low-prio-first-inserted" {
		t.Errorf("second pop = %q", v)
	}
}

func TestPeek(t *testing.T) {
	var q Queue[int]
	q.Push(7, 42)
	tm, v, ok := q.Peek()
	if !ok || tm != 7 || v != 42 {
		t.Errorf("Peek = %v %v %v", tm, v, ok)
	}
	if q.Len() != 1 {
		t.Error("Peek removed the event")
	}
	if q.PeekTime() != 7 {
		t.Error("PeekTime wrong")
	}
}

func TestClear(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(simtime.Time(i), i)
	}
	q.Clear()
	if q.Len() != 0 {
		t.Error("Clear did not empty")
	}
	// Still usable and still ordered after Clear (sequence keeps rising).
	q.Push(2, 2)
	q.Push(1, 1)
	if _, v := q.Pop(); v != 1 {
		t.Error("queue broken after Clear")
	}
}

func TestHeapSortsRandomInput(t *testing.T) {
	r := rng.New(42)
	var q Queue[int]
	n := 5000
	times := make([]int64, n)
	for i := 0; i < n; i++ {
		tm := int64(r.Intn(1000))
		times[i] = tm
		q.Push(simtime.Time(tm), i)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	prev := simtime.Time(-1)
	for i := 0; i < n; i++ {
		tm, _ := q.Pop()
		if tm < prev {
			t.Fatalf("pop %d out of order: %d after %d", i, tm, prev)
		}
		if int64(tm) != times[i] {
			t.Fatalf("pop %d time %d, want %d", i, tm, times[i])
		}
		prev = tm
	}
}

func TestInterleavedPushPop(t *testing.T) {
	r := rng.New(7)
	var q Queue[int64]
	var popped []int64
	now := simtime.Time(0)
	for i := 0; i < 10000; i++ {
		if q.Len() == 0 || r.Float64() < 0.6 {
			// schedule in the future relative to last popped time
			q.Push(now+simtime.Time(r.Intn(100)), int64(i))
		} else {
			tm, _ := q.Pop()
			if tm < now {
				t.Fatalf("time went backwards: %d < %d", tm, now)
			}
			now = tm
			popped = append(popped, int64(tm))
		}
	}
	for i := 1; i < len(popped); i++ {
		if popped[i] < popped[i-1] {
			t.Fatal("popped sequence not monotone")
		}
	}
}

// Property: for any set of times, popping yields them in sorted order.
func TestQuickSortsAnything(t *testing.T) {
	f := func(ts []uint16) bool {
		var q Queue[int]
		for i, v := range ts {
			q.Push(simtime.Time(v), i)
		}
		want := append([]uint16(nil), ts...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			tm, _ := q.Pop()
			if tm != simtime.Time(want[i]) {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: determinism — identical operation sequences produce identical
// pop sequences.
func TestQuickDeterministic(t *testing.T) {
	f := func(seed uint32) bool {
		run := func() []int {
			r := rng.New(uint64(seed))
			var q Queue[int]
			var out []int
			for i := 0; i < 200; i++ {
				if q.Len() == 0 || r.Float64() < 0.5 {
					q.Push(simtime.Time(r.Intn(50)), i)
				} else {
					_, v := q.Pop()
					out = append(out, v)
				}
			}
			for q.Len() > 0 {
				_, v := q.Pop()
				out = append(out, v)
			}
			return out
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// pushPopStep primes q with 1024 events spread over 2^20 ns and returns
// BenchmarkPushPop's step: pop the earliest event and push it back up to
// 1024 ns later.
func pushPopStep(q *Queue[int]) func() {
	r := rng.New(1)
	for i := 0; i < 1024; i++ {
		q.Push(simtime.Time(r.Intn(1<<20)), i)
	}
	return func() {
		tm, v := q.Pop()
		q.Push(tm+simtime.Time(r.Intn(1024)), v)
	}
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue[int]
	step := pushPopStep(&q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// cgPushGaps are the gaps between a popped event and the push it causes in
// the cg P=1024 run of perfbench's paper-scale pass, with how many of the
// run's 1.09M pushes used each, as an instrumented queue recorded them. Gap
// 0 is a push at the popped instant; -1 stands for a rank's compute phase,
// 1 ms ± 5%. The run's other 0.9% of pushes, 500 µs to 8 ms ahead, are
// checkpoint writes and timers, which paperScaleStep models apart.
var cgPushGaps = []struct {
	gap   simtime.Time
	count int
}{
	{0, 258048}, {2000, 245760}, {2501, 245760}, {5002, 245760},
	{2082, 24576}, {2992, 23552}, {6229, 12660}, {7466, 11916}, {-1, 12288},
}

// paperScaleStep primes q the way the cg P=1024 run primes its queue and
// returns BenchmarkPushPopPaperScale's step, a schedule fitted to that run's
// queue traffic. 1024 checkpoint timers staggered over 5–10 ms, then 1024
// ranks at one instant, prime it, so the growth rebuilds derive the run's
// bucket width. Each step pops one event and pushes its successor: a timer
// alternates a 500 µs gap (the checkpoint write) and a 4.5 ms one; a rank
// draws its gap from cgPushGaps, weighted by count. The population stays at
// 2048, where the run's held 1024–4095.
//
// Fit over 1.09M pops: re-sorting a whole bucket after each out-of-order
// push, as the queue did before tail merges, the run made 61.3k sorts of
// 128–2047 events (21.3 events sorted per pop) and this schedule 84.8k
// sorts of 128–1023 (26.0 per pop), both at a stale 2^17 ns width. With
// tail merges the run sorts or moves 1.86 events per pop and makes 26
// occupancy rebuilds, this schedule 2.50 and 10. Its ranks draw gaps
// independently, where the run's collectives keep them in step, so more of
// its pushes land out of order.
func paperScaleStep(q *Queue[int]) func() {
	const ranks = 1024
	r := rng.New(1)
	total := 0
	for _, g := range cgPushGaps {
		total += g.count
	}
	for i := 0; i < ranks; i++ {
		q.Push(5_000_000+simtime.Time(i*5_000_000/ranks), ranks+i)
	}
	for i := 0; i < ranks; i++ {
		q.Push(2992, i)
	}
	writing := make([]bool, ranks) // timer v-ranks is in its checkpoint write
	return func() {
		tm, v := q.Pop()
		if v >= ranks {
			w := &writing[v-ranks]
			if *w = !*w; *w {
				q.Push(tm+500_000, v)
			} else {
				q.Push(tm+4_500_000, v)
			}
			return
		}
		x := r.Intn(total)
		for _, g := range cgPushGaps {
			if x -= g.count; x < 0 {
				if g.gap < 0 {
					g.gap = simtime.Time(950_000 + r.Intn(100_001))
				}
				q.Push(tm+g.gap, v)
				return
			}
		}
	}
}

// BenchmarkPushPopPaperScale runs paperScaleStep's schedule, the cg P=1024
// paper-scale run's queue traffic.
func BenchmarkPushPopPaperScale(b *testing.B) {
	var q Queue[int]
	step := paperScaleStep(&q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestPushPopWorkPerPop bounds the bucket upkeep of both benchmark
// schedules: events sorted plus events moved by tail merges stay within a
// small constant per pop. Both leave the bucket width stale, so only the
// occupancy halvings keep the merges short: BenchmarkPushPop's successors
// bunch within 1 µs of the cursor while the population stays at 1024, and
// the paper-scale schedule starts from the cg run's 2^17 ns width, with
// hundreds of events in the cursor bucket.
func TestPushPopWorkPerPop(t *testing.T) {
	for _, tc := range []struct {
		name string
		step func(*Queue[int]) func()
	}{
		{"PushPop", pushPopStep},
		{"PushPopPaperScale", paperScaleStep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const pops = 1 << 20 // about the cg run's 1.09M
			var q Queue[int]
			step := tc.step(&q)
			for i := 0; i < pops; i++ {
				step()
			}
			st := q.Stats()
			t.Logf("%+v, %.2f sorted or moved per pop", st, float64(st.RefsSorted+st.RefsMoved)/pops)
			if st.OccupancyRebuilds == 0 || st.PeakBucket <= maxOccupancy {
				t.Errorf("the schedule never overfilled a bucket: %+v", st)
			}
			if per := float64(st.RefsSorted+st.RefsMoved) / pops; per > 3 {
				t.Errorf("%.2f events sorted or moved per pop, want ≤ 3", per)
			}
		})
	}
}

// TestStatsPinned pins every counter on a small seeded schedule that takes
// each path: growth rebuilds while 300 events spread over 1.2 ms, then
// successors bunched into 4 µs, so tails merge and the stale width is
// halved by occupancy rebuilds.
func TestStatsPinned(t *testing.T) {
	r := rng.New(3)
	var q Queue[int]
	for i := 0; i < 300; i++ {
		q.PushPrio(simtime.Time(r.Intn(300<<12)), r.Intn(3), i)
	}
	far := simtime.Time(400 << 12)
	for i := 0; i < 4*minHalvingPops; i++ {
		tm, v := q.Pop()
		if tm < far {
			tm = far
		}
		q.PushPrio(tm+simtime.Time(r.Intn(1<<12)), r.Intn(3), v)
	}
	want := Stats{Rebuilds: 6, OccupancyRebuilds: 3, TailMerges: 3226, RefsSorted: 8979, RefsMoved: 297684, PeakBucket: 300}
	if got := q.Stats(); got != want {
		t.Errorf("Stats() = %+v, want %+v", got, want)
	}
}

// TestOccupancyGuard drives front's width halving directly: an overfull
// cursor bucket is halved once the pop floor has passed, never before it,
// and never when its first maxOccupancy+1 events share one instant, which
// no width can split.
func TestOccupancyGuard(t *testing.T) {
	for _, tc := range []struct {
		name     string
		instants int
		pops     int
		halvings int64
	}{
		{"two-instants", 2, minHalvingPops, 1},
		{"before-floor", 2, minHalvingPops - 1, 0},
		{"one-instant", 1, minHalvingPops, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q Queue[int]
			for i := 0; i < 100; i++ { // one bucket: 100 < the first growth rebuild
				q.Push(simtime.Time(1000+i%tc.instants), i)
			}
			q.pops = tc.pops
			shift := q.shift
			q.Peek()
			if got := q.Stats().OccupancyRebuilds; got != tc.halvings || q.shift != shift-uint(tc.halvings) {
				t.Fatalf("%d occupancy rebuilds, shift %d → %d; want %d halvings", got, shift, q.shift, tc.halvings)
			}
			for i := 0; q.Len() > 0; i++ {
				if tm, v := q.Pop(); tm != simtime.Time(1000+i/(100/tc.instants)) || v%tc.instants != int(tm-1000) {
					t.Fatalf("pop %d = (%d, %d)", i, tm, v)
				}
			}
		})
	}
}

// TestItemsLoadRoundTrip drives the snapshot-support API: dumping a queue
// via Items and rebuilding it with Load/SetSeq into a fresh queue must
// reproduce the exact pop sequence — (time, priority, insertion order) all
// preserved — and leave the sequence counter positioned so future pushes
// sort after every restored event.
func TestItemsLoadRoundTrip(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		var q Queue[int]
		n := r.Intn(64) + 1
		for i := 0; i < n; i++ {
			// Tight time/prio ranges force plenty of ties, so the sequence
			// component actually decides order.
			q.PushPrio(simtime.Time(r.Intn(8)), r.Intn(3), i)
		}
		// Pop a few to move the heap away from pure insertion shape.
		for i := 0; i < n/3; i++ {
			q.Pop()
		}

		var restored Queue[int]
		restored.Push(999, -1) // pre-existing content must not survive Clear
		restored.Clear()
		if restored.Len() != 0 {
			t.Fatal("Clear left items behind")
		}
		count := 0
		q.Items(func(tm simtime.Time, prio int, seq uint64, v int) bool {
			restored.Load(tm, prio, seq, v)
			count++
			return true
		})
		if count != q.Len() {
			t.Fatalf("Items visited %d of %d items", count, q.Len())
		}
		restored.SetSeq(q.Seq())
		if restored.Seq() != q.Seq() {
			t.Fatalf("SetSeq(%d) reads back %d", q.Seq(), restored.Seq())
		}

		// Both queues now pop identically, including after interleaved
		// fresh pushes (which must order consistently after restored ties).
		for step := 0; q.Len() > 0 || restored.Len() > 0; step++ {
			if q.Len() != restored.Len() {
				t.Fatalf("length diverged: %d vs %d", q.Len(), restored.Len())
			}
			if step == 2 {
				q.PushPrio(0, 1, 777)
				restored.PushPrio(0, 1, 777)
			}
			t1, v1 := q.Pop()
			t2, v2 := restored.Pop()
			if t1 != t2 || v1 != v2 {
				t.Fatalf("pop %d diverged: (%v,%v) vs (%v,%v)", step, t1, v1, t2, v2)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestItemsEarlyStop: a visitor returning false stops the walk.
func TestItemsEarlyStop(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(simtime.Time(i), i)
	}
	visits := 0
	q.Items(func(simtime.Time, int, uint64, int) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Errorf("visited %d items after stopping at 3", visits)
	}
	if q.Len() != 10 {
		t.Errorf("Items disturbed the queue: %d items left", q.Len())
	}
}
