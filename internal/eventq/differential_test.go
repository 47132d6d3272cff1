package eventq

import (
	"container/heap"
	"slices"
	"testing"
	"testing/quick"

	"checkpointsim/internal/rng"
	"checkpointsim/internal/simtime"
)

// refEvent / refHeap are a straightforward binary heap on the full
// (t, prio, seq) key — the data structure the calendar queue replaced. The
// differential tests below drive both implementations through identical
// operation sequences and demand identical results, so any divergence in
// the calendar queue's tiering (buckets, overflow, lane, rebuilds) from the
// documented total order shows up as a concrete counterexample.
type refEvent struct {
	t    simtime.Time
	prio int
	seq  uint64
	v    int
}

type refHeap struct {
	evs []refEvent
	seq uint64
}

func (h *refHeap) Len() int { return len(h.evs) }
func (h *refHeap) Less(i, j int) bool {
	a, b := h.evs[i], h.evs[j]
	if a.t != b.t {
		return a.t < b.t
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}
func (h *refHeap) Swap(i, j int)      { h.evs[i], h.evs[j] = h.evs[j], h.evs[i] }
func (h *refHeap) Push(x interface{}) { h.evs = append(h.evs, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := h.evs
	n := len(old)
	ev := old[n-1]
	h.evs = old[:n-1]
	return ev
}

func (h *refHeap) push(t simtime.Time, prio, v int) {
	heap.Push(h, refEvent{t: t, prio: prio, seq: h.seq, v: v})
	h.seq++
}

func (h *refHeap) pop() (simtime.Time, int) {
	ev := heap.Pop(h).(refEvent)
	return ev.t, ev.v
}

// schedule generators covering the regimes the calendar queue tiers events
// into: each returns the next (t, prio) to push given the current pop time.
var schedules = []struct {
	name string
	next func(r *rng.Source, now simtime.Time) (simtime.Time, int)
}{
	// Near-monotonic with small gaps: the common LogGOPS case, events land
	// at or just ahead of the cursor.
	{"near-monotonic", func(r *rng.Source, now simtime.Time) (simtime.Time, int) {
		return now + simtime.Time(r.Intn(1000)), r.Intn(3)
	}},
	// Same-timestamp clusters: exercises the lane and same-t tie ordering.
	{"same-time-clusters", func(r *rng.Source, now simtime.Time) (simtime.Time, int) {
		if r.Intn(4) > 0 {
			return now, r.Intn(3)
		}
		return now + simtime.Time(r.Intn(16)+1), r.Intn(3)
	}},
	// Bimodal near/far: failure-clock-style far-future pushes force events
	// through the overflow heap and its migrations.
	{"far-future-mix", func(r *rng.Source, now simtime.Time) (simtime.Time, int) {
		if r.Intn(8) == 0 {
			return now + simtime.Time(1+r.Intn(1<<40)), r.Intn(3)
		}
		return now + simtime.Time(r.Intn(200)), r.Intn(3)
	}},
	// Wide uniform spread: buckets fill out of order, forcing lazy sorts
	// and unsorted-fallback appends.
	{"uniform-wide", func(r *rng.Source, now simtime.Time) (simtime.Time, int) {
		return now + simtime.Time(r.Intn(1<<20)), r.Intn(5)
	}},
	// Extreme timestamps: vbClamp territory, including simtime.Infinity
	// sentinels collapsing into a single virtual bucket.
	{"extreme-times", func(r *rng.Source, now simtime.Time) (simtime.Time, int) {
		switch r.Intn(4) {
		case 0:
			return simtime.Infinity, r.Intn(3)
		case 1:
			return simtime.Infinity - simtime.Time(r.Intn(4)), r.Intn(3)
		default:
			return now + simtime.Time(r.Intn(100)), r.Intn(3)
		}
	}},
}

// TestDifferentialSchedules drives the calendar queue and the reference
// heap through identical interleaved push/pop sequences across every
// schedule shape and demands identical (time, value) pop streams — which
// pins the full (t, prio, seq) order, since values are unique.
func TestDifferentialSchedules(t *testing.T) {
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			for seed := uint64(0); seed < 8; seed++ {
				r := rng.New(seed*7919 + 17)
				var q Queue[int]
				var h refHeap
				now := simtime.Time(0)
				for i := 0; i < 4000; i++ {
					if q.Len() != h.Len() {
						t.Fatalf("seed %d step %d: Len %d vs %d", seed, i, q.Len(), h.Len())
					}
					// Bursts of pushes grow the population past rebuild
					// thresholds; drain phases shrink it back.
					if q.Len() == 0 || r.Intn(100) < 55 {
						tm, prio := sc.next(r, now)
						q.PushPrio(tm, prio, i)
						h.push(tm, prio, i)
					} else {
						t1, v1 := q.Pop()
						t2, v2 := h.pop()
						if t1 != t2 || v1 != v2 {
							t.Fatalf("seed %d step %d: pop (%d,%d) vs (%d,%d)",
								seed, i, t1, v1, t2, v2)
						}
						now = t1
					}
					if pt := q.PeekTime(); q.Len() > 0 && pt != h.evs[0].t {
						t.Fatalf("seed %d step %d: PeekTime %d vs %d", seed, i, pt, h.evs[0].t)
					}
				}
				for q.Len() > 0 {
					t1, v1 := q.Pop()
					t2, v2 := h.pop()
					if t1 != t2 || v1 != v2 {
						t.Fatalf("seed %d drain: pop (%d,%d) vs (%d,%d)", seed, t1, v1, t2, v2)
					}
				}
				if h.Len() != 0 {
					t.Fatalf("seed %d: reference has %d leftover events", seed, h.Len())
				}
			}
		})
	}
}

// TestDifferentialAdversarial hits the hand-picked worst cases for a
// calendar queue: strictly descending times (every push lands behind the
// cursor), sawtooth bursts (alternating growth and drain across rebuild
// thresholds), and a thin window with a dense far cluster (mass migration
// out of the overflow heap).
func TestDifferentialAdversarial(t *testing.T) {
	run := func(t *testing.T, ops func(push func(simtime.Time, int), pop func())) {
		diffRun(t, func(q *Queue[int], push func(simtime.Time, int), pop func()) { ops(push, pop) })
	}
	t.Run("descending", func(t *testing.T) {
		run(t, func(push func(simtime.Time, int), pop func()) {
			for i := 0; i < 3000; i++ {
				push(simtime.Time(3000-i)*1000, i%3)
			}
		})
	})
	t.Run("descending-interleaved", func(t *testing.T) {
		// Pops anchor the cursor high, then later pushes land ever further
		// behind it — each triggers the pre-window rebuild path.
		run(t, func(push func(simtime.Time, int), pop func()) {
			push(1<<30, 0)
			pop()
			for i := 0; i < 500; i++ {
				base := simtime.Time(1<<30) + simtime.Time((500-i)*100000)
				push(base, 0)
				push(base+1, 1)
				if i%3 == 0 {
					pop()
				}
			}
		})
	})
	t.Run("sawtooth", func(t *testing.T) {
		run(t, func(push func(simtime.Time, int), pop func()) {
			tm := simtime.Time(0)
			for cycle := 0; cycle < 6; cycle++ {
				for i := 0; i < 400*(cycle+1); i++ {
					tm += simtime.Time(i % 7)
					push(tm, i%2)
				}
				for i := 0; i < 350*(cycle+1); i++ {
					pop()
				}
			}
		})
	})
	t.Run("thin-window-dense-cluster", func(t *testing.T) {
		run(t, func(push func(simtime.Time, int), pop func()) {
			// A sparse head spreads the window wide, then a dense far
			// cluster piles into overflow and migrates en masse.
			for i := 0; i < 64; i++ {
				push(simtime.Time(i)<<30, 0)
			}
			far := simtime.Time(1) << 50
			for i := 0; i < 2000; i++ {
				push(far+simtime.Time(i%17), i%3)
			}
			for i := 0; i < 64; i++ {
				pop()
			}
		})
	})
}

// diffRun drives a calendar queue and the reference heap through the
// operations ops issues, demands identical pops, drains both, and returns
// the calendar queue so callers can check which of its paths ran. ops also
// gets the queue itself, to inspect its layout between operations.
func diffRun(t *testing.T, ops func(q *Queue[int], push func(simtime.Time, int), pop func())) *Queue[int] {
	t.Helper()
	var q Queue[int]
	var h refHeap
	n := 0
	push := func(tm simtime.Time, prio int) {
		q.PushPrio(tm, prio, n)
		h.push(tm, prio, n)
		n++
	}
	pop := func() {
		if q.Len() == 0 {
			return
		}
		t1, v1 := q.Pop()
		t2, v2 := h.pop()
		if t1 != t2 || v1 != v2 {
			t.Fatalf("pop (%d,%d) vs (%d,%d)", t1, v1, t2, v2)
		}
	}
	ops(&q, push, pop)
	for q.Len() > 0 {
		pop()
	}
	if h.Len() != 0 {
		t.Fatalf("reference has %d leftover events", h.Len())
	}
	return &q
}

// tailPending reports whether some bucket holds out-of-order appends not
// yet merged into its sorted prefix.
func tailPending(q *Queue[int]) bool {
	for i := range q.buckets {
		if b := &q.buckets[i]; b.sortedTo < len(b.items) {
			return true
		}
	}
	return false
}

// TestDifferentialBucketPaths aims the differential check at the bucket
// layout — sorted prefix, unsorted tail, before-head inserts into the
// consumed prefix, occupancy rebuilds — and asserts from the queue's
// counters and layout that each schedule really took the path it names.
func TestDifferentialBucketPaths(t *testing.T) {
	t.Run("stale-width", func(t *testing.T) {
		// 600 events spread over 2.4 ms set a wide bucket width; their
		// successors then bunch into 4 µs, and a steady state keeps them
		// there. The population never doubles or quarters, so only the
		// occupancy guard can narrow the width, at most one halving per
		// minHalvingPops pops, while tails merge into large prefixes.
		r := rng.New(11)
		q := diffRun(t, func(q *Queue[int], push func(simtime.Time, int), pop func()) {
			const far = 700 << 12
			for i := 0; i < 600; i++ {
				push(simtime.Time(r.Intn(600<<12)), r.Intn(4))
			}
			for i := 0; i < 600; i++ {
				pop()
				push(far+simtime.Time(r.Intn(1<<12)), r.Intn(4))
			}
			for i := 0; i < 20000; i++ {
				now := q.PeekTime()
				pop()
				push(now+simtime.Time(r.Intn(1<<12)), r.Intn(4))
			}
		})
		st := q.Stats()
		if st.OccupancyRebuilds < 2 || st.TailMerges == 0 || st.RefsMoved == 0 {
			t.Fatalf("schedule missed the bucket paths: %+v", st)
		}
		if st.OccupancyRebuilds > 20600/minHalvingPops {
			t.Errorf("%d occupancy rebuilds in 20600 pops: guard not rate-limited", st.OccupancyRebuilds)
		}
	})
	t.Run("tail-and-before-head", func(t *testing.T) {
		// Pops consume the cursor bucket's prefix (pos > 0) while pushes land
		// both before its head, reusing the consumed slots, and behind its
		// last sorted event, into the tail.
		r := rng.New(5)
		beforeHead := 0
		q := diffRun(t, func(q *Queue[int], push func(simtime.Time, int), pop func()) {
			for i := 0; i < 200; i++ {
				push(simtime.Time(r.Intn(2000)), r.Intn(3))
			}
			for i := 0; i < 20000; i++ {
				if r.Intn(2) == 0 {
					pop()
					continue
				}
				now := q.PeekTime()
				if now == simtime.Infinity {
					now = 0
				}
				var b *bucket
				if q.nNear > 0 {
					b = &q.buckets[q.curVB&q.mask]
				}
				pos, pending := 0, false
				if b != nil {
					pos, pending = b.pos, b.sortedTo < len(b.items)
				}
				push(now+simtime.Time(1+r.Intn(2000)), r.Intn(3))
				if b != nil && b.pos < pos && (pending || b.sortedTo < len(b.items)) {
					beforeHead++
				}
			}
		})
		if beforeHead == 0 || q.Stats().TailMerges == 0 {
			t.Fatalf("before-head inserts with a pending tail: %d, stats %+v", beforeHead, q.Stats())
		}
	})
	t.Run("shrinking-population", func(t *testing.T) {
		// 8000 events spread wide, then bunched into 32 µs as above, drain
		// at 1.25 events per two pops: occupancy halvings interleave with
		// the quartering shrinks, and each resets the other's baseline.
		r := rng.New(23)
		var bunched Stats
		q := diffRun(t, func(q *Queue[int], push func(simtime.Time, int), pop func()) {
			const far = 9000 << 12
			for i := 0; i < 8000; i++ {
				push(simtime.Time(r.Intn(8000<<12)), r.Intn(3))
			}
			for i := 0; i < 8000; i++ {
				pop()
				push(far+simtime.Time(r.Intn(8<<12)), r.Intn(3))
			}
			bunched = q.Stats()
			for q.Len() > 0 {
				now := q.PeekTime()
				pop()
				pop()
				if r.Intn(4) > 0 {
					push(now+simtime.Time(r.Intn(1<<12)), r.Intn(3))
				}
			}
		})
		st := q.Stats()
		occ := st.OccupancyRebuilds - bunched.OccupancyRebuilds
		shrinks := st.Rebuilds - bunched.Rebuilds - occ
		if occ < 1 || shrinks < 1 {
			t.Fatalf("drain ran %d occupancy and %d shrink rebuilds, want both", occ, shrinks)
		}
	})
}

// TestDifferentialRestoreTailPending round-trips the queue through
// Items/Load/SetSeq at moments when some bucket still holds an unmerged
// tail, and requires the restored copy to continue exactly as the
// reference heap does.
func TestDifferentialRestoreTailPending(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		r := rng.New(seed + 101)
		q := &Queue[int]{}
		var h refHeap
		now := simtime.Time(0)
		trips := 0
		for i := 0; i < 6000; i++ {
			if q.Len() == 0 || r.Intn(100) < 55 {
				tm, prio := now+simtime.Time(r.Intn(5000)), r.Intn(3)
				q.PushPrio(tm, prio, i)
				h.push(tm, prio, i)
			} else {
				t1, v1 := q.Pop()
				t2, v2 := h.pop()
				if t1 != t2 || v1 != v2 {
					t.Fatalf("seed %d step %d (after %d restores): pop (%d,%d) vs (%d,%d)",
						seed, i, trips, t1, v1, t2, v2)
				}
				now = t1
			}
			if i%97 == 0 && tailPending(q) {
				var restored Queue[int]
				q.Items(func(tm simtime.Time, prio int, seq uint64, v int) bool {
					restored.Load(tm, prio, seq, v)
					return true
				})
				restored.SetSeq(q.Seq())
				q = &restored
				trips++
			}
		}
		for q.Len() > 0 {
			t1, v1 := q.Pop()
			t2, v2 := h.pop()
			if t1 != t2 || v1 != v2 {
				t.Fatalf("seed %d drain: pop (%d,%d) vs (%d,%d)", seed, t1, v1, t2, v2)
			}
		}
		if trips == 0 {
			t.Fatalf("seed %d: no round trip found a pending tail", seed)
		}
	}
}

// TestItemsInOrder checks ItemsInOrder against the reference heap's
// contents sorted by the full key, at points across every schedule, some
// with a tail pending and some with same-timestamp lane entries: it must
// visit every queued event exactly once in (t, prio, seq) order, stop when
// the visitor says so, and leave the queue as it was.
func TestItemsInOrder(t *testing.T) {
	tails, lanes := 0, 0
	for _, sc := range schedules {
		r := rng.New(7)
		var q Queue[int]
		var h refHeap
		now := simtime.Time(0)
		for i := 0; i < 4000; i++ {
			if q.Len() == 0 || r.Intn(100) < 55 {
				tm, prio := sc.next(r, now)
				q.PushPrio(tm, prio, i)
				h.push(tm, prio, i)
			} else {
				now, _ = q.Pop()
				h.pop()
			}
			if i%211 != 0 {
				continue
			}
			if tailPending(&q) {
				tails++
			}
			if q.lanePos < len(q.lane) {
				lanes++
			}
			want := slices.Clone(h.evs)
			slices.SortFunc(want, func(a, b refEvent) int {
				return compareRefs(ref{t: a.t, prio: a.prio, seq: a.seq}, ref{t: b.t, prio: b.prio, seq: b.seq})
			})
			var got []refEvent
			q.ItemsInOrder(func(tm simtime.Time, prio int, seq uint64, v int) bool {
				got = append(got, refEvent{tm, prio, seq, v})
				return true
			})
			if !slices.Equal(got, want) {
				t.Fatalf("%s step %d: ItemsInOrder visited %v, want %v", sc.name, i, got, want)
			}
			visits := 0
			q.ItemsInOrder(func(simtime.Time, int, uint64, int) bool {
				visits++
				return visits < 2
			})
			if visits != min(2, len(want)) || q.Len() != len(want) {
				t.Fatalf("%s step %d: stopped after %d visits, %d events left of %d", sc.name, i, visits, q.Len(), len(want))
			}
		}
	}
	if tails == 0 || lanes == 0 {
		t.Fatalf("%d checks with a tail pending, %d with lane entries; want both", tails, lanes)
	}
}

// TestDifferentialRestore round-trips the calendar queue through
// Items/Load/SetSeq at a random mid-run point and then continues the
// differential run on the restored copy: the restore path must reproduce
// the exact pop stream the reference heap produces, including ties decided
// by sequence numbers assigned after the restore.
func TestDifferentialRestore(t *testing.T) {
	f := func(seed uint16, scIdx uint8) bool {
		sc := schedules[int(scIdx)%len(schedules)]
		r := rng.New(uint64(seed) + 3)
		var q Queue[int]
		var h refHeap
		now := simtime.Time(0)
		n := 1500
		for i := 0; i < n; i++ {
			if q.Len() == 0 || r.Intn(100) < 60 {
				tm, prio := sc.next(r, now)
				q.PushPrio(tm, prio, i)
				h.push(tm, prio, i)
			} else {
				t1, _ := q.Pop()
				h.pop()
				now = t1
			}
		}

		// Snapshot and restore into a fresh queue mid-stream.
		var restored Queue[int]
		q.Items(func(tm simtime.Time, prio int, seq uint64, v int) bool {
			restored.Load(tm, prio, seq, v)
			return true
		})
		restored.SetSeq(q.Seq())

		// The restored queue continues against the reference.
		for i := 0; i < 800; i++ {
			if restored.Len() != h.Len() {
				t.Fatalf("seed %d: post-restore Len %d vs %d", seed, restored.Len(), h.Len())
			}
			if restored.Len() == 0 || r.Intn(100) < 40 {
				tm, prio := sc.next(r, now)
				restored.PushPrio(tm, prio, n+i)
				h.push(tm, prio, n+i)
			} else {
				t1, v1 := restored.Pop()
				t2, v2 := h.pop()
				if t1 != t2 || v1 != v2 {
					t.Fatalf("seed %d: post-restore pop (%d,%d) vs (%d,%d)", seed, t1, v1, t2, v2)
				}
				now = t1
			}
		}
		for restored.Len() > 0 {
			t1, v1 := restored.Pop()
			t2, v2 := h.pop()
			if t1 != t2 || v1 != v2 {
				t.Fatalf("seed %d: drain pop (%d,%d) vs (%d,%d)", seed, t1, v1, t2, v2)
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLoadAdvancesSeq is the regression test for the Load/SetSeq footgun:
// Load inserts with an explicit sequence, and a restore path that forgets
// the closing SetSeq must still never be handed a duplicate sequence
// number. Under the old behavior (Load leaving q.seq untouched) the first
// fresh push after a restore reused sequence 0 and popped before the
// restored event it tied with.
func TestLoadAdvancesSeq(t *testing.T) {
	var q Queue[string]
	q.Load(5, 0, 7, "restored")
	if got := q.Seq(); got != 8 {
		t.Fatalf("Seq after Load(seq=7) = %d, want 8", got)
	}
	q.Push(5, "fresh") // same (t, prio): order must fall to sequence
	if _, v := q.Pop(); v != "restored" {
		t.Fatalf("first pop = %q, want the restored event", v)
	}
	if _, v := q.Pop(); v != "fresh" {
		t.Fatal("fresh push lost")
	}

	// Loading an older sequence than the counter must not move it backward.
	// (The Push above consumed sequence 8, leaving the counter at 9.)
	q.Load(9, 0, 2, "old")
	if got := q.Seq(); got != 9 {
		t.Fatalf("Seq after Load(seq=2) = %d, want 9 (unchanged)", got)
	}
}

// TestCalendarSnapshotRoundTrip round-trips the queue via Items/Load/SetSeq
// from each internal state the calendar tiers can be in — mid-bucket
// consumption, populated overflow heap, active same-timestamp lane, and
// post-resize geometry — mirroring the heap-era round-trip test but aimed
// at the tier boundaries.
func TestCalendarSnapshotRoundTrip(t *testing.T) {
	roundTrip := func(t *testing.T, q *Queue[int]) {
		var want []struct {
			t simtime.Time
			v int
		}
		var restored Queue[int]
		count := 0
		q.Items(func(tm simtime.Time, prio int, seq uint64, v int) bool {
			restored.Load(tm, prio, seq, v)
			count++
			return true
		})
		if count != q.Len() {
			t.Fatalf("Items visited %d of %d events", count, q.Len())
		}
		restored.SetSeq(q.Seq())
		for q.Len() > 0 {
			tm, v := q.Pop()
			want = append(want, struct {
				t simtime.Time
				v int
			}{tm, v})
		}
		for i, w := range want {
			if restored.Len() == 0 {
				t.Fatalf("restored queue ran out at %d of %d", i, len(want))
			}
			tm, v := restored.Pop()
			if tm != w.t || v != w.v {
				t.Fatalf("pop %d: (%d,%d) vs original (%d,%d)", i, tm, v, w.t, w.v)
			}
		}
		if restored.Len() != 0 {
			t.Fatalf("restored queue has %d extra events", restored.Len())
		}
	}

	t.Run("mid-bucket", func(t *testing.T) {
		var q Queue[int]
		for i := 0; i < 40; i++ {
			q.PushPrio(simtime.Time(i/4), i%3, i)
		}
		for i := 0; i < 13; i++ { // leave a bucket partially consumed
			q.Pop()
		}
		roundTrip(t, &q)
	})
	t.Run("overflow-populated", func(t *testing.T) {
		var q Queue[int]
		q.Push(0, 0)
		for i := 1; i <= 50; i++ { // far beyond the initial window
			q.Push(simtime.Time(i)<<40, i)
		}
		roundTrip(t, &q)
	})
	t.Run("lane-active", func(t *testing.T) {
		var q Queue[int]
		q.Push(100, 0)
		q.Push(200, 1)
		now, _ := q.Pop()
		for i := 2; i < 20; i++ { // same-t pushes land in the lane
			q.PushPrio(now, 1, i)
		}
		roundTrip(t, &q)
	})
	t.Run("tail-pending", func(t *testing.T) {
		var q Queue[int]
		for i := 0; i < 30; i++ { // one bucket, in order: all prefix
			q.Push(simtime.Time(10*i), i)
		}
		q.Pop()
		for i := 30; i < 40; i++ { // out of order: all tail
			q.Push(simtime.Time(300-7*i), i)
		}
		if !tailPending(&q) {
			t.Fatal("no tail pending before the round trip")
		}
		roundTrip(t, &q)
	})
	t.Run("post-resize", func(t *testing.T) {
		var q Queue[int]
		for i := 0; i < 500; i++ { // population doubling forces rebuilds
			q.PushPrio(simtime.Time(i*37%1000), i%4, i)
		}
		for i := 0; i < 450; i++ { // quartering forces the shrink path
			q.Pop()
		}
		roundTrip(t, &q)
	})
}
