// Package eventq implements the priority queue at the heart of the
// discrete-event simulator.
//
// Events are ordered by (time, priority, sequence): earlier times first,
// then lower priority values, then insertion order. The sequence component
// makes the ordering total, which is what guarantees deterministic
// simulation — two events at the same instant always pop in the order they
// were scheduled, on every run and platform.
//
// Internally the queue is a calendar (bucket) queue, not a binary heap: an
// event lands in the fixed-width time bucket covering its timestamp in O(1),
// and far-future events (failure clocks, heartbeat timers) wait in an
// overflow tier outside the bucket window. Each bucket is a sorted prefix
// plus an unsorted tail: in-order pushes extend the prefix, out-of-order
// pushes append to the tail, and when the cursor reaches the bucket the tail
// alone is sorted and merged backwards into the prefix, moving only the
// prefix events that sort after the tail's minimum. LogGOPS simulations
// schedule near-monotonic timestamps, so pushes land at or just ahead of the
// cursor and both Push and Pop are O(1) amortized — against the O(log n)
// compare-and-swap churn a heap pays per operation. The bucket width and
// ring size re-derive from observed event density whenever the population
// doubles or quarters, and the width halves when the cursor bucket outgrows
// a fixed occupancy bound, so the structure tracks the workload without
// tuning.
//
// The tiers move only 32-byte pointer-free keys: payloads are parked once
// in a slot arena at push and read back exactly once at pop, so the tail
// merges, sorts, and heap swaps never copy payload bytes and never trigger
// GC write barriers. None of this is visible in the API or the pop order:
// the (t, prio, seq) total order is identical to the heap's, byte for
// byte.
package eventq

import (
	"cmp"
	"math/bits"
	"slices"

	"checkpointsim/internal/simtime"
)

const (
	// minBuckets is the ring-size floor and the initial ring size.
	minBuckets = 64
	// maxBuckets caps the ring so a rebuild never allocates absurdly.
	maxBuckets = 1 << 20
	// defaultShift is the bucket width before any density estimate exists:
	// 2^12 ns ≈ 4.1 µs, the right ballpark for LogGOPS message latencies.
	defaultShift = 12
	// maxShift caps the bucket width at 2^48 ns ≈ 3.3 days per bucket.
	maxShift = 48
	// vbClamp bounds virtual bucket indices so window arithmetic cannot
	// overflow: timestamps at or near simtime.Infinity collapse into one
	// far-future virtual bucket, where full-key sorting still orders them
	// exactly.
	vbClamp = int64(1) << 60
	// maxOccupancy is the cursor-bucket size past which the bucket width
	// counts as stale: front halves it, at most once per
	// max(lastN, minHalvingPops) pops. A merge can shift a whole bucket, so
	// the bound keeps merges short; the floor stops a small queue that
	// bunches for a moment (a global rollback) from ratcheting its window
	// down, since every halving also halves the window and sends more of
	// the schedule through the overflow heap.
	maxOccupancy   = 64
	minHalvingPops = 2048
)

// ref is one queued event's full ordering key plus the index of its payload
// in the queue's slot arena. It is deliberately pointer-free: every tier
// shuffles refs, so merges and heap swaps are plain memmoves with no GC
// write barriers, and consumed slots need no zeroing.
type ref struct {
	t    simtime.Time
	prio int
	seq  uint64
	idx  int32
}

// less orders by time, then priority, then insertion sequence.
func less(a, b *ref) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// compareRefs is less as a three-way comparison, for slices.SortFunc.
func compareRefs(a, b ref) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	if c := cmp.Compare(a.prio, b.prio); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// bucket is one calendar slot. items[pos:] are the live events:
// items[pos:sortedTo] is in (t, prio, seq) order, and items[sortedTo:] is
// the tail of out-of-order appends, merged into the prefix when the cursor
// reaches the bucket (see mergeTail).
type bucket struct {
	items    []ref
	pos      int
	sortedTo int
}

// live returns the number of unconsumed events in the bucket.
func (b *bucket) live() int { return len(b.items) - b.pos }

// Queue is a calendar queue of events carrying payloads of type T.
// The zero value is an empty, usable queue.
//
// Geometry: virtual bucket vb(t) = t >> shift (clamped to ±vbClamp). The
// ring buckets[] covers the window [limVB-N, limVB) of N consecutive
// virtual buckets, each mapping to slot vb&mask — distinct slots, because
// the window is exactly N long. Every live near-tier event has
// vb ∈ [curVB, limVB); events at vb ≥ limVB wait in overflow. The cursor
// curVB is the lowest virtual bucket that may hold a live event: pops drain
// the cursor bucket in sorted order, then advance; pushes behind the cursor
// (legal, if rare) just move it back.
type Queue[T any] struct {
	buckets []bucket
	mask    int64
	shift   uint
	curVB   int64 // pop cursor (virtual bucket index)
	limVB   int64 // window end: near tier holds vb ∈ [limVB-N, limVB)
	nNear   int   // live events in buckets
	n       int   // live events total (buckets + overflow)
	lastN   int   // population at the last geometry rebuild (hysteresis)
	pops    int   // calendar pops since the last rebuild (occupancy guard)

	// overflow holds far-future events (vb ≥ limVB) as a binary min-heap
	// on the full (t, prio, seq) key: O(log k) insert for the small
	// far-future population, and migrations drain it in sorted order, so a
	// thin window never forces a full re-sort.
	overflow []ref

	// scratch is the rebuild staging buffer and the tail merges' spill
	// buffer, retained so a steady-state queue does not allocate.
	scratch []ref

	// lane is the same-timestamp fast path: simulations push many events
	// at exactly the current simulation time (the timestamp of the last
	// pop, laneT), and those arrive in ascending (prio, seq) order. Such
	// pushes append here — no bucket routing, no binary search, no tail
	// shift — and pops two-way-merge the lane head against the calendar
	// tiers by full (t, prio, seq) key, so the pop order is exactly the
	// total order regardless of which tier holds an event. lane[lanePos:]
	// are the live entries, all at time laneT; laneOn is false until the
	// first pop anchors laneT.
	lane    []ref
	lanePos int
	laneT   simtime.Time
	laneOn  bool

	// vals is the payload slot arena refs point into; free lists the
	// reusable slots. Payloads are written once at push, read and zeroed
	// once at pop, and never move in between.
	vals []T
	free []int32

	seq uint64

	stats Stats
}

// Stats counts the work the calendar tiers did. The values depend on the
// queue's internal layout, not only on the events pushed: a queue restored
// from Items/Load starts from a fresh layout, so its counters differ from
// those of the queue it was taken from even though it pops identically.
type Stats struct {
	// Rebuilds counts geometry rebuilds of any cause; OccupancyRebuilds
	// counts those triggered by an overfull cursor bucket.
	Rebuilds          int64
	OccupancyRebuilds int64
	// TailMerges counts merges of a bucket's unsorted tail into its sorted
	// prefix.
	TailMerges int64
	// RefsSorted counts events passed to a sort: merged tails plus rebuild
	// staging.
	RefsSorted int64
	// RefsMoved counts prefix events that tail merges displaced.
	RefsMoved int64
	// PeakBucket is the largest live event count any bucket reached.
	PeakBucket int
}

// Stats returns the queue's work counters.
func (q *Queue[T]) Stats() Stats { return q.stats }

// putVal parks a payload in the slot arena and returns its index.
func (q *Queue[T]) putVal(v T) int32 {
	if n := len(q.free); n > 0 {
		i := q.free[n-1]
		q.free = q.free[:n-1]
		q.vals[i] = v
		return i
	}
	q.vals = append(q.vals, v)
	return int32(len(q.vals) - 1)
}

// takeVal removes a payload from the slot arena and recycles its index.
// The slot is not zeroed: the LIFO freelist overwrites it on the next push,
// so a popped payload pins its referents only until then — bounded by the
// peak queue population, and far cheaper than clearing 64 bytes per pop.
func (q *Queue[T]) takeVal(i int32) T {
	q.free = append(q.free, i)
	return q.vals[i]
}

// Len returns the number of queued events.
func (q *Queue[T]) Len() int { return q.n + len(q.lane) - q.lanePos }

// Push schedules v at time t with priority 0.
func (q *Queue[T]) Push(t simtime.Time, v T) { q.PushPrio(t, 0, v) }

// PushPrio schedules v at time t with an explicit priority. Among events at
// the same time, lower priorities pop first; ties break by insertion order.
func (q *Queue[T]) PushPrio(t simtime.Time, prio int, v T) {
	if q.laneOn && t == q.laneT {
		if n := len(q.lane); n == q.lanePos {
			q.lane = q.lane[:0]
			q.lanePos = 0
			q.lane = append(q.lane, ref{t: t, prio: prio, seq: q.seq, idx: q.putVal(v)})
			q.seq++
			return
		} else if prio >= q.lane[n-1].prio { // same t; seq is always larger
			q.lane = append(q.lane, ref{t: t, prio: prio, seq: q.seq, idx: q.putVal(v)})
			q.seq++
			return
		}
	}
	q.pushItem(ref{t: t, prio: prio, seq: q.seq, idx: q.putVal(v)})
	q.seq++
}

// laneHead returns the earliest lane entry, or nil when the lane is empty.
func (q *Queue[T]) laneHead() *ref {
	if q.lanePos < len(q.lane) {
		return &q.lane[q.lanePos]
	}
	return nil
}

// Pop removes and returns the earliest event. It panics on an empty queue;
// check Len first.
func (q *Queue[T]) Pop() (simtime.Time, T) {
	b := q.front()
	lh := q.laneHead()
	if b == nil && lh == nil {
		panic("eventq: Pop on empty queue")
	}
	var it ref
	if b == nil || (lh != nil && less(lh, &b.items[b.pos])) {
		it = *lh
		q.lanePos++
		if q.lanePos == len(q.lane) {
			q.lane = q.lane[:0]
			q.lanePos = 0
		}
	} else {
		it = b.items[b.pos]
		b.pos++
		if b.pos == len(b.items) {
			b.items = b.items[:0]
			b.pos = 0
			b.sortedTo = 0
		}
		q.pops++
		q.nNear--
		q.n--
		// Shrink when the population quartered since the last rebuild: a
		// sparse ring makes cursor scans pay for buckets that no longer
		// exist.
		if len(q.buckets) > minBuckets && q.n*4 < q.lastN {
			q.rebuild(nil, true)
		}
	}
	// Anchor the same-timestamp lane at the new current time. The lane can
	// only be non-empty here when the popped time differs from laneT: a
	// push behind the cursor (handled by the rebuild path) made this pop
	// earlier than the lane's timestamp. Flush the lane into the calendar
	// tiers before moving the anchor, or later accepts would mix
	// timestamps into it and break the head-only merge.
	if it.t != q.laneT && q.lanePos < len(q.lane) {
		for i := q.lanePos; i < len(q.lane); i++ {
			q.pushItem(q.lane[i])
		}
		q.lane = q.lane[:0]
		q.lanePos = 0
	}
	q.laneT = it.t
	q.laneOn = true
	return it.t, q.takeVal(it.idx)
}

// Peek returns the earliest event without removing it. ok is false when the
// queue is empty.
func (q *Queue[T]) Peek() (t simtime.Time, v T, ok bool) {
	b := q.front()
	lh := q.laneHead()
	if b == nil && lh == nil {
		return 0, v, false
	}
	if b == nil || (lh != nil && less(lh, &b.items[b.pos])) {
		return lh.t, q.vals[lh.idx], true
	}
	it := &b.items[b.pos]
	return it.t, q.vals[it.idx], true
}

// PeekTime returns the time of the earliest event, or simtime.Infinity when
// the queue is empty.
func (q *Queue[T]) PeekTime() simtime.Time {
	b := q.front()
	lh := q.laneHead()
	if b == nil && lh == nil {
		return simtime.Infinity
	}
	if b == nil || (lh != nil && less(lh, &b.items[b.pos])) {
		return lh.t
	}
	return b.items[b.pos].t
}

// Items calls visit for every queued event with its full ordering key
// (time, priority, insertion sequence), in unspecified (internal bucket)
// order, until visit returns false. Snapshot encoding uses it to serialize
// the queue without disturbing it; because the (t, prio, seq) triple
// totally orders events, re-Loading the visited items reproduces the exact
// pop sequence.
func (q *Queue[T]) Items(visit func(t simtime.Time, prio int, seq uint64, v T) bool) {
	for i := range q.buckets {
		b := &q.buckets[i]
		for j := b.pos; j < len(b.items); j++ {
			it := &b.items[j]
			if !visit(it.t, it.prio, it.seq, q.vals[it.idx]) {
				return
			}
		}
	}
	for i := range q.overflow {
		it := &q.overflow[i]
		if !visit(it.t, it.prio, it.seq, q.vals[it.idx]) {
			return
		}
	}
	for i := q.lanePos; i < len(q.lane); i++ {
		it := &q.lane[i]
		if !visit(it.t, it.prio, it.seq, q.vals[it.idx]) {
			return
		}
	}
}

// ItemsInOrder is Items in pop order: it visits the queued events in
// (t, prio, seq) order, sorting their keys in the queue's retained scratch
// buffer, so the visit sequence depends only on the events queued, not on
// the calendar layout. visit must not modify the queue.
func (q *Queue[T]) ItemsInOrder(visit func(t simtime.Time, prio int, seq uint64, v T) bool) {
	sc := append(q.appendLive(q.scratch[:0]), q.lane[q.lanePos:]...)
	sortItems(sc)
	for i := range sc {
		it := &sc[i]
		if !visit(it.t, it.prio, it.seq, q.vals[it.idx]) {
			break
		}
	}
	q.scratch = sc[:0]
}

// Load inserts an event with an explicit insertion sequence, bypassing the
// queue's own counter. Restore paths use it to rebuild a serialized queue;
// pair it with SetSeq to position the counter exactly. Load itself advances
// the counter to max(current, seq+1), so a caller that forgets SetSeq can
// never be handed a duplicate sequence number — which would silently break
// deterministic tie-ordering.
func (q *Queue[T]) Load(t simtime.Time, prio int, seq uint64, v T) {
	q.pushItem(ref{t: t, prio: prio, seq: seq, idx: q.putVal(v)})
	if seq >= q.seq {
		q.seq = seq + 1
	}
}

// Seq returns the next insertion sequence number the queue would assign.
func (q *Queue[T]) Seq() uint64 { return q.seq }

// SetSeq sets the next insertion sequence number (snapshot restore).
func (q *Queue[T]) SetSeq(seq uint64) { q.seq = seq }

// Clear discards all queued events while keeping the allocated capacity.
func (q *Queue[T]) Clear() {
	for i := range q.buckets {
		b := &q.buckets[i]
		b.items = b.items[:0]
		b.pos = 0
		b.sortedTo = 0
	}
	q.overflow = q.overflow[:0]
	q.lane = q.lane[:0]
	q.lanePos = 0
	q.laneOn = false
	q.nNear = 0
	q.n = 0
	var zero T
	for i := range q.vals {
		q.vals[i] = zero // release payloads for GC
	}
	q.vals = q.vals[:0]
	q.free = q.free[:0]
}

// --- internals ---

// vbOf maps a timestamp to its virtual bucket index.
func (q *Queue[T]) vbOf(t simtime.Time) int64 {
	vb := int64(t) >> q.shift
	if vb > vbClamp {
		return vbClamp
	}
	if vb < -vbClamp {
		return -vbClamp
	}
	return vb
}

// init sets up the initial geometry, anchored at the first event.
func (q *Queue[T]) init(t simtime.Time) {
	q.shift = defaultShift
	q.buckets = newRing(minBuckets)
	q.mask = minBuckets - 1
	q.lastN = minBuckets
	q.curVB = q.vbOf(t)
	q.limVB = q.curVB + minBuckets
}

// newRing builds a bucket ring with every slot pre-sized from one shared
// arena allocation: at target occupancy a bucket holds a handful of events,
// and carving the slots out of a single backing array means ring setup
// costs two allocations, not one per slot. A slot that outgrows its segment
// reallocates independently via append.
func newRing(size int) []bucket {
	const seg = 8
	ring := make([]bucket, size)
	arena := make([]ref, size*seg)
	for i := range ring {
		ring[i].items = arena[i*seg : i*seg : (i+1)*seg]
	}
	return ring
}

// pushItem routes one event into the near tier, the overflow tier, or — for
// an event before the current window — a geometry rebuild around it.
func (q *Queue[T]) pushItem(it ref) {
	if q.buckets == nil {
		q.init(it.t)
	} else if q.n == 0 {
		// Empty queue: re-anchor the (all-empty) window at the new event.
		q.curVB = q.vbOf(it.t)
		q.limVB = q.curVB + int64(len(q.buckets))
	}
	vb := q.vbOf(it.t)
	switch {
	case vb >= q.limVB:
		q.ovPush(it)
	case vb >= q.limVB-int64(len(q.buckets)):
		q.placeNear(vb, it)
		q.nNear++
		if vb < q.curVB {
			q.curVB = vb
		}
	default:
		// Before the window start: rebuild around the new minimum. Rare —
		// simulation time is near-monotonic — and O(n) when it happens.
		q.rebuild(&it, true)
		return
	}
	q.n++
	// Re-derive the geometry whenever the population doubles since the
	// last rebuild: the ring grows with the event count and the bucket
	// width re-derives from the current density, whichever tier the
	// pressure landed in. The doubling guard keeps rebuilds O(log n) over
	// any run, so their O(n log n) staging sort amortizes away.
	if q.n > 2*q.lastN {
		q.rebuild(nil, true)
	}
}

// placeNear places an event into its ring slot in O(1): an event at or
// after the bucket's last sorted event extends the sorted prefix, one
// before the head reuses the consumed slot in front of it, and anything
// else appends to the unsorted tail that front merges in once the cursor
// reaches the bucket. Counters are the caller's job.
func (q *Queue[T]) placeNear(vb int64, it ref) {
	b := &q.buckets[vb&q.mask]
	if b.pos > 0 && len(b.items) == cap(b.items) {
		// Compact the consumed prefix instead of growing past it.
		k := copy(b.items, b.items[b.pos:])
		b.items = b.items[:k]
		b.sortedTo -= b.pos
		b.pos = 0
	}
	n := len(b.items)
	switch {
	case n == b.pos:
		b.items = append(b.items[:0], it)
		b.pos = 0
		b.sortedTo = 1
	case b.sortedTo == n && !less(&it, &b.items[n-1]):
		b.items = append(b.items, it)
		b.sortedTo++
	case b.pos > 0 && (b.sortedTo == b.pos || less(&it, &b.items[b.pos])):
		b.pos--
		b.items[b.pos] = it
	default:
		b.items = append(b.items, it)
	}
	if l := len(b.items) - b.pos; l > q.stats.PeakBucket {
		q.stats.PeakBucket = l
	}
}

// front returns the bucket whose head is the globally earliest event,
// merging its tail and advancing the cursor over empty buckets; nil when
// the calendar tiers are empty (the lane may still hold events). Pops and
// peeks both start here.
func (q *Queue[T]) front() *bucket {
	for {
		if q.nNear == 0 {
			if len(q.overflow) == 0 {
				return nil
			}
			q.migrate()
			continue
		}
		b := &q.buckets[q.curVB&q.mask]
		if b.live() == 0 {
			q.curVB++
			continue
		}
		if b.sortedTo < len(b.items) {
			q.mergeTail(b)
		}
		// An overfull cursor bucket means the width has gone stale: halve
		// it, unless the bucket's first maxOccupancy+1 events share one
		// instant, which no width can split. The pop floor keeps the
		// O(n log n) rebuilds amortized O(1) per pop.
		if b.live() > maxOccupancy && q.pops >= max(q.lastN, minHalvingPops) &&
			q.shift > 1 && b.items[b.pos].t != b.items[b.pos+maxOccupancy].t {
			q.stats.OccupancyRebuilds++
			q.shift--
			q.rebuild(nil, false)
			continue
		}
		return b
	}
}

// mergeTail sorts b's unsorted tail in scratch and merges it backwards
// into the sorted prefix from the bucket's end: each tail event, largest
// first, binary-searches its place, and the prefix events after it shift
// up in one block copy. Only the prefix events that sort after the tail's
// minimum move, each once.
func (q *Queue[T]) mergeTail(b *bucket) {
	tail := append(q.scratch[:0], b.items[b.sortedTo:]...)
	sortItems(tail)
	end := b.sortedTo
	first := b.upper(b.pos, end, &tail[0]) // prefix events from first on move
	i, w := end, len(b.items)              // prefix left: items[pos:i]; filled: items[w:]
	for j := len(tail) - 1; j >= 0; j-- {
		lo := b.upper(first, i, &tail[j])
		w -= i - lo
		copy(b.items[w:], b.items[lo:i])
		i = lo
		w--
		b.items[w] = tail[j]
	}
	q.stats.TailMerges++
	q.stats.RefsSorted += int64(len(tail))
	q.stats.RefsMoved += int64(end - first)
	b.sortedTo = len(b.items)
	q.scratch = tail[:0]
}

// upper returns the first index in [lo, hi) whose event sorts after it, or
// hi; items[lo:hi] must be sorted.
func (b *bucket) upper(lo, hi int, it *ref) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(it, &b.items[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// migrate re-anchors the window at the earliest overflow event and drains
// every overflow event that now falls inside the window into the ring, in
// sorted order (heap pops), so the receiving buckets stay sorted for free.
// Called only when the near tier is empty; moves at least one event.
func (q *Queue[T]) migrate() {
	q.curVB = q.vbOf(q.overflow[0].t)
	q.limVB = q.curVB + int64(len(q.buckets))
	k := 0
	for len(q.overflow) > 0 && q.vbOf(q.overflow[0].t) < q.limVB {
		it := q.ovPop()
		q.placeNear(q.vbOf(it.t), it)
		k++
	}
	q.nNear += k
}

// ovPush inserts an event into the overflow min-heap. Pushing in ascending
// key order (as rebuild does) costs one comparison per event.
func (q *Queue[T]) ovPush(it ref) {
	q.overflow = append(q.overflow, it)
	h := q.overflow
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// ovPop removes and returns the minimum overflow event.
func (q *Queue[T]) ovPop() ref {
	h := q.overflow
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	q.overflow = h
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && less(&h[r], &h[l]) {
			m = r
		}
		if !less(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// rebuild redistributes every live event (plus extra, when a pre-window
// insert triggered the rebuild) over the ring. With rederive it first
// re-derives the geometry — ring size from the population, bucket width
// from observed event density — else it keeps the caller's. O(n log n) for
// the staging sort, amortized across the growth, shrinkage or run of pops
// that triggered it.
func (q *Queue[T]) rebuild(extra *ref, rederive bool) {
	sc := q.appendLive(q.scratch[:0])
	if extra != nil {
		sc = append(sc, *extra)
	}
	sortItems(sc)
	cnt := len(sc)
	q.stats.Rebuilds++
	q.stats.RefsSorted += int64(cnt)

	// Ring size tracks the population; width tracks the local density at
	// the head of the schedule — see densityShift.
	size := len(q.buckets)
	if rederive {
		size = minBuckets
		for size < cnt && size < maxBuckets {
			size <<= 1
		}
		if s, ok := densityShift(sc); ok {
			q.shift = s
		} else if q.shift == 0 {
			q.shift = defaultShift
		}
	}
	if len(q.buckets) != size {
		q.buckets = newRing(size)
	} else {
		for i := range q.buckets {
			b := &q.buckets[i]
			b.items = b.items[:0]
			b.pos = 0
			b.sortedTo = 0
		}
	}
	q.mask = int64(size - 1)
	q.overflow = q.overflow[:0]
	q.nNear = 0
	if cnt > 0 {
		q.curVB = q.vbOf(sc[0].t)
		q.limVB = q.curVB + int64(size)
		for i := range sc {
			vb := q.vbOf(sc[i].t)
			if vb < q.limVB {
				q.placeNear(vb, sc[i])
				q.nNear++
			} else {
				q.ovPush(sc[i]) // ascending: one comparison each
			}
		}
	} else {
		q.curVB = 0
		q.limVB = int64(size)
	}
	q.n = cnt
	q.lastN = cnt
	q.pops = 0
	if q.lastN < minBuckets {
		q.lastN = minBuckets
	}
	q.scratch = sc[:0]
}

// appendLive appends the keys of every live calendar-tier event (buckets,
// then overflow) to sc, in storage order.
func (q *Queue[T]) appendLive(sc []ref) []ref {
	for i := range q.buckets {
		b := &q.buckets[i]
		sc = append(sc, b.items[b.pos:]...)
	}
	return append(sc, q.overflow...)
}

// densityShift derives the bucket width (as a shift) from the gaps between
// *distinct* timestamps among the earliest events of the sorted population:
// width ∈ (gap, 2·gap], i.e. one to two distinct instants per bucket.
// Sampling the head mirrors what the cursor is about to drain — LogGOPS
// schedules are densest at the present — and skipping duplicate timestamps
// matters because simulations fire whole ranks at the same instant: a
// same-time cluster shares a bucket at any width, so letting zero gaps drag
// the estimate down only thins the window for no occupancy gain. Events
// beyond the resulting window belong to the overflow heap, which is exactly
// what that tier is for. ok is false when the sample holds fewer than two
// distinct timestamps; the caller keeps the previous width.
func densityShift(sorted []ref) (uint, bool) {
	k := len(sorted)
	if k > 64 {
		k = 64
	}
	if k < 2 {
		return 0, false
	}
	distinct := 0
	last := sorted[0].t
	for i := 1; i < k; i++ {
		if sorted[i].t != last {
			distinct++
			last = sorted[i].t
		}
	}
	if distinct == 0 {
		return 0, false
	}
	span := int64(sorted[k-1].t) - int64(sorted[0].t)
	if span < 0 { // overflow of the sentinel range; treat as huge
		span = int64(simtime.Infinity)
	}
	gap := span / int64(distinct)
	shift := uint(bits.Len64(uint64(gap)))
	if shift > maxShift {
		shift = maxShift
	}
	return shift, true
}

// sortItems sorts by (t, prio, seq): an inlined insertion sort for the
// short tails a bucket typically collects, pdqsort beyond that. Both are
// allocation-free; stability is irrelevant because the key is total.
func sortItems(a []ref) {
	if len(a) > 24 {
		slices.SortFunc(a, compareRefs)
		return
	}
	for i := 1; i < len(a); i++ {
		it := a[i]
		j := i - 1
		for j >= 0 && less(&it, &a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = it
	}
}
