package sim

// Snapshot/restore of complete mid-run engine state (DESIGN.md S25).
//
// The engine pauses only at *safe event boundaries*: instants between two
// events where no live state is a Go closure. Most of the simulator is
// already data (the queue, rank state, messages, interned accounting), but
// three kinds of closures can be pending: agent timers, control-message
// delivery callbacks, and seizure completion callbacks. Periodic agent
// timers are defunctionalized (TimerOwner) so they serialize in place with
// their exact ordering key; the rest are bounded — a write or coordination
// round in flight holds closures only until it completes — so the boundary
// scan simply declines to snapshot until the engine drains back to a
// closure-free instant, and retries after the next event.
//
// A snapshot is byte-exact: restoring it into a fresh engine built from an
// identical Config reproduces the remainder of the run bit-for-bit —
// results, traces, RNG draws, event order. A digest of the Config travels
// inside the blob so a snapshot cannot be resumed under a different
// configuration, and the blob itself is sealed with a SHA-256 trailer (see
// internal/snapshot).

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"checkpointsim/internal/goal"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// TimerOwner receives defunctionalized timer callbacks. A timer scheduled
// with Context.AtOwned fires as OnTimer(kind, arg) at exactly its scheduled
// time (so the owner reads the firing time from Context.Now); because the
// pending timer is plain data, it survives snapshot/restore in its exact
// queue position, unlike a closure scheduled with Context.At.
type TimerOwner interface {
	OnTimer(kind uint8, arg int64)
}

// Resumable is implemented by agents that participate in snapshot/restore.
// Config.SnapshotEvery requires every agent to implement it.
type Resumable interface {
	Agent
	// Quiesced reports whether the agent currently holds no
	// closure-bearing in-flight state (an active coordination round, a
	// pending window timer scheduled with Context.After). The engine only
	// snapshots when every agent is quiesced.
	Quiesced() bool
	// EncodeState serializes the agent's complete mutable state.
	EncodeState(enc *snapshot.Encoder)
	// DecodeState fully reinitializes the agent from a stream produced by
	// EncodeState: every mutable field is overwritten, none carried over,
	// so the same agent object can be restored into a different engine.
	// ctx is the restoring engine's context; the agent must stash it (and
	// re-register any non-agent timer owners it manages) exactly as Init
	// would, but must not schedule anything — pending timers live in the
	// restored event queue.
	DecodeState(ctx *Context, dec *snapshot.Decoder) error
}

// Snapshot is one captured engine state, ready to persist or resume.
type Snapshot struct {
	// Blob is the sealed, versioned, digest-tagged serialized state; feed
	// it to Engine.Restore on an engine built from an identical Config.
	Blob []byte
	// Time is the simulated time of the boundary.
	Time simtime.Time
	// Events is the number of events processed when the snapshot was taken.
	Events int64
	// TraceEvents counts trace records emitted before the boundary: a
	// resumed run emits exactly the monolithic trace stream's suffix
	// starting at this index.
	TraceEvents int64
}

// ErrConfigMismatch marks a restore attempted under a Config differing from
// the one the snapshot was taken under.
var ErrConfigMismatch = errors.New("sim: snapshot taken under a different configuration")

// emitTrace forwards a record to the trace consumer, counting it so
// snapshots know where the resume suffix begins. Callers check cfg.Trace
// for nil first (the hot path stays branch-and-call free when untraced).
func (e *Engine) emitTrace(ev TraceEvent) {
	e.traceCount++
	e.cfg.Trace(ev)
}

// registerOwner binds a TimerOwner to its stable string key. Idempotent for
// the same pair; a key collision or re-keying panics — the key is the
// identity snapshots serialize, so it must be unique and stable.
func (e *Engine) registerOwner(key string, o TimerOwner) {
	if id, ok := e.ownerIDs[o]; ok {
		if e.ownerKeys[id] != key {
			panic(fmt.Sprintf("sim: TimerOwner already registered as %q, re-registered as %q", e.ownerKeys[id], key))
		}
		return
	}
	for _, k := range e.ownerKeys {
		if k == key {
			panic(fmt.Sprintf("sim: timer-owner key %q already registered to a different owner", key))
		}
	}
	if e.ownerIDs == nil {
		e.ownerIDs = make(map[TimerOwner]int32)
	}
	e.ownerIDs[o] = int32(len(e.owners))
	e.owners = append(e.owners, o)
	e.ownerKeys = append(e.ownerKeys, key)
}

func (e *Engine) ownerByKey(key string) (int32, bool) {
	for id, k := range e.ownerKeys {
		if k == key {
			return int32(id), true
		}
	}
	return 0, false
}

// jobSerializable reports whether a job carries no closures: completion and
// grant callbacks empty, and any attached message free of a delivery
// closure. Seizures with done callbacks (checkpoint writes awaiting their
// re-arm) and open-ended storage seizures block the boundary; plain
// seizures (noise, recovery) and all application jobs pass.
func jobSerializable(j *job) bool {
	return j.fn == nil && j.granted == nil && (j.msg == nil || j.msg.deliver == nil)
}

func fifoSerializable(f *fifo[job]) bool {
	for i := f.head; i < len(f.items); i++ {
		if !jobSerializable(&f.items[i]) {
			return false
		}
	}
	return true
}

func eventSerializable(ev *event) bool {
	switch ev.kind {
	case evArrive:
		return ev.msg.deliver == nil
	case evTimer:
		return ev.fn == nil
	}
	return true
}

// safeBoundary reports whether the current instant is snapshot-safe: every
// agent quiesced, no hold gates or CPU scales active, and no closure live
// in any queued or running job, in-flight message, or pending timer.
// Checks run cheapest-first so the common "round in flight" case returns
// after the O(agents) scan.
func (e *Engine) safeBoundary() bool {
	for _, a := range e.cfg.Agents {
		if !a.(Resumable).Quiesced() {
			return false
		}
	}
	for i := range e.ranks {
		st := &e.ranks[i]
		if st.held != 0 || len(st.scales) != 0 {
			return false
		}
		if st.running && !jobSerializable(&st.runningJob) {
			return false
		}
		// Plain seizure entries hold no closures; only the side FIFO can.
		if !fifoSerializable(&st.seizeQ.fat) || !fifoSerializable(&st.ctlQ) || !fifoSerializable(&st.appQ) {
			return false
		}
	}
	ok := true
	e.queue.Items(func(_ simtime.Time, _ int, _ uint64, ev event) bool {
		if !eventSerializable(&ev) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// maybeSnapshot captures a snapshot if the current instant is safe; if not,
// the caller retries after the next event (the cadence counter only resets
// on success, so a due snapshot is taken at the first safe boundary).
func (e *Engine) maybeSnapshot() {
	if !e.safeBoundary() {
		return
	}
	e.snapAt = e.events
	e.cfg.OnSnapshot(Snapshot{
		Blob:        e.encodeSnapshot(),
		Time:        e.now,
		Events:      e.events,
		TraceEvents: e.traceCount,
	})
}

// progDigests caches the per-program content digest: programs are immutable
// and shared across the many engines of a sweep (one per replication and
// per resume verification), so the O(ops) hash runs once per program.
var progDigests sync.Map // *goal.Program → [sha256.Size]byte

func programDigest(p *goal.Program) [sha256.Size]byte {
	if d, ok := progDigests.Load(p); ok {
		return d.([sha256.Size]byte)
	}
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	word := func(v int64) {
		h.Write(buf[:binary.PutVarint(buf[:], v)])
	}
	word(int64(p.NumRanks))
	word(int64(len(p.Ops)))
	for i := range p.Ops {
		op := &p.Ops[i]
		word(int64(op.Kind))
		word(int64(op.Rank))
		word(int64(op.Peer))
		word(int64(op.Tag))
		word(op.Bytes)
		word(int64(op.Work))
		word(int64(len(op.Deps)))
		for _, d := range op.Deps {
			word(int64(d))
		}
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	progDigests.Store(p, d)
	return d
}

// configDigest fingerprints everything that determines the simulation's
// future evolution: seed, caps, network parameters, the program's content,
// and the agent stack (by type, positionally — agent parameters beyond the
// type are the caller's responsibility, which the exp/facade layers satisfy
// by keying snapshots with their full cache-field identity).
func (e *Engine) configDigest() [sha256.Size]byte {
	var enc snapshot.Encoder
	enc.Fix64(e.cfg.Seed)
	enc.I64(e.cfg.MaxEvents)
	enc.Time(e.cfg.MaxTime)
	enc.Dur(e.net.Latency)
	enc.Dur(e.net.Overhead)
	enc.Dur(e.net.Gap)
	enc.F64(e.net.GapPerByte)
	enc.F64(e.net.OverheadPerByte)
	enc.I64(e.net.RendezvousThreshold)
	enc.F64(e.net.BisectionBytesPerSec)
	pd := programDigest(e.prog)
	enc.Raw(pd[:])
	enc.Int(len(e.cfg.Agents))
	for _, a := range e.cfg.Agents {
		enc.Str(fmt.Sprintf("%T", a))
	}
	return sha256.Sum256(enc.Bytes())
}

func encodeMsg(enc *snapshot.Encoder, m *message) {
	if m.deliver != nil {
		panic("sim: encoding message with delivery closure")
	}
	enc.U8(uint8(m.kind))
	enc.I64(m.id)
	enc.I64(int64(m.src))
	enc.I64(int64(m.dst))
	enc.I64(int64(m.tag))
	enc.I64(m.bytes)
	enc.I64(m.wire)
	enc.I64(int64(m.op))
	enc.I64(int64(m.recvOp))
}

func (e *Engine) decodeMsg(dec *snapshot.Decoder) *message {
	m := &message{
		kind:   msgKind(dec.U8()),
		id:     dec.I64(),
		src:    int32(dec.I64()),
		dst:    int32(dec.I64()),
		tag:    int32(dec.I64()),
		bytes:  dec.I64(),
		wire:   dec.I64(),
		op:     goal.OpID(dec.I64()),
		recvOp: goal.OpID(dec.I64()),
	}
	if dec.Err() != nil {
		return nil
	}
	n := int32(len(e.ranks))
	nOps := goal.OpID(len(e.prog.Ops))
	if m.kind > msgCtl || m.src < 0 || m.src >= n || m.dst < 0 || m.dst >= n ||
		(m.op != goal.NoOp && (m.op < 0 || m.op >= nOps)) ||
		(m.recvOp != goal.NoOp && (m.recvOp < 0 || m.recvOp >= nOps)) {
		dec.Failf("message fields out of range")
		return nil
	}
	return m
}

func (e *Engine) encodeJob(enc *snapshot.Encoder, j *job) {
	if j.fn != nil || j.granted != nil {
		panic("sim: encoding job with closure")
	}
	enc.U8(uint8(j.kind))
	enc.Dur(j.cost)
	enc.I64(int64(j.op))
	enc.I64(int64(j.reason))
	enc.Dur(j.nominal)
	enc.I64(int64(j.waitReason))
	enc.Bool(j.msg != nil)
	if j.msg != nil {
		encodeMsg(enc, j.msg)
	}
}

func (e *Engine) decodeJob(dec *snapshot.Decoder) job {
	j := job{
		kind:       jobKind(dec.U8()),
		cost:       dec.Dur(),
		op:         goal.OpID(dec.I64()),
		reason:     reasonID(dec.I64()),
		nominal:    dec.Dur(),
		waitReason: reasonID(dec.I64()),
	}
	if dec.Bool() {
		j.msg = e.decodeMsg(dec)
	}
	if dec.Err() != nil {
		return j
	}
	nOps := goal.OpID(len(e.prog.Ops))
	nReasons := reasonID(len(e.reasons))
	switch {
	case j.kind > jobSeizeOpen,
		j.op != goal.NoOp && (j.op < 0 || j.op >= nOps),
		j.reason < 0 || j.reason >= nReasons && j.reason != 0,
		j.waitReason < 0 || j.waitReason >= nReasons && j.waitReason != 0,
		j.kind == jobSeizeOpen, // open seizures always carry a grant closure
		(j.kind == jobSendData || j.kind == jobCtlSend || j.kind == jobCtlRecv) && j.msg == nil:
		dec.Failf("job fields out of range")
	}
	return j
}

func (e *Engine) encodeFifo(enc *snapshot.Encoder, f *fifo[job]) {
	enc.Int(f.len())
	for i := f.head; i < len(f.items); i++ {
		e.encodeJob(enc, &f.items[i])
	}
}

// encodeSeizeQueue writes the same length-prefixed job sequence as
// encodeFifo, so the byte format does not depend on how seizures are
// stored.
func (e *Engine) encodeSeizeQueue(enc *snapshot.Encoder, q *seizeQueue) {
	enc.Int(q.len())
	q.each(func(j *job) { e.encodeJob(enc, j) })
}

// decodeJobs reads a length-prefixed job sequence into push.
func (e *Engine) decodeJobs(dec *snapshot.Decoder, push func(job)) {
	n := dec.Int()
	if n < 0 || n > dec.Remaining() {
		dec.Failf("fifo length %d", n)
		return
	}
	for i := 0; i < n; i++ {
		push(e.decodeJob(dec))
	}
}

func (e *Engine) encodeRank(enc *snapshot.Encoder, st *rankState) {
	if st.held != 0 || len(st.scales) != 0 {
		panic("sim: encoding rank with live hold/scale state")
	}
	enc.Bool(st.running)
	if st.running {
		e.encodeJob(enc, &st.runningJob)
		enc.Time(st.jobStart)
	}
	e.encodeSeizeQueue(enc, &st.seizeQ)
	e.encodeFifo(enc, &st.ctlQ)
	e.encodeFifo(enc, &st.appQ)
	enc.Dur(st.scaledExtra)
	enc.Time(st.nicFreeAt)
	enc.Int(len(st.posted))
	for i := range st.posted {
		enc.I64(int64(st.posted[i].op))
	}
	enc.Int(len(st.unexpected))
	for _, m := range st.unexpected {
		encodeMsg(enc, m)
	}
	enc.Bool(st.lastArrival != nil)
	if st.lastArrival != nil {
		snapshot.EncodeI64Slice(enc, st.lastArrival)
	}
	enc.Time(st.finish)
	enc.Dur(st.busy)
	enc.Dur(st.ctlBusy)
	enc.Dur(st.seizedBusy)
}

func (e *Engine) decodeRank(dec *snapshot.Decoder, st *rankState) {
	*st = rankState{}
	st.running = dec.Bool()
	if st.running {
		st.runningJob = e.decodeJob(dec)
		st.jobStart = dec.Time()
	}
	e.decodeJobs(dec, st.seizeQ.push)
	e.decodeJobs(dec, st.ctlQ.push)
	e.decodeJobs(dec, st.appQ.push)
	st.scaledExtra = dec.Dur()
	st.nicFreeAt = dec.Time()
	nOps := goal.OpID(len(e.prog.Ops))
	np := dec.Int()
	if np < 0 || np > dec.Remaining() {
		dec.Failf("posted length %d", np)
		return
	}
	for i := 0; i < np; i++ {
		op := goal.OpID(dec.I64())
		if op < 0 || op >= nOps {
			dec.Failf("posted op out of range")
			return
		}
		st.posted = append(st.posted, postedRecv{op: op})
	}
	nu := dec.Int()
	if nu < 0 || nu > dec.Remaining() {
		dec.Failf("unexpected length %d", nu)
		return
	}
	for i := 0; i < nu; i++ {
		m := e.decodeMsg(dec)
		if m == nil {
			return
		}
		st.unexpected = append(st.unexpected, m)
	}
	if dec.Bool() {
		st.lastArrival = snapshot.DecodeI64Slice[simtime.Time](dec, len(e.ranks))
	}
	st.finish = dec.Time()
	st.busy = dec.Dur()
	st.ctlBusy = dec.Dur()
	st.seizedBusy = dec.Dur()
}

// encodeSnapshot serializes the complete engine state. Only call at a safe
// boundary (see safeBoundary); closure-bearing state panics.
//
// The msgFree recycling pool is deliberately not serialized: it holds only
// zeroed structs awaiting reuse, so a restored engine rebuilds it empty
// with no observable effect (allocation count differs, simulation does
// not). The exhaustive-field test in snapshot_fields_test.go documents
// this exclusion.
func (e *Engine) encodeSnapshot() []byte {
	var enc snapshot.Encoder
	digest := e.configDigest()
	enc.Raw(digest[:])
	// Engine scalars.
	enc.Time(e.now)
	enc.I64(e.events)
	enc.I64(e.nextMsgID)
	enc.Int(e.opsLeft)
	enc.Time(e.fabricFree)
	enc.I64(e.traceCount)
	for _, w := range e.rand.State() {
		enc.Fix64(w)
	}
	m := &e.metrics
	enc.I64(m.AppMessages)
	enc.I64(m.AppBytes)
	enc.I64(m.CtlMessages)
	enc.I64(m.CtlBytes)
	enc.I64(m.Rendezvous)
	enc.I64(m.Matches)
	enc.Int(m.UnexpectedMax)
	enc.Int(m.PostedMax)
	enc.Dur(m.FabricBusy)
	snapshot.EncodeI64Slice(&enc, e.depsLeft)
	// Interned reason table with its accumulated accounting, in ID order so
	// restored jobs' reasonIDs keep meaning.
	enc.Int(len(e.reasons))
	for id, reason := range e.reasons {
		enc.Str(reason)
		enc.Dur(e.seizeTime[id])
		enc.I64(e.seizeCnt[id])
		enc.Dur(e.heldTime[id])
		enc.I64(e.heldCnt[id])
	}
	// Per-rank state.
	for i := range e.ranks {
		e.encodeRank(&enc, &e.ranks[i])
	}
	// Agent state, one length-prefixed section per agent in stack order.
	enc.Int(len(e.cfg.Agents))
	for _, a := range e.cfg.Agents {
		enc.Section(a.(Resumable).EncodeState)
	}
	// Timer-owner key table (ID order), then the event queue with each
	// event's exact ordering key; owned timers reference owners by table
	// index so the restoring engine can rebind by key.
	enc.Int(len(e.ownerKeys))
	for _, k := range e.ownerKeys {
		enc.Str(k)
	}
	enc.U64(e.queue.Seq())
	enc.Int(e.queue.Len())
	// Pop order, not the calendar queue's storage order: the bytes then
	// depend only on the simulation state, so a restored engine re-encodes
	// to the very blob it was restored from.
	e.queue.ItemsInOrder(func(t simtime.Time, prio int, seq uint64, ev event) bool {
		encodeEvent(&enc, t, prio, seq, &ev)
		return true
	})
	return snapshot.Seal(snapshot.FormatVersion, enc.Bytes())
}

// encodeEvent writes one queued event with its exact ordering key.
func encodeEvent(enc *snapshot.Encoder, t simtime.Time, prio int, seq uint64, ev *event) {
	enc.Time(t)
	enc.Int(prio)
	enc.U64(seq)
	enc.U8(uint8(ev.kind))
	switch ev.kind {
	case evJobDone:
		enc.I64(int64(ev.rank))
	case evArrive:
		encodeMsg(enc, ev.msg)
	case evTimer:
		if ev.fn != nil {
			panic("sim: encoding closure timer")
		}
		enc.Int(int(ev.owner))
		enc.U8(ev.tkind)
		enc.I64(ev.targ)
	}
}

// Restore loads a snapshot into an engine that has not yet run. The engine
// must have been built by New from a Config identical to the snapshotting
// engine's (enforced via the embedded config digest); its agents must all
// be Resumable. After a successful Restore, Run continues the simulation
// and — by construction — produces the exact remainder of the original
// run: identical results, trace suffix, and event order.
//
// On error the engine is poisoned (Run refuses); build a fresh engine to
// retry or fall back to a cold start. The blob is fully digest-verified
// before any field is decoded, and every decoded field is bounds-checked,
// so corrupt input yields an error, never a panic or a silently wrong
// resume.
func (e *Engine) Restore(blob []byte) (err error) {
	if e.ran {
		return fmt.Errorf("sim: Restore on an engine that already ran")
	}
	if e.restored {
		return fmt.Errorf("sim: Restore called twice")
	}
	defer func() {
		if err != nil {
			e.ran = true // poison: half-restored state must never run
		}
	}()
	for i, a := range e.cfg.Agents {
		if _, ok := a.(Resumable); !ok {
			return fmt.Errorf("sim: Restore with non-Resumable agent %d (%T)", i, a)
		}
	}
	version, payload, err := snapshot.Open(blob)
	if err != nil {
		return err
	}
	if version != snapshot.FormatVersion {
		return fmt.Errorf("%w: blob has %d, engine speaks %d", snapshot.ErrVersion, version, snapshot.FormatVersion)
	}
	dec := snapshot.NewDecoder(payload)
	want := e.configDigest()
	if got := dec.Raw(sha256.Size); dec.Err() == nil && !bytes.Equal(got, want[:]) {
		return ErrConfigMismatch
	}
	// Engine scalars.
	e.now = dec.Time()
	e.events = dec.I64()
	e.nextMsgID = dec.I64()
	e.opsLeft = dec.Int()
	e.fabricFree = dec.Time()
	e.traceCount = dec.I64()
	var rs [4]uint64
	for i := range rs {
		rs[i] = dec.Fix64()
	}
	if dec.Err() == nil {
		r, rerr := rng.FromState(rs)
		if rerr != nil {
			dec.Failf("%v", rerr)
		} else {
			e.rand = r
		}
	}
	m := &e.metrics
	m.AppMessages = dec.I64()
	m.AppBytes = dec.I64()
	m.CtlMessages = dec.I64()
	m.CtlBytes = dec.I64()
	m.Rendezvous = dec.I64()
	m.Matches = dec.I64()
	m.UnexpectedMax = dec.Int()
	m.PostedMax = dec.Int()
	m.FabricBusy = dec.Dur()
	e.depsLeft = snapshot.DecodeI64Slice[int32](dec, len(e.prog.Ops))
	open := 0
	for _, d := range e.depsLeft {
		if d >= 0 {
			open++
		} else if d != -1 {
			dec.Failf("depsLeft out of range")
			break
		}
	}
	if dec.Err() == nil && (open != e.opsLeft || e.opsLeft == 0 || e.events < 0 || e.now < 0) {
		dec.Failf("inconsistent progress counters")
	}
	// Interned reason table.
	nr := dec.Int()
	if nr < 0 || nr > dec.Remaining() {
		dec.Failf("reason count %d", nr)
	}
	e.reasonIDs = make(map[string]reasonID, nr)
	e.lastReason = -1
	e.reasons = e.reasons[:0]
	e.seizeLabels = e.seizeLabels[:0]
	e.seizeTime = e.seizeTime[:0]
	e.seizeCnt = e.seizeCnt[:0]
	e.heldTime = e.heldTime[:0]
	e.heldCnt = e.heldCnt[:0]
	for id := 0; id < nr && dec.Err() == nil; id++ {
		reason := dec.Str()
		if _, dup := e.reasonIDs[reason]; dup {
			dec.Failf("duplicate reason %q", reason)
			break
		}
		e.reasonIDs[reason] = reasonID(id)
		e.reasons = append(e.reasons, reason)
		e.seizeLabels = append(e.seizeLabels, "seize:"+reason)
		e.seizeTime = append(e.seizeTime, dec.Dur())
		e.seizeCnt = append(e.seizeCnt, dec.I64())
		e.heldTime = append(e.heldTime, dec.Dur())
		e.heldCnt = append(e.heldCnt, dec.I64())
	}
	// Per-rank state.
	for i := range e.ranks {
		if dec.Err() != nil {
			break
		}
		e.decodeRank(dec, &e.ranks[i])
	}
	// Agent state.
	ctx := &Context{eng: e}
	na := dec.Int()
	if dec.Err() == nil && na != len(e.cfg.Agents) {
		dec.Failf("agent count %d, engine has %d", na, len(e.cfg.Agents))
	}
	for i := 0; i < len(e.cfg.Agents) && dec.Err() == nil; i++ {
		sub := dec.Section()
		if dec.Err() != nil {
			break
		}
		if aerr := e.cfg.Agents[i].(Resumable).DecodeState(ctx, sub); aerr != nil {
			return fmt.Errorf("sim: agent %d (%T) restore: %w", i, e.cfg.Agents[i], aerr)
		}
		if aerr := sub.Finish(); aerr != nil {
			return fmt.Errorf("sim: agent %d (%T) restore: %w", i, e.cfg.Agents[i], aerr)
		}
	}
	// Timer-owner table: map the blob's owner IDs to this engine's by key.
	nk := dec.Int()
	if nk < 0 || nk > dec.Remaining() {
		dec.Failf("owner key count %d", nk)
	}
	ownerMap := make([]int32, 0, max(nk, 0))
	for i := 0; i < nk && dec.Err() == nil; i++ {
		key := dec.Str()
		id, ok := e.ownerByKey(key)
		if !ok {
			dec.Failf("timer owner %q not registered in restoring engine", key)
			break
		}
		ownerMap = append(ownerMap, id)
	}
	// Event queue.
	e.queue.Clear()
	qseq := dec.U64()
	qn := dec.Int()
	if qn < 0 || qn > dec.Remaining() {
		dec.Failf("queue length %d", qn)
	}
	for i := 0; i < qn && dec.Err() == nil; i++ {
		t := dec.Time()
		prio := dec.Int()
		seq := dec.U64()
		if t < e.now || seq >= qseq {
			dec.Failf("queue item key out of range")
			break
		}
		var ev event
		ev.kind = evKind(dec.U8())
		switch ev.kind {
		case evJobDone:
			r := dec.I64()
			if r < 0 || r >= int64(len(e.ranks)) {
				dec.Failf("jobDone rank out of range")
			}
			ev.rank = int32(r)
		case evArrive:
			ev.msg = e.decodeMsg(dec)
		case evTimer:
			o := dec.Int()
			if o < 0 || o >= len(ownerMap) {
				dec.Failf("timer owner index out of range")
				break
			}
			ev.owner = ownerMap[o]
			ev.tkind = dec.U8()
			ev.targ = dec.I64()
		default:
			dec.Failf("event kind out of range")
		}
		if dec.Err() == nil {
			e.queue.Load(t, prio, seq, ev)
		}
	}
	e.queue.SetSeq(qseq)
	if ferr := dec.Finish(); ferr != nil {
		return ferr
	}
	e.restored = true
	e.snapAt = e.events
	return nil
}
