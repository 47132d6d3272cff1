package checkpoint

import (
	"math/bits"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// coordinator runs the two-phase checkpoint rounds over one group of ranks
// (the whole machine for Coordinated, one cluster for Hierarchical). Rounds
// proceed through four sweeps of a binomial tree rooted at members[0]:
//
//	REQ  (down): close each member's application gate
//	ACK  (up):   subtree fully quiesced
//	COMMIT (down): write the checkpoint (CPU seizure), reopen the gate
//	DONE (up):   subtree fully written
//
// All sweeps are control messages through the simulated network. Rounds
// never overlap: the next round starts Interval after the previous round's
// start, or immediately after the previous round ends, whichever is later.
type coordinator struct {
	ctx     *sim.Context
	p       Params
	members []int // actual rank ids; members[0] is the root
	stats   *Stats
	// onWrite records a completed write for one member rank.
	onWrite func(rank int, end simtime.Time)
	// onRound runs when a round fully completes.
	onRound func(tick, end simtime.Time)
	// arm schedules the next tick. The owning protocol supplies a
	// defunctionalized timer (Context.AtOwned) so the pending tick
	// serializes into snapshots; nil falls back to a closure timer.
	arm func(t simtime.Time)

	// per-round state
	active       bool
	tickTime     simtime.Time
	pendingDelay simtime.Duration // coordination delay of the in-flight round
	acksLeft     []int
	donesLeft    []int
	release      []func()
	// pendingBusy snapshots each member's application progress at its write;
	// committedBusy is the snapshot of the last *completed* round — the
	// progress a rollback of this group restores.
	pendingBusy   []simtime.Duration
	committedBusy []simtime.Duration
}

func newCoordinator(ctx *sim.Context, p Params, members []int, stats *Stats,
	onWrite func(int, simtime.Time), onRound func(tick, end simtime.Time)) *coordinator {
	return &coordinator{
		ctx: ctx, p: p, members: members, stats: stats,
		onWrite: onWrite, onRound: onRound,
		acksLeft:      make([]int, len(members)),
		donesLeft:     make([]int, len(members)),
		release:       make([]func(), len(members)),
		pendingBusy:   make([]simtime.Duration, len(members)),
		committedBusy: make([]simtime.Duration, len(members)),
	}
}

// children returns the virtual indices of i's children in the binomial
// tree over virtual indices 0..n-1 rooted at 0.
func children(i, n int) []int {
	var out []int
	limit := i & -i // lsb; the root may add any power of two
	if i == 0 {
		limit = 1 << bits.Len(uint(n)) // effectively unbounded
	}
	for step := 1; step < limit && i+step < n; step <<= 1 {
		out = append(out, i+step)
	}
	return out
}

// parent returns the virtual index of i's binomial-tree parent.
func parent(i int) int { return i - (i & -i) }

// schedule arms the periodic rounds; call once from the protocol's Init.
func (c *coordinator) schedule(first simtime.Time) {
	c.armAt(first)
}

func (c *coordinator) armAt(t simtime.Time) {
	if c.arm != nil {
		c.arm(t)
		return
	}
	c.ctx.At(t, c.tick)
}

// encodeState serializes the coordinator's cross-round state. Per-round
// fields (acksLeft, donesLeft, release, pendingBusy, pendingDelay,
// tickTime) are live only while active, and snapshots require !active.
func (c *coordinator) encodeState(enc *snapshot.Encoder) {
	if c.active {
		panic("checkpoint: encoding coordinator mid-round")
	}
	snapshot.EncodeI64Slice(enc, c.committedBusy)
}

func (c *coordinator) decodeState(dec *snapshot.Decoder) {
	c.committedBusy = snapshot.DecodeI64Slice[simtime.Duration](dec, len(c.members))
}

func (c *coordinator) tick() {
	if c.active {
		// Should not happen — rounds reschedule themselves on completion —
		// but guard against misuse.
		return
	}
	c.active = true
	c.tickTime = c.ctx.Now()
	c.ctx.Mark(c.members[0], "round-start", int64(len(c.members)))
	c.handleReq(0)
}

func (c *coordinator) handleReq(i int) {
	rank := c.members[i]
	c.release[i] = c.ctx.HoldApp(rank, ReasonCoord)
	kids := children(i, len(c.members))
	c.acksLeft[i] = len(kids)
	for _, j := range kids {
		j := j
		c.ctx.SendControl(rank, c.members[j], c.p.ctlBytes(),
			func(simtime.Time) { c.handleReq(j) })
	}
	if len(kids) == 0 {
		c.ackReady(i)
	}
}

// ackReady runs when subtree i is fully quiesced.
func (c *coordinator) ackReady(i int) {
	if i == 0 {
		c.pendingDelay = c.ctx.Now().Sub(c.tickTime)
		c.ctx.Mark(c.members[0], "round-commit", int64(len(c.members)))
		c.handleCommit(0)
		return
	}
	p := parent(i)
	c.ctx.SendControl(c.members[i], c.members[p], c.p.ctlBytes(),
		func(simtime.Time) {
			c.acksLeft[p]--
			if c.acksLeft[p] == 0 {
				c.ackReady(p)
			}
		})
}

func (c *coordinator) handleCommit(i int) {
	rank := c.members[i]
	kids := children(i, len(c.members))
	c.donesLeft[i] = len(kids) + 1 // children subtrees + own write
	for _, j := range kids {
		j := j
		c.ctx.SendControl(rank, c.members[j], c.p.ctlBytes(),
			func(simtime.Time) { c.handleCommit(j) })
	}
	c.p.write(c.ctx, rank, func(end simtime.Time) {
		c.stats.Writes++
		c.pendingBusy[i] = c.ctx.RankBusy(rank)
		c.release[i]()
		c.release[i] = nil
		if c.onWrite != nil {
			c.onWrite(rank, end)
		}
		c.doneReady(i)
	})
}

// doneReady decrements subtree i's outstanding-done counter.
func (c *coordinator) doneReady(i int) {
	c.donesLeft[i]--
	if c.donesLeft[i] > 0 {
		return
	}
	if i == 0 {
		end := c.ctx.Now()
		c.ctx.Mark(c.members[0], "round-end", int64(len(c.members)))
		c.stats.Rounds++ // rounds and their delays count only when complete
		c.stats.CoordDelay += c.pendingDelay
		c.stats.RoundSpan += end.Sub(c.tickTime)
		copy(c.committedBusy, c.pendingBusy)
		c.active = false
		if c.onRound != nil {
			c.onRound(c.tickTime, end)
		}
		next := simtime.Max(c.tickTime.Add(c.p.Interval), end)
		c.armAt(next)
		return
	}
	p := parent(i)
	c.ctx.SendControl(c.members[i], c.members[p], c.p.ctlBytes(),
		func(simtime.Time) { c.doneReady(p) })
}
