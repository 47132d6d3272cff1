package checkpoint

import (
	"fmt"

	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// NonBlockingParams extend Params for the asynchronous variant.
type NonBlockingParams struct {
	Params
	// Window is the wall-clock span of the background write. The same
	// checkpoint bytes that a blocking write would move in Params.Write
	// are streamed out over this longer window while the application keeps
	// running. Must be >= Write.
	Window simtime.Duration
	// Slowdown is the CPU interference factor (>= 1) the application
	// suffers during the window: copy-on-write faults, cache pollution,
	// and I/O contention from the background writer. 1.0 = free writes.
	Slowdown float64
}

// Validate checks the parameter set.
func (p NonBlockingParams) Validate() error {
	if err := p.Params.Validate(); err != nil {
		return err
	}
	if p.Window < p.Write {
		return fmt.Errorf("checkpoint: non-blocking window %v < write time %v",
			p.Window, p.Write)
	}
	if !(p.Slowdown >= 1) {
		return fmt.Errorf("checkpoint: non-blocking slowdown %v < 1", p.Slowdown)
	}
	return nil
}

// NonBlockingCoordinated is the asynchronous variant of the coordinated
// protocol: a single trigger sweep down the binomial tree starts a
// background checkpoint write on every rank — no quiesce phase, no
// application gate. Each rank's application runs throughout, slowed by the
// configured interference factor for the duration of the write window, and
// reports completion up the tree. The round's recovery line commits when
// the root has every report.
//
// This models copy-on-write / diskless asynchronous checkpointing. Real
// implementations must also capture in-flight messages to make the line
// consistent (e.g. Chandy–Lamport markers or logging during the window);
// we charge no extra cost for that, so the measured overhead is a lower
// bound that isolates the coordination-and-interference component the
// study cares about.
type NonBlockingCoordinated struct {
	p     NonBlockingParams
	stats Stats
	ctx   *sim.Context

	active    bool
	tickTime  simtime.Time
	donesLeft []int
	// pendingBusy/committedBusy mirror coordinator's line bookkeeping.
	pendingBusy   []simtime.Duration
	committedBusy []simtime.Duration
	lastLine      simtime.Time
}

// NewNonBlockingCoordinated builds the protocol.
func NewNonBlockingCoordinated(p NonBlockingParams) (*NonBlockingCoordinated, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &NonBlockingCoordinated{p: p}, nil
}

// Init implements sim.Agent.
func (n *NonBlockingCoordinated) Init(ctx *sim.Context) {
	n.setup(ctx)
	ctx.AtOwned(simtime.Time(0).Add(n.p.Interval), n, 0, 0)
}

// setup allocates run state without scheduling, for Init and DecodeState.
func (n *NonBlockingCoordinated) setup(ctx *sim.Context) {
	n.ctx = ctx
	p := ctx.NumRanks()
	n.donesLeft = make([]int, p)
	n.pendingBusy = make([]simtime.Duration, p)
	n.committedBusy = make([]simtime.Duration, p)
}

// OnTimer implements sim.TimerOwner: the only timer is the round tick.
func (n *NonBlockingCoordinated) OnTimer(uint8, int64) { n.tick() }

func (n *NonBlockingCoordinated) tick() {
	if n.active {
		return
	}
	n.active = true
	n.tickTime = n.ctx.Now()
	n.trigger(0)
}

// trigger forwards the start marker down the tree and begins the local
// background write.
func (n *NonBlockingCoordinated) trigger(i int) {
	kids := children(i, n.ctx.NumRanks())
	n.donesLeft[i] = len(kids) + 1
	for _, j := range kids {
		j := j
		n.ctx.SendControl(i, j, n.p.ctlBytes(),
			func(simtime.Time) { n.trigger(j) })
	}
	restore := func() {}
	if n.p.Slowdown > 1 {
		restore = n.ctx.ScaleCPU(i, n.p.Slowdown)
	}
	finish := func() {
		restore()
		n.stats.Writes++
		n.pendingBusy[i] = n.ctx.RankBusy(i)
		n.done(i)
	}
	st := n.p.Store
	if st == nil || !st.TierLimited(n.p.Tier) {
		n.ctx.After(n.p.Window, finish)
		return
	}
	// Bandwidth-limited store: the background writer drains the same bytes a
	// blocking write would move in Params.Write, concurrently with every
	// other writer in the machine. The write (and its interference window)
	// ends when both the nominal window has elapsed and the drain completes —
	// contention stretches the window, it never shrinks it.
	st.Bind(n.ctx)
	b := n.p.Bytes
	if b <= 0 {
		b = st.BytesFor(n.p.Tier, n.p.Write)
	}
	pending := 2
	arrive := func() {
		pending--
		if pending == 0 {
			finish()
		}
	}
	st.Begin(i, n.p.Tier, b, func(simtime.Time) { arrive() })
	n.ctx.After(n.p.Window, arrive)
}

func (n *NonBlockingCoordinated) done(i int) {
	n.donesLeft[i]--
	if n.donesLeft[i] > 0 {
		return
	}
	if i == 0 {
		end := n.ctx.Now()
		n.stats.Rounds++
		n.stats.RoundSpan += end.Sub(n.tickTime)
		copy(n.committedBusy, n.pendingBusy)
		n.lastLine = end
		n.active = false
		n.ctx.AtOwned(simtime.Max(n.tickTime.Add(n.p.Interval), end), n, 0, 0)
		return
	}
	p := parent(i)
	n.ctx.SendControl(i, p, n.p.ctlBytes(),
		func(simtime.Time) { n.done(p) })
}

// Name implements Protocol.
func (n *NonBlockingCoordinated) Name() string { return "nonblocking-coordinated" }

// Stats implements Protocol.
func (n *NonBlockingCoordinated) Stats() Stats { return n.stats }

// LastCheckpoint implements Protocol.
func (n *NonBlockingCoordinated) LastCheckpoint(int) simtime.Time { return n.lastLine }

// ProgressAtCheckpoint implements Protocol.
//
// The background write captures the rank's state as of the *start* of the
// window (copy-on-write semantics), but committedBusy is sampled at window
// end; the difference only makes recovery estimates slightly optimistic
// about saved progress, bounded by one window of work.
func (n *NonBlockingCoordinated) ProgressAtCheckpoint(rank int) simtime.Duration {
	return n.committedBusy[rank]
}

// Quiesced implements sim.Resumable: snapshots wait for rounds (and their
// background writes) to complete.
func (n *NonBlockingCoordinated) Quiesced() bool {
	return !n.active && storeQuiesced(n.p.Store)
}

// EncodeState implements sim.Resumable. Per-round fields (donesLeft,
// pendingBusy, tickTime) are live only while active.
func (n *NonBlockingCoordinated) EncodeState(enc *snapshot.Encoder) {
	if n.active {
		panic("checkpoint: encoding non-blocking round mid-flight")
	}
	encodeStats(enc, &n.stats)
	snapshot.EncodeI64Slice(enc, n.committedBusy)
	enc.Time(n.lastLine)
	encodeStore(enc, n.p.Store)
}

// DecodeState implements sim.Resumable.
func (n *NonBlockingCoordinated) DecodeState(ctx *sim.Context, dec *snapshot.Decoder) error {
	n.setup(ctx)
	decodeStats(dec, &n.stats)
	n.committedBusy = snapshot.DecodeI64Slice[simtime.Duration](dec, ctx.NumRanks())
	n.lastLine = dec.Time()
	decodeStore(ctx, dec, n.p.Store)
	return dec.Err()
}

var (
	_ Protocol      = (*NonBlockingCoordinated)(nil)
	_ sim.Resumable = (*NonBlockingCoordinated)(nil)
)
