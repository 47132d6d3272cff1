// Package run assembles and executes one study point: a generated workload
// or an ingested program, a checkpoint protocol, the shared store, noise and
// failures. It is the one builder behind the checkpointsim facade, the
// campaign's scenarios, the trace suite and every point of experiments
// E1–E19: Build turns a RunConfig into an engine configuration plus the
// protocol, store and failure injector it wired, and Simulate runs that
// configuration. Run is the two together. Generate exposes the program
// generation step so sweeps can share one immutable program across points.
package run

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/goal"
	"checkpointsim/internal/network"
	"checkpointsim/internal/noise"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
	"checkpointsim/internal/workload"
)

// ProtoKind selects a checkpointing protocol in RunConfig.
type ProtoKind string

// Protocol kinds.
const (
	ProtoNone          ProtoKind = "none"
	ProtoCoordinated   ProtoKind = "coordinated"
	ProtoUncoordinated ProtoKind = "uncoordinated"
	ProtoHierarchical  ProtoKind = "hierarchical"
	ProtoNonBlocking   ProtoKind = "nonblocking"
	ProtoPartner       ProtoKind = "partner"
	ProtoTwoLevel      ProtoKind = "twolevel"
	// ProtoReplication runs replication-based resilience: the Ranks
	// application ranks are embedded in a machine of
	// Ranks·(ReplicaDegree+1) simulated nodes whose extra ranks mirror the
	// primaries (Build widens the program automatically). Pair with
	// RecoverTakeover failures.
	ProtoReplication ProtoKind = "replication"
	// ProtoCIC runs index-based communication-induced checkpointing.
	ProtoCIC ProtoKind = "cic"
)

// ProtocolConfig describes the checkpointing strategy of a Run.
type ProtocolConfig struct {
	// Kind selects the protocol (default ProtoNone).
	Kind ProtoKind
	// Interval is the checkpoint interval τ.
	Interval simtime.Duration
	// Write is the per-rank checkpoint write time δ.
	Write simtime.Duration
	// Offset selects the uncoordinated timer policy: "aligned",
	// "staggered" (default), or "random".
	Offset string
	// Logging is the sender-based message-logging tax (uncoordinated and
	// hierarchical protocols).
	Logging checkpoint.LogParams
	// ClusterSize is the hierarchical protocol's cluster size.
	ClusterSize int
	// Incremental, when FullEvery > 1, switches the uncoordinated protocol
	// to incremental writes.
	Incremental checkpoint.IncrementalParams
	// Window and Slowdown configure the non-blocking protocol's background
	// write (ProtoNonBlocking).
	Window   simtime.Duration
	Slowdown float64
	// CkptBytes is the image size shipped by the partner protocol
	// (ProtoPartner); Write is reused as its serialize time.
	CkptBytes int64
	// Bytes is the checkpoint image size drained through the shared store
	// (RunConfig.Storage); zero derives it from Write at the store's
	// lone-writer rate, so uncontended writes keep the legacy duration.
	Bytes int64
	// TwoLevel configures ProtoTwoLevel (Interval/Write above are ignored
	// for that kind).
	TwoLevel checkpoint.TwoLevelParams
	// ReplicaDegree is the replication protocol's replicas per application
	// rank (ProtoReplication; default 1).
	ReplicaDegree int
	// HeartbeatPeriod and HeartbeatBytes configure replication failure
	// detection (ProtoReplication; defaults 1ms / 64 B).
	HeartbeatPeriod simtime.Duration
	HeartbeatBytes  int64
	// TakeoverCost is the replica-promotion cost after detection
	// (ProtoReplication; default 500µs).
	TakeoverCost simtime.Duration
	// CICLag is the CIC index-lag threshold that forces a checkpoint
	// (ProtoCIC; default 1 = the Z-path-free rule).
	CICLag int
}

// build constructs the configured protocol, routing writes through st when
// one is configured. Globally-writing protocols drain the global tier; the
// partner serialize step and the two-level local level use the node tier.
func (pc ProtocolConfig) build(st *storage.Store) (checkpoint.Protocol, error) {
	params := checkpoint.Params{Interval: pc.Interval, Write: pc.Write,
		Bytes: pc.Bytes, Store: st}
	off := checkpoint.Staggered
	if pc.Offset != "" && (pc.Kind == ProtoUncoordinated || pc.Kind == ProtoPartner || pc.Kind == ProtoCIC) {
		var err error
		if off, err = checkpoint.ParseOffsetPolicy(pc.Offset); err != nil {
			return nil, err
		}
	}
	switch pc.Kind {
	case "", ProtoNone:
		return checkpoint.None{}, nil
	case ProtoCoordinated:
		return checkpoint.NewCoordinated(params)
	case ProtoUncoordinated:
		if pc.Incremental.FullEvery > 1 {
			return checkpoint.NewUncoordinatedIncremental(params, off, pc.Logging, pc.Incremental)
		}
		return checkpoint.NewUncoordinated(params, off, pc.Logging)
	case ProtoHierarchical:
		return checkpoint.NewHierarchical(params, pc.ClusterSize, pc.Logging)
	case ProtoNonBlocking:
		return checkpoint.NewNonBlockingCoordinated(checkpoint.NonBlockingParams{
			Params: params, Window: pc.Window, Slowdown: pc.Slowdown})
	case ProtoTwoLevel:
		tl := pc.TwoLevel
		if tl.Store == nil {
			tl.Store = st
		}
		return checkpoint.NewTwoLevel(tl)
	case ProtoPartner:
		return checkpoint.NewPartner(checkpoint.PartnerParams{
			Interval:      pc.Interval,
			SerializeTime: pc.Write,
			CkptBytes:     pc.CkptBytes,
			Offsets:       off,
			Store:         st,
		})
	case ProtoReplication:
		return checkpoint.NewReplication(checkpoint.ReplicationParams{
			Degree:          pc.ReplicaDegree,
			HeartbeatPeriod: pc.HeartbeatPeriod,
			HeartbeatBytes:  pc.HeartbeatBytes,
			TakeoverCost:    pc.TakeoverCost,
		})
	case ProtoCIC:
		return checkpoint.NewCIC(params, pc.CICLag, off)
	}
	return nil, fmt.Errorf("checkpointsim: unknown protocol kind %q", pc.Kind)
}

// RunConfig is the one-call configuration for a complete study point.
type RunConfig struct {
	// Workload names a built-in generator: one of Workloads().
	Workload string
	// Program, when non-nil, is the application to execute directly — an
	// ingested GOAL trace rather than a generated workload. The workload
	// shape fields (Workload, Ranks, Iterations, Compute, Jitter, MsgBytes)
	// are ignored; everything else (protocol, storage, noise, failures,
	// seed) applies unchanged.
	Program *goal.Program
	// Ranks is the number of MPI ranks.
	Ranks int
	// Iterations is the number of outer timesteps.
	Iterations int
	// Compute is the mean per-rank computation per iteration.
	Compute simtime.Duration
	// Jitter is the relative stddev of per-iteration compute (0 = none).
	Jitter float64
	// MsgBytes is the dominant message size of the workload.
	MsgBytes int64
	// Net is the LogGOPS parameter set (zero value = network.DefaultParams()).
	Net network.Params
	// Storage, when non-zero, models the checkpoint storage system: the
	// protocol's writes drain through a fair-share store built from these
	// parameters instead of taking fixed durations. An unconstrained
	// parameter set reproduces the legacy results byte-identically.
	Storage storage.Params
	// Protocol selects and configures checkpointing.
	Protocol ProtocolConfig
	// Noise, if non-nil, injects OS noise.
	Noise *noise.Config
	// Failures, if non-nil, injects failures with the configured recovery.
	Failures *failure.Config
	// Trace, when non-nil, receives one record per completed CPU job (see
	// SimConfig.Trace).
	Trace func(sim.TraceEvent)
	// Seed makes the run reproducible; equal configs and seeds give
	// bit-identical results.
	Seed uint64
	// MaxTime aborts runs whose virtual time exceeds this (0 = unlimited);
	// useful with failure rates the machine cannot outrun.
	MaxTime simtime.Time
	// SnapshotEvery, when > 0, captures a snapshot of the complete
	// simulator state roughly every that many events, at the next safe
	// boundary, and delivers each to OnSnapshot. Snapshotting is a pure
	// observer: results are byte-identical with or without it.
	SnapshotEvery int64
	// OnSnapshot receives each captured snapshot, synchronously on the
	// simulation loop. Required when SnapshotEvery > 0.
	OnSnapshot func(sim.Snapshot)
	// ResumeFrom, when non-nil, restores the engine from a snapshot blob
	// before running. The run executes only the remainder after the
	// snapshot's boundary, and its result is byte-identical to the
	// uninterrupted run's — provided the rest of this config matches the
	// run that took the snapshot (enforced via a config digest embedded in
	// the blob).
	ResumeFrom []byte
}

// RunResult bundles the simulation result with the protocol and injector
// state of a Run.
type RunResult struct {
	*sim.Result
	// Protocol is the protocol instance, exposing Stats and recovery lines.
	Protocol checkpoint.Protocol
	// Store is the shared-storage arbiter of the run (nil unless
	// RunConfig.Storage was set), exposing drain statistics.
	Store *storage.Store
	// FailureEvents holds the injected failures (nil without Failures).
	FailureEvents []failure.Event
}

// CacheFields renders the result-determining configuration of this study
// point as a flat field set for content addressing (cache.Key with a code
// version tag): equal field sets guarantee bit-identical Run results. It
// covers the declarative configuration — workload shape, resolved network
// parameters, storage model, protocol knobs including nested
// logging/incremental/two-level parameters, noise, failures, seed, and the
// time cap. Several members are deliberately outside the address space:
// Trace, SnapshotEvery and OnSnapshot (pure observers that cannot change
// results), ResumeFrom (mechanism — a resumed run reproduces the full
// run's result by construction), and a live *Store injected directly into
// Protocol.TwoLevel.Store (runtime state, not configuration — stores built
// from RunConfig.Storage are covered via the storage fields). Callers
// caching by these fields must configure storage declaratively.
func (cfg RunConfig) CacheFields() []cache.Field {
	fields := make([]cache.Field, 0, 64)
	fields = append(fields,
		cache.F("workload", cfg.Workload),
		cache.F("ranks", strconv.Itoa(cfg.Ranks)),
		cache.F("iterations", strconv.Itoa(cfg.Iterations)),
		cache.F("compute", dur(cfg.Compute)),
		cache.F("jitter", f64(cfg.Jitter)),
		cache.F("msg_bytes", i64(cfg.MsgBytes)),
		cache.F("seed", strconv.FormatUint(cfg.Seed, 10)),
		cache.F("max_time", i64(int64(cfg.MaxTime))),
	)
	fields = AppendNetFields(fields, cfg.Net)
	fields = AppendStorageFields(fields, cfg.Storage)
	fields = append(fields,
		cache.F("proto.kind", string(cfg.Protocol.Kind)),
		cache.F("proto.interval", dur(cfg.Protocol.Interval)),
		cache.F("proto.write", dur(cfg.Protocol.Write)),
		cache.F("proto.offset", cfg.Protocol.Offset),
		cache.F("proto.log.alpha", dur(cfg.Protocol.Logging.Alpha)),
		cache.F("proto.log.beta", f64(cfg.Protocol.Logging.BetaNsPerByte)),
		cache.F("proto.cluster", strconv.Itoa(cfg.Protocol.ClusterSize)),
		cache.F("proto.incr.full_every", strconv.Itoa(cfg.Protocol.Incremental.FullEvery)),
		cache.F("proto.incr.fraction", f64(cfg.Protocol.Incremental.Fraction)),
		cache.F("proto.window", dur(cfg.Protocol.Window)),
		cache.F("proto.slowdown", f64(cfg.Protocol.Slowdown)),
		cache.F("proto.ckpt_bytes", i64(cfg.Protocol.CkptBytes)),
		cache.F("proto.bytes", i64(cfg.Protocol.Bytes)),
		cache.F("proto.2l.local_interval", dur(cfg.Protocol.TwoLevel.LocalInterval)),
		cache.F("proto.2l.local_write", dur(cfg.Protocol.TwoLevel.LocalWrite)),
		cache.F("proto.2l.global_interval", dur(cfg.Protocol.TwoLevel.GlobalInterval)),
		cache.F("proto.2l.global_write", dur(cfg.Protocol.TwoLevel.GlobalWrite)),
		cache.F("proto.2l.ctl_bytes", i64(cfg.Protocol.TwoLevel.CtlBytes)),
		cache.F("proto.2l.local_bytes", i64(cfg.Protocol.TwoLevel.LocalBytes)),
		cache.F("proto.2l.global_bytes", i64(cfg.Protocol.TwoLevel.GlobalBytes)),
		cache.F("proto.rep.degree", strconv.Itoa(cfg.Protocol.ReplicaDegree)),
		cache.F("proto.rep.hb_period", dur(cfg.Protocol.HeartbeatPeriod)),
		cache.F("proto.rep.hb_bytes", i64(cfg.Protocol.HeartbeatBytes)),
		cache.F("proto.rep.takeover", dur(cfg.Protocol.TakeoverCost)),
		cache.F("proto.cic.lag", strconv.Itoa(cfg.Protocol.CICLag)),
	)
	if cfg.Program != nil {
		// An ingested trace replaces the workload shape in the address: the
		// digest of the canonical serialization identifies the program, so
		// two byte-different files that parse identically still share a key.
		sum := sha256.Sum256([]byte(goal.WriteString(cfg.Program)))
		fields = append(fields, cache.F("program.digest", hex.EncodeToString(sum[:])))
	}
	if cfg.Noise != nil {
		fields = append(fields,
			cache.F("noise.period", dur(cfg.Noise.Period)),
			cache.F("noise.duration", dur(cfg.Noise.Duration)),
			cache.F("noise.poisson", strconv.FormatBool(cfg.Noise.Poisson)),
		)
	}
	if cfg.Failures != nil {
		fields = append(fields,
			cache.F("fail.mtbf", dur(cfg.Failures.MTBF)),
			cache.F("fail.shape", f64(cfg.Failures.Shape)),
			cache.F("fail.restart", dur(cfg.Failures.Restart)),
			cache.F("fail.replay_speedup", f64(cfg.Failures.ReplaySpeedup)),
			cache.F("fail.kind", strconv.Itoa(int(cfg.Failures.Kind))),
			cache.F("fail.local_coverage", f64(cfg.Failures.LocalCoverage)),
			cache.F("fail.local_restart", dur(cfg.Failures.LocalRestart)),
		)
	}
	return fields
}

// AppendNetFields appends the cache-key rendering of a network parameter
// set to fields, resolving the zero value to network.DefaultParams() as a
// run does, so both spellings address the same results.
func AppendNetFields(fields []cache.Field, net network.Params) []cache.Field {
	if (net == network.Params{}) {
		net = network.DefaultParams()
	}
	return append(fields,
		cache.F("net.latency", dur(net.Latency)),
		cache.F("net.overhead", dur(net.Overhead)),
		cache.F("net.gap", dur(net.Gap)),
		cache.F("net.gap_per_byte", f64(net.GapPerByte)),
		cache.F("net.overhead_per_byte", f64(net.OverheadPerByte)),
		cache.F("net.rendezvous", i64(net.RendezvousThreshold)),
		cache.F("net.bisection_bps", f64(net.BisectionBytesPerSec)),
	)
}

// AppendStorageFields appends the cache-key rendering of a storage model to
// fields. The zero value (fixed-duration writes) keeps its own address.
func AppendStorageFields(fields []cache.Field, st storage.Params) []cache.Field {
	return append(fields,
		cache.F("storage.aggregate_bps", f64(st.AggregateBytesPerSec)),
		cache.F("storage.per_writer_bps", f64(st.PerWriterBytesPerSec)),
		cache.F("storage.node_bps", f64(st.NodeBytesPerSec)),
		cache.F("storage.ranks_per_node", strconv.Itoa(st.RanksPerNode)),
	)
}

// Cache-key value renderings: shortest exact floats, integer nanoseconds.
func f64(v float64) string          { return strconv.FormatFloat(v, 'g', -1, 64) }
func dur(d simtime.Duration) string { return strconv.FormatInt(int64(d), 10) }
func i64(v int64) string            { return strconv.FormatInt(v, 10) }

// Built is one assembled study point, ready to simulate: the engine
// configuration plus the protocol, store and failure injector wired into
// it. Agents and stores serve a single simulation, so every run needs a
// fresh Build.
type Built struct {
	Sim      sim.Config
	Protocol checkpoint.Protocol
	// Store is nil unless RunConfig.Storage was set.
	Store *storage.Store
	// Failures is nil unless RunConfig.Failures was set.
	Failures *failure.Injector
}

// Generate returns cfg with its application program in cfg.Program, before
// any replication widening: unchanged when cfg.Program is already set, else
// the named workload generated from the shape fields and Seed. Programs are
// immutable, so callers that sweep many points over one workload generate
// it once and derive every point's config from the result.
func Generate(cfg RunConfig) (RunConfig, error) {
	if cfg.Program != nil {
		return cfg, nil
	}
	var err error
	cfg.Program, err = workload.FromName(cfg.Workload, workload.CommonConfig{
		Base: workload.Base{
			Ranks:      cfg.Ranks,
			Iterations: cfg.Iterations,
			Compute:    cfg.Compute,
			Jitter:     cfg.Jitter,
			Seed:       cfg.Seed,
		},
		Bytes: cfg.MsgBytes,
	})
	return cfg, err
}

// Build assembles a study point: generate (or take) the program, widen it
// for replication, build the store, the protocol and the injectors, and
// fill in the engine configuration including the trace and snapshot
// observers. ResumeFrom is left to the caller's Simulate.
func Build(cfg RunConfig) (*Built, error) {
	cfg, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	b := &Built{Sim: sim.Config{Net: cfg.Net, Program: cfg.Program, Seed: cfg.Seed,
		MaxTime: cfg.MaxTime, Trace: cfg.Trace, SnapshotEvery: cfg.SnapshotEvery,
		OnSnapshot: cfg.OnSnapshot}}
	if (b.Sim.Net == network.Params{}) {
		b.Sim.Net = network.DefaultParams()
	}
	if cfg.Protocol.Kind == ProtoReplication {
		// The configured ranks are the application; widen the machine so
		// each primary's replicas are real simulated nodes.
		d := max(cfg.Protocol.ReplicaDegree, 1)
		if b.Sim.Program, err = goal.Widen(b.Sim.Program, b.Sim.Program.NumRanks*(d+1)); err != nil {
			return nil, err
		}
	}
	if cfg.Storage != (storage.Params{}) {
		if b.Store, err = storage.New(cfg.Storage); err != nil {
			return nil, err
		}
	}
	if b.Protocol, err = cfg.Protocol.build(b.Store); err != nil {
		return nil, err
	}
	b.Sim.Agents = []sim.Agent{b.Protocol}
	if cfg.Noise != nil {
		inj, err := noise.NewInjector(*cfg.Noise)
		if err != nil {
			return nil, err
		}
		b.Sim.Agents = append(b.Sim.Agents, inj)
	}
	if cfg.Failures != nil {
		if b.Failures, err = failure.NewInjector(*cfg.Failures, b.Protocol); err != nil {
			return nil, err
		}
		b.Sim.Agents = append(b.Sim.Agents, b.Failures)
	}
	return b, nil
}

// Simulate runs an engine configuration to completion, first restoring
// the snapshot blob resume when it is non-nil, so that only the remainder
// after the snapshot's boundary executes.
func Simulate(cfg sim.Config, resume []byte) (*sim.Result, error) {
	eng, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if resume != nil {
		if err := eng.Restore(resume); err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
	}
	return eng.Run()
}

// Run executes one study point end to end: build the workload, attach the
// protocol and injectors, simulate, and return the results.
func Run(cfg RunConfig) (*RunResult, error) {
	b, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	res, err := Simulate(b.Sim, cfg.ResumeFrom)
	if err != nil {
		return nil, err
	}
	out := &RunResult{Result: res, Protocol: b.Protocol, Store: b.Store}
	if b.Failures != nil {
		out.FailureEvents = b.Failures.Events()
	}
	return out, nil
}
