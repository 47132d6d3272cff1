package sim

// Engine-level snapshot/restore tests: round-trip determinism on random
// programs, a corruption table proving hostile blobs error instead of
// panicking or resuming wrong, and a native fuzz target hammering the
// decoder validation paths. The exp layer re-proves byte-identity at the
// experiment level (internal/exp/resume_test.go); these tests pin the
// engine contract in isolation.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"checkpointsim/internal/network"
	"checkpointsim/internal/rng"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/snapshot"
)

// snapTestAgent is the smallest useful Resumable agent: a periodic owned
// timer that seizes CPU on a rotating rank and draws from the engine RNG,
// so its state (the firing count) and its pending timer both matter to the
// remainder of the run.
type snapTestAgent struct {
	ctx    *Context
	period simtime.Duration
	fires  int64
}

func (a *snapTestAgent) Init(ctx *Context) {
	a.ctx = ctx
	ctx.AfterOwned(a.period, a, 0, 0)
}

func (a *snapTestAgent) OnTimer(kind uint8, arg int64) {
	a.fires++
	rank := int(a.fires) % a.ctx.NumRanks()
	a.ctx.SeizeCPU(rank, simtime.Duration(500+a.ctx.Rand().Intn(2000)), "snaptest", nil)
	if a.ctx.OpsRemaining() > 0 {
		a.ctx.AfterOwned(a.period, a, 0, 0)
	}
}

func (a *snapTestAgent) Quiesced() bool                    { return true }
func (a *snapTestAgent) EncodeState(enc *snapshot.Encoder) { enc.I64(a.fires) }
func (a *snapTestAgent) DecodeState(ctx *Context, dec *snapshot.Decoder) error {
	a.ctx = ctx
	a.fires = dec.I64()
	return dec.Err()
}

// snapConfig builds the canonical test configuration for seed: a random
// program (shared generator with fuzz_test.go) plus the periodic agent.
// Fresh agent objects each call — restore must fully overwrite them anyway,
// but the tests should not depend on that.
func snapConfig(seed uint64, collect func(Snapshot)) Config {
	net := network.DefaultParams()
	net.RendezvousThreshold = 64 * 1024
	prog := randomProgram(rng.New(seed))
	cfg := Config{Net: net, Program: prog,
		Agents: []Agent{&snapTestAgent{period: 40_000}},
		Seed:   seed, MaxEvents: 50_000_000}
	if collect != nil {
		cfg.SnapshotEvery = 1
		cfg.OnSnapshot = collect
	}
	return cfg
}

// monolithicRun executes the run uninterrupted, capturing a snapshot at
// every safe boundary (cadence 1) and the trace stream.
func monolithicRun(t *testing.T, seed uint64) ([]Snapshot, []TraceEvent, *Result) {
	t.Helper()
	var snaps []Snapshot
	var trace []TraceEvent
	cfg := snapConfig(seed, func(s Snapshot) { snaps = append(snaps, s) })
	cfg.Trace = func(ev TraceEvent) { trace = append(trace, ev) }
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatalf("seed %d: no safe boundary found in %d events", seed, res.Events)
	}
	return snaps, trace, res
}

// TestSnapshotRoundTrip: for several random programs, restoring any
// mid-run snapshot into a fresh engine reproduces the remainder of the run
// exactly — result, metrics, event count, and the trace suffix.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1234} {
		snaps, trace, res := monolithicRun(t, seed)
		// First, middle, and last boundary.
		for _, i := range []int{0, len(snaps) / 2, len(snaps) - 1} {
			s := snaps[i]
			var suffix []TraceEvent
			cfg := snapConfig(seed, nil)
			cfg.Trace = func(ev TraceEvent) { suffix = append(suffix, ev) }
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Restore(s.Blob); err != nil {
				t.Fatalf("seed %d snapshot %d (t=%v): %v", seed, i, s.Time, err)
			}
			got, err := eng.Run()
			if err != nil {
				t.Fatalf("seed %d snapshot %d: resumed run: %v", seed, i, err)
			}
			if got.Makespan != res.Makespan || got.Events != res.Events || got.Metrics != res.Metrics {
				t.Errorf("seed %d snapshot %d (t=%v, %d events): resumed run diverged "+
					"(makespan %v vs %v, events %d vs %d)",
					seed, i, s.Time, s.Events, got.Makespan, res.Makespan, got.Events, res.Events)
				continue
			}
			want := trace[s.TraceEvents:]
			if len(suffix) != len(want) {
				t.Errorf("seed %d snapshot %d: trace suffix has %d records, want %d",
					seed, i, len(suffix), len(want))
				continue
			}
			for j := range want {
				if suffix[j] != want[j] {
					t.Errorf("seed %d snapshot %d: trace record %d diverged:\n got %+v\nwant %+v",
						seed, i, j, suffix[j], want[j])
					break
				}
			}
		}
	}
}

// TestSnapshotReencodeIdentical: a freshly taken snapshot, restored into a
// fresh engine and re-encoded, gives back the exact blob, event-queue
// records included — the queue section is in (t, prio, seq) order, not
// in the storage order of whichever calendar layout wrote it.
func TestSnapshotReencodeIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1234} {
		snaps, _, _ := monolithicRun(t, seed)
		for i, s := range snaps {
			eng, err := New(snapConfig(seed, nil))
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Restore(s.Blob); err != nil {
				t.Fatalf("seed %d snapshot %d: %v", seed, i, err)
			}
			if !bytes.Equal(eng.encodeSnapshot(), s.Blob) {
				t.Fatalf("seed %d snapshot %d (t=%v, %d queued): re-encoding differs",
					seed, i, s.Time, eng.queue.Len())
			}
		}
	}
}

var updateSnapshots = flag.Bool("update", false, "rewrite testdata/snapshots from the current engine")

// seizeBacklog counts the seizures queued across all ranks.
func seizeBacklog(e *Engine) int {
	n := 0
	for i := range e.ranks {
		n += e.ranks[i].seizeQ.len()
	}
	return n
}

// TestSnapshotGoldenBlobs pins the snapshot format: each committed blob,
// one per seed and taken at the boundary with the deepest seize backlog,
// restores into a fresh engine, re-encodes to its own bytes, and resumes
// to the monolithic run's result. The blobs were sealed before the seize
// queue changed representation, so they also prove that the storage
// change left the bytes alone. The one allowed difference is the order of
// the trailing event-queue records: the blobs were sealed while snapshots
// listed them in calendar storage order, not the (t, prio, seq) order
// they use now, and the seed-1234 blob's order differs from it.
// An intended format change bumps snapshot.FormatVersion and rewrites the
// blobs with -update.
func TestSnapshotGoldenBlobs(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1234} {
		path := filepath.Join("testdata", "snapshots", fmt.Sprintf("seed-%d.bin", seed))
		if *updateSnapshots {
			writeDeepestSnapshot(t, seed, path)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(snapConfig(seed, nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(blob); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seizeBacklog(eng) == 0 {
			t.Errorf("seed %d: golden blob has no queued seizures", seed)
		}
		if err := sameUpToQueueOrder(eng, blob); err != nil {
			t.Errorf("seed %d: restored engine re-encodes differently: %v", seed, err)
		}
		got, err := eng.Run()
		if err != nil {
			t.Fatalf("seed %d: resumed run: %v", seed, err)
		}
		_, _, want := monolithicRun(t, seed)
		if got.Makespan != want.Makespan || got.Events != want.Events || got.Metrics != want.Metrics {
			t.Errorf("seed %d: resumed run diverged (makespan %v vs %v, events %d vs %d)",
				seed, got.Makespan, want.Makespan, got.Events, want.Events)
		}
	}
}

// sameUpToQueueOrder re-encodes eng, which was restored from blob, and
// requires the payload to equal blob's except that the trailing queue
// records, one encodeEvent each, may appear in another order. Records are
// self-delimiting, so matching them greedily as prefixes is exact.
func sameUpToQueueOrder(eng *Engine, blob []byte) error {
	_, want, err := snapshot.Open(blob)
	if err != nil {
		return err
	}
	_, got, err := snapshot.Open(eng.encodeSnapshot())
	if err != nil {
		return err
	}
	var records [][]byte
	tail := 0
	eng.queue.Items(func(t simtime.Time, prio int, seq uint64, ev event) bool {
		var enc snapshot.Encoder
		encodeEvent(&enc, t, prio, seq, &ev)
		records = append(records, enc.Bytes())
		tail += len(enc.Bytes())
		return true
	})
	if len(got) != len(want) || tail > len(want) {
		return fmt.Errorf("payload is %d bytes, golden %d", len(got), len(want))
	}
	head := len(want) - tail
	if !bytes.Equal(got[:head], want[:head]) {
		return fmt.Errorf("state before the queue records differs")
	}
	rest := want[head:]
	for len(rest) > 0 {
		i := slices.IndexFunc(records, func(r []byte) bool { return bytes.HasPrefix(rest, r) })
		if i < 0 {
			return fmt.Errorf("golden queue record at offset %d matches no queued event", len(want)-len(rest))
		}
		rest = rest[len(records[i]):]
		records = slices.Delete(records, i, i+1)
	}
	return nil
}

// writeDeepestSnapshot runs seed's configuration and writes the snapshot
// taken with the most seizures queued to path.
func writeDeepestSnapshot(t *testing.T, seed uint64, path string) {
	t.Helper()
	var eng *Engine
	var best []byte
	deepest := -1
	eng, err := New(snapConfig(seed, func(s Snapshot) {
		if d := seizeBacklog(eng); d > deepest {
			best, deepest = s.Blob, d
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, best, 0o644); err != nil {
		t.Fatal(err)
	}
}

// restoreInto builds a fresh engine for seed and restores blob into it.
func restoreInto(t *testing.T, seed uint64, blob []byte) error {
	t.Helper()
	eng, err := New(snapConfig(seed, nil))
	if err != nil {
		t.Fatal(err)
	}
	return eng.Restore(blob)
}

// TestSnapshotCorruptionTable: every way a blob can be damaged yields an
// error — never a panic, never a silently wrong resume.
func TestSnapshotCorruptionTable(t *testing.T) {
	const seed = 42
	snaps, _, _ := monolithicRun(t, seed)
	blob := snaps[len(snaps)/2].Blob

	t.Run("truncation", func(t *testing.T) {
		// Every prefix of the sealed blob, and — to get past the digest
		// check into the field decoders — every 7th prefix of the payload
		// re-sealed with a valid digest.
		for n := 0; n < len(blob); n++ {
			if err := restoreInto(t, seed, blob[:n]); err == nil {
				t.Fatalf("restore accepted a %d-byte prefix of a %d-byte blob", n, len(blob))
			}
		}
		_, payload, err := snapshot.Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(payload); n += 7 {
			resealed := snapshot.Seal(snapshot.FormatVersion, payload[:n])
			if err := restoreInto(t, seed, resealed); err == nil {
				t.Fatalf("restore accepted a re-sealed %d-byte payload prefix", n)
			}
		}
	})

	t.Run("bit-flips", func(t *testing.T) {
		// Single-bit flips in the sealed blob are all caught by the digest;
		// flips in the payload re-sealed with a fresh digest must be caught
		// by field validation. Sampled stride keeps this fast.
		for i := 0; i < len(blob); i += 11 {
			bad := append([]byte(nil), blob...)
			bad[i] ^= 1 << (i % 8)
			if err := restoreInto(t, seed, bad); err == nil {
				t.Fatalf("restore accepted blob with byte %d flipped", i)
			}
		}
		_, payload, err := snapshot.Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		diverged := 0
		for i := 0; i < len(payload); i += 5 {
			mut := append([]byte(nil), payload...)
			mut[i] ^= 1 << (i % 8)
			resealed := snapshot.Seal(snapshot.FormatVersion, mut)
			// A payload flip may land in a value the decoder cannot
			// distinguish from legitimate state (a counter, a duration);
			// those restore fine and merely simulate a different world.
			// What must never happen is a panic — which the harness turns
			// into a test failure — so an error OR a clean restore both
			// pass. Count the rejections to prove validation actually runs.
			if err := restoreInto(t, seed, resealed); err != nil {
				diverged++
			}
		}
		if diverged == 0 {
			t.Error("no payload mutation was rejected; is field validation wired up?")
		}
	})

	t.Run("version-mismatch", func(t *testing.T) {
		_, payload, _ := snapshot.Open(blob)
		bad := snapshot.Seal(snapshot.FormatVersion+1, payload)
		if err := restoreInto(t, seed, bad); !errors.Is(err, snapshot.ErrVersion) {
			t.Errorf("future format version: %v, want ErrVersion", err)
		}
	})

	t.Run("digest-flip", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)-1] ^= 0x01
		if err := restoreInto(t, seed, bad); !errors.Is(err, snapshot.ErrDigest) {
			t.Errorf("flipped digest: %v, want ErrDigest", err)
		}
	})

	t.Run("config-mismatch", func(t *testing.T) {
		// Same program, different seed: the config digest embedded in the
		// blob must refuse the restore.
		cfg := snapConfig(seed, nil)
		cfg.Seed = seed + 1
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(blob); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("different seed: %v, want ErrConfigMismatch", err)
		}
	})

	t.Run("restore-after-run", func(t *testing.T) {
		eng, err := New(snapConfig(seed, nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(blob); err == nil {
			t.Error("Restore accepted on an engine that already ran")
		}
	})

	t.Run("double-restore", func(t *testing.T) {
		eng, err := New(snapConfig(seed, nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(blob); err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(blob); err == nil {
			t.Error("second Restore accepted")
		}
	})

	t.Run("poisoned-after-failure", func(t *testing.T) {
		eng, err := New(snapConfig(seed, nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(blob[:len(blob)/2]); err == nil {
			t.Fatal("truncated restore accepted")
		}
		if _, err := eng.Run(); err == nil {
			t.Error("Run accepted on a poisoned (half-restored) engine")
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes to Engine.Restore through three
// doors of increasing depth: the raw blob (exercises framing), the bytes
// re-sealed as a payload (exercises the config-digest gate), and the bytes
// re-sealed behind the engine's real config digest (exercises every field
// decoder and bounds check). The contract under fuzz: an error or a clean
// restore, never a panic. A clean restore must then run without panicking.
//
// Smoke-run beyond the seed corpus with:
//
//	go test -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/sim
func FuzzSnapshotDecode(f *testing.F) {
	const seed = 42
	var snaps []Snapshot
	cfg := snapConfig(seed, func(s Snapshot) { snaps = append(snaps, s) })
	eng, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		f.Fatal(err)
	}
	_, realPayload, err := snapshot.Open(snaps[len(snaps)/2].Blob)
	if err != nil {
		f.Fatal(err)
	}
	digest := realPayload[:32]

	f.Add([]byte{})
	f.Add(snaps[0].Blob)
	f.Add(snaps[len(snaps)/2].Blob)
	f.Add(append([]byte(nil), realPayload...))
	f.Add(append([]byte(nil), realPayload[32:]...)) // digest-stripped payload
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := func() *Engine {
			e, err := New(snapConfig(seed, nil))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		tryRestore := func(blob []byte) {
			e := fresh()
			if err := e.Restore(blob); err != nil {
				return
			}
			if _, err := e.Run(); err != nil {
				// A valid snapshot may still describe a capped run; an
				// error is fine, a panic is not.
				return
			}
		}
		tryRestore(data)
		tryRestore(snapshot.Seal(snapshot.FormatVersion, data))
		tryRestore(snapshot.Seal(snapshot.FormatVersion, append(append([]byte(nil), digest...), data...)))
	})
}
