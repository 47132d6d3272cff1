package exp

import (
	"context"
	"errors"
	"testing"
	"time"

	"checkpointsim/internal/cache"
	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/failure"
	"checkpointsim/internal/network"
	"checkpointsim/internal/noise"
	"checkpointsim/internal/run"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
)

func keyOf(id string, o Options) string { return cache.Key("test", o.CacheFields(id)) }

// Every knob that can change a completed run's rows must move the key.
func TestCacheFieldsCoverResultKnobs(t *testing.T) {
	base := DefaultOptions()
	mutations := map[string]func(*Options){
		"seed":              func(o *Options) { o.Seed = 43 },
		"quick":             func(o *Options) { o.Quick = true },
		"validate":          func(o *Options) { o.Validate = true },
		"net preset":        func(o *Options) { o.Net = network.EthernetClassParams() },
		"net latency":       func(o *Options) { o.Net = base.Net; o.Net.Latency++ },
		"net gap/byte":      func(o *Options) { o.Net = base.Net; o.Net.GapPerByte *= 2 },
		"net bisection":     func(o *Options) { o.Net = base.Net; o.Net.BisectionBytesPerSec = 1e9 },
		"storage aggregate": func(o *Options) { o.Storage.AggregateBytesPerSec = 1e9 },
		"storage writer":    func(o *Options) { o.Storage.PerWriterBytesPerSec = 1e9 },
		"storage node":      func(o *Options) { o.Storage.NodeBytesPerSec = 1e9 },
		"storage ranks":     func(o *Options) { o.Storage.RanksPerNode = 4 },
	}
	ref := keyOf("E1", base)
	for name, mutate := range mutations {
		o := base
		mutate(&o)
		if keyOf("E1", o) == ref {
			t.Errorf("mutating %s did not change the cache key", name)
		}
	}
	if keyOf("E2", base) == ref {
		t.Error("experiment id does not partition the key space")
	}
}

// Knobs that provably cannot change rows must not fragment the key space:
// worker count (determinism guarantee), telemetry, and cancellation.
func TestCacheFieldsIgnoreExecutionKnobs(t *testing.T) {
	base := DefaultOptions()
	ref := keyOf("E1", base)

	var events int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := base
	o.Jobs = 7
	o.Events = &events
	o.Ctx = ctx
	if keyOf("E1", o) != ref {
		t.Error("Jobs/Events/Ctx leaked into the cache key; identical configs at different parallelism would miss")
	}
}

// Net is addressed as resolved: the zero value and an explicit
// DefaultParams() run identically, so they must hit the same entry.
func TestCacheFieldsResolveNetDefault(t *testing.T) {
	zero := Options{Seed: 42}
	explicit := Options{Seed: 42, Net: network.DefaultParams()}
	if keyOf("E1", zero) != keyOf("E1", explicit) {
		t.Error("zero Net and DefaultParams() produce different keys for identical runs")
	}
}

// The storage zero value (legacy fixed-duration path) must key differently
// from any constrained store.
func TestCacheFieldsStorageZeroDistinct(t *testing.T) {
	base := DefaultOptions()
	constrained := base
	constrained.Storage = storage.Params{AggregateBytesPerSec: 64e9}
	if keyOf("E17", base) == keyOf("E17", constrained) {
		t.Error("constrained and unconstrained storage share a key")
	}
}

// A dead context aborts an experiment before any sweep point runs, and the
// error is the context's.
func TestExperimentContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := DefaultOptions()
	o.Quick = true
	o.Ctx = ctx
	var events int64
	o.Events = &events
	_, err := E1Validation(o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if events != 0 {
		t.Errorf("%d simulation events ran under a dead context", events)
	}
}

// A timeout that expires mid-sweep surfaces context.DeadlineExceeded: the
// worker pool stops dequeuing points rather than running the sweep out.
func TestExperimentContextTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick experiment")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	o := DefaultOptions()
	o.Quick = true
	o.Ctx = ctx
	if _, err := E8Crossover(o); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// The exact key bytes are part of the cache's compatibility contract: a
// refactor of how fields are rendered must not move any existing entry.
// One value of each addressable type is pinned, with non-default network
// and storage fields so every shared rendering is exercised.
func TestCacheKeysPinned(t *testing.T) {
	net := network.EthernetClassParams()
	net.BisectionBytesPerSec = 40e9
	st := storage.Params{AggregateBytesPerSec: 2e9, PerWriterBytesPerSec: 0.5e9,
		NodeBytesPerSec: 8e9, RanksPerNode: 4}
	cfg := run.RunConfig{
		Workload: "cg", Ranks: 16, Iterations: 20, Compute: simtime.Millisecond,
		Jitter: 0.05, MsgBytes: 4096, Net: net, Storage: st, Seed: 7,
		MaxTime: simtime.Time(simtime.Second),
		Protocol: run.ProtocolConfig{Kind: run.ProtoUncoordinated,
			Interval: 10 * simtime.Millisecond, Write: simtime.Millisecond,
			Offset: "staggered", Logging: checkpoint.LogParams{Alpha: simtime.Microsecond, BetaNsPerByte: 0.2}},
		Noise:    &noise.Config{Period: 5 * simtime.Millisecond, Duration: 50 * simtime.Microsecond},
		Failures: &failure.Config{MTBF: simtime.Second, Restart: simtime.Millisecond, Kind: failure.ReplayLocal},
	}
	o := Options{Net: net, Storage: st, Seed: 3, Quick: true, Validate: true}
	sc := Scenario{Workload: "stencil2d", Ranks: 32, Protocol: "coordinated",
		FailureLaw: "weibull", Storage: "pfs", Noise: "periodic", Seed: 11}
	for _, tc := range []struct {
		name, got, want string
	}{
		{"RunConfig", cache.Key("test", cfg.CacheFields()), "2a20e5319232a30e1bf03f14357cbcc358ccfa843eb05f6bedfcaca55f437a1d"},
		{"RunConfig/zero-net", cache.Key("test", run.RunConfig{Workload: "ring", Ranks: 4}.CacheFields()), "d3e192eebf79bd5d8e32ac8160e80d1cf04f1f1a35a5c1ed0895405dea7270db"},
		{"Options", cache.Key("test", o.CacheFields("E8")), "6bbf04739505ad85cd699ec6c9fa0a7e64c27e28be65da7e653b98b122ee3134"},
		{"Options/default", cache.Key("test", DefaultOptions().CacheFields("E1")), "d7e77e3987e700a89df01435d4b3e95d26680f277839142953261bc4a3bc1a4b"},
		{"Scenario", cache.Key("test", sc.CacheFields(net)), "ac8a47f81a4ae2de426c3e1b38f030178f5052f1969ab381f1b0cb6a8d5290b1"},
		{"Scenario/zero-net", cache.Key("test", sc.CacheFields(network.Params{})), "f2179f669bca2dc8e0cce9fc6e96e99a5640c32905b5c6aec6804918664d2511"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: key %s, pinned %s", tc.name, tc.got, tc.want)
		}
	}
}
