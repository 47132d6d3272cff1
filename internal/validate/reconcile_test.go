package validate_test

import (
	"strings"
	"testing"

	"checkpointsim/internal/checkpoint"
	"checkpointsim/internal/network"
	"checkpointsim/internal/sim"
	"checkpointsim/internal/simtime"
	"checkpointsim/internal/storage"
	"checkpointsim/internal/validate"
)

// Protocols whose reported counters are doctored; everything else
// (policy, degree, lag threshold) is the real protocol's.
type (
	doctoredLogger struct {
		*checkpoint.Uncoordinated
		stats checkpoint.Stats
	}
	doctoredReplica struct {
		*checkpoint.Replication
		stats checkpoint.Stats
	}
	doctoredCIC struct {
		*checkpoint.CIC
		stats checkpoint.Stats
	}
)

func (d doctoredLogger) Stats() checkpoint.Stats  { return d.stats }
func (d doctoredReplica) Stats() checkpoint.Stats { return d.stats }
func (d doctoredCIC) Stats() checkpoint.Stats     { return d.stats }

// Reconcile is the one post-run sweep every runner calls. It passes a
// faithful run, and one doctored counter in any family — storage, logging,
// replication, CIC — makes it report that family's violation.
func TestReconcileDispatch(t *testing.T) {
	net := network.DefaultParams()
	ring := ringProgram(4, 20, smallMsg, bigMsg, 50*simtime.Microsecond)
	params := checkpoint.Params{Interval: 700 * simtime.Microsecond, Write: 100 * simtime.Microsecond}

	// check feeds the recorded trace to a fresh checker for each call, so
	// the doctored reconciliation cannot see the faithful one's verdict.
	check := func(t *testing.T, events []sim.TraceEvent, want string, faithful, doctored func(*validate.Checker) error) {
		t.Helper()
		feed := func() *validate.Checker {
			c := validate.New(net)
			for _, ev := range events {
				c.Add(ev)
			}
			return c
		}
		if err := faithful(feed()); err != nil {
			t.Fatalf("faithful run rejected: %v", err)
		}
		if err := doctored(feed()); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("doctored run: got %v, want a %q violation", err, want)
		}
	}

	t.Run("storage", func(t *testing.T) {
		sp := storage.Params{AggregateBytesPerSec: 1e9}
		st, err := storage.New(sp)
		if err != nil {
			t.Fatal(err)
		}
		p := params
		p.Store = st
		cp, err := checkpoint.NewCoordinated(p)
		if err != nil {
			t.Fatal(err)
		}
		events, res := runTraced(t, net, ring, cp)
		if st.Stats().Writes == 0 {
			t.Fatal("scenario drained no writes — storage check was vacuous")
		}
		// A store that drained nothing disagrees with every traced write.
		idle, err := storage.New(sp)
		if err != nil {
			t.Fatal(err)
		}
		check(t, events, "store reports",
			func(c *validate.Checker) error { return c.Reconcile(res, st, cp) },
			func(c *validate.Checker) error { return c.Reconcile(res, idle, cp) })
	})

	t.Run("logging", func(t *testing.T) {
		cp, err := checkpoint.NewUncoordinated(params, checkpoint.Staggered,
			checkpoint.LogParams{Alpha: 500 * simtime.Nanosecond, BetaNsPerByte: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		events, res := runTraced(t, net, ring, cp)
		st := cp.Stats()
		st.LoggedMessages++
		check(t, events, "logging:",
			func(c *validate.Checker) error { return c.Reconcile(res, nil, cp) },
			func(c *validate.Checker) error { return c.Reconcile(res, nil, doctoredLogger{cp, st}) })
	})

	t.Run("replication", func(t *testing.T) {
		rp, events, res := replicationScenario(t)
		st := rp.Stats()
		st.MirroredMessages++
		check(t, events, "replication:",
			func(c *validate.Checker) error { return c.Reconcile(res, nil, rp) },
			func(c *validate.Checker) error { return c.Reconcile(res, nil, doctoredReplica{rp, st}) })
	})

	t.Run("cic", func(t *testing.T) {
		cic, events, res := cicScenario(t)
		st := cic.Stats()
		st.Forced++
		check(t, events, "cic:",
			func(c *validate.Checker) error { return c.Reconcile(res, nil, cic) },
			func(c *validate.Checker) error { return c.Reconcile(res, nil, doctoredCIC{cic, st}) })
	})
}
