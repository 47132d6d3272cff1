package exp

import (
	"fmt"
	"strings"
	"testing"

	"checkpointsim/internal/storage"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 19 {
		t.Fatalf("expected 19 experiments, have %d", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if !strings.HasPrefix(e.Bench, "Benchmark"+e.ID) {
			t.Errorf("experiment %q bench name %q does not match its ID", e.ID, e.Bench)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		got, ok := ByID(e.ID)
		if !ok || got.Title != e.Title {
			t.Errorf("ByID(%q) failed", e.ID)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.net().Latency == 0 {
		t.Error("default net not set")
	}
	var zero Options
	if zero.net().Latency == 0 {
		t.Error("zero options should default the network")
	}
}

// Each experiment must run in Quick mode and produce non-empty tables.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take seconds each")
	}
	o := DefaultOptions()
	o.Quick = true
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables, err := e.Run(o)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if tb.NumRows() == 0 {
					t.Errorf("%s table %q is empty", e.ID, tb.Title)
				}
				if tb.String() == "" {
					t.Errorf("%s table %q renders empty", e.ID, tb.Title)
				}
			}
		})
	}
}

// Every experiment that writes through Options.Storage must reject an
// invalid parameter set rather than run unconstrained: the store is built
// by run.Build, whose error reaches the caller.
func TestInvalidStorageFails(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	o.Storage = storage.Params{AggregateBytesPerSec: -1}
	for _, id := range []string{"E4", "E8", "E17", "E19"} {
		e, _ := ByID(id)
		if _, err := e.Run(o); err == nil {
			t.Errorf("%s accepted negative aggregate bandwidth", id)
		}
	}
}

func TestE1PointToPointExact(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	tables, err := E1Validation(o)
	if err != nil {
		t.Fatal(err)
	}
	// Every point-to-point row must show ~zero error: the simulator
	// implements the model it is being compared to.
	s := tables[0].String()
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "eager") || strings.Contains(line, "rndzv") {
			fields := strings.Fields(line)
			errPct := fields[len(fields)-1]
			if errPct != "0" && errPct != "-0" {
				t.Errorf("nonzero model error in row: %s", line)
			}
		}
	}
}

func TestE2EPAbsorbsNoise(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	tables, err := E2Propagation(o)
	if err != nil {
		t.Fatal(err)
	}
	// The EP rows must have amplification close to 1 (absorption), and at
	// least one communicating workload must exceed it.
	var epAmp, maxOther float64
	for _, line := range strings.Split(tables[0].String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 5 {
			continue
		}
		var amp float64
		if _, err := fmtSscan(fields[len(fields)-1], &amp); err != nil {
			continue
		}
		switch fields[0] {
		case "ep":
			if amp > epAmp {
				epAmp = amp
			}
		case "stencil2d", "sweep", "stencil3d", "cg", "transpose":
			if amp > maxOther {
				maxOther = amp
			}
		}
	}
	if epAmp == 0 || maxOther == 0 {
		t.Fatalf("could not parse amplifications:\n%s", tables[0])
	}
	if epAmp > 1.4 {
		t.Errorf("EP amplification %v, want ~1 (absorption)", epAmp)
	}
	if maxOther <= epAmp {
		t.Errorf("no communicating workload amplified noise: ep=%v max=%v", epAmp, maxOther)
	}
}

// fmtSscan wraps fmt.Sscan for the parse-or-skip idiom above.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

// parseLastFloat extracts the float in the given column (from the right) of
// table rows whose first field matches.
func rowsOf(table string, first string) [][]string {
	var out [][]string
	for _, line := range strings.Split(table, "\n") {
		fields := strings.Fields(line)
		if len(fields) > 0 && fields[0] == first {
			out = append(out, fields)
		}
	}
	return out
}

func TestE9AlignedBeatsStaggeredOnCoupledCode(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	tables, err := E9Stagger(o)
	if err != nil {
		t.Fatal(err)
	}
	s := tables[0].String()
	var aligned, staggered float64
	for _, f := range rowsOf(s, "stencil2d") {
		var v float64
		if _, err := fmt.Sscan(f[2], &v); err != nil {
			continue
		}
		switch f[1] {
		case "aligned":
			aligned = v
		case "staggered":
			staggered = v
		}
	}
	if aligned == 0 || staggered == 0 {
		t.Fatalf("could not parse overheads:\n%s", s)
	}
	if aligned >= staggered {
		t.Errorf("aligned %.1f%% should beat staggered %.1f%% on stencil2d", aligned, staggered)
	}
}

func TestE11NonBlockingBeatsBlocking(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	tables, err := E11NonBlocking(o)
	if err != nil {
		t.Fatal(err)
	}
	s := tables[0].String()
	var blocking, nonblocking float64
	for _, f := range rowsOf(s, "stencil2d") {
		var v float64
		if _, err := fmt.Sscan(f[len(f)-2], &v); err != nil {
			continue
		}
		switch f[1] {
		case "blocking":
			blocking = v
		case "non-blocking":
			nonblocking = v
		}
	}
	if blocking == 0 {
		t.Fatalf("could not parse blocking row:\n%s", s)
	}
	if nonblocking >= blocking {
		t.Errorf("non-blocking %.1f%% should beat blocking %.1f%%", nonblocking, blocking)
	}
}

func TestE15ResonanceMonotoneForCoupledCode(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	tables, err := E15Resonance(o)
	if err != nil {
		t.Fatal(err)
	}
	s := tables[0].String()
	var amps []float64
	for _, f := range rowsOf(s, "stencil2d") {
		var v float64
		if _, err := fmt.Sscan(f[len(f)-1], &v); err != nil {
			continue
		}
		amps = append(amps, v)
	}
	if len(amps) < 2 {
		t.Fatalf("could not parse amplifications:\n%s", s)
	}
	// Coarser interruptions amplify at least as much as finer ones.
	if amps[len(amps)-1] <= amps[0] {
		t.Errorf("coarse amplification %v not above fine %v", amps[len(amps)-1], amps[0])
	}
}

func TestE3SyncIdleDominatesTreeLatency(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	tables, err := E3Coordination(o)
	if err != nil {
		t.Fatal(err)
	}
	s := tables[0].String()
	// For every scale row, quiesce > tree-model (columns 3 and 4).
	found := 0
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) < 7 || (f[0] != "16" && f[0] != "64") {
			continue
		}
		found++
		// Parse durations loosely: sync-idle (col 5) must not be negative,
		// i.e. must not start with "-" beyond the placeholder.
		if strings.HasPrefix(f[4], "-") && f[4] != "-" {
			t.Errorf("negative sync idle in row: %s", line)
		}
	}
	if found == 0 {
		t.Fatalf("no scale rows parsed:\n%s", s)
	}
}
