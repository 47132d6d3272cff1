package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func baseline() File {
	return File{Schema: Schema, Go: "go1.22", Mode: "quick", Entries: []Entry{
		{Name: "E8", NsPerOp: 50e6, AllocsPerOp: 90000, BytesPerOp: 15e6, EventsPerSec: 2e6},
		{Name: "E17", NsPerOp: 38e6, AllocsPerOp: 78000, BytesPerOp: 17e6, EventsPerSec: 3e6},
	}}
}

func TestCompareIdenticalPasses(t *testing.T) {
	f := baseline()
	if regs := Compare(f, f, 0.10); len(regs) != 0 {
		t.Fatalf("identical files produced regressions: %+v", regs)
	}
	out := FormatComparison(f, f, nil, 0.10)
	if !strings.Contains(out, "PASS") {
		t.Fatalf("comparison report missing PASS:\n%s", out)
	}
}

func TestCompareFlagsSyntheticRegression(t *testing.T) {
	old := baseline()
	cur := baseline()
	cur.Entries[0].NsPerOp *= 2 // E8 wall time doubles
	regs := Compare(old, cur, 0.10)
	if len(regs) != 1 {
		t.Fatalf("want exactly the E8 ns/op regression, got %+v", regs)
	}
	r := regs[0]
	if r.Name != "E8" || r.Metric != "ns/op" {
		t.Fatalf("wrong regression identified: %+v", r)
	}
	if got := r.Ratio(); got < 1.99 || got > 2.01 {
		t.Fatalf("ratio = %v, want ~2", got)
	}
	out := FormatComparison(old, cur, regs, 0.10)
	if !strings.Contains(out, "FAIL: E8 ns/op") {
		t.Fatalf("report missing failure line:\n%s", out)
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	old := baseline()
	cur := baseline()
	cur.Entries[1].AllocsPerOp = old.Entries[1].AllocsPerOp * 3
	regs := Compare(old, cur, 0.25)
	if len(regs) != 1 || regs[0].Name != "E17" || regs[0].Metric != "allocs/op" {
		t.Fatalf("want the E17 allocs/op regression, got %+v", regs)
	}
}

func TestCompareFlagsThroughputRegression(t *testing.T) {
	old := baseline()
	cur := baseline()
	cur.Entries[0].EventsPerSec = old.Entries[0].EventsPerSec * 0.5
	regs := Compare(old, cur, 0.25)
	if len(regs) != 1 || regs[0].Name != "E8" || regs[0].Metric != "events/sec" {
		t.Fatalf("want the E8 events/sec regression, got %+v", regs)
	}
	// A drop inside the band passes.
	cur.Entries[0].EventsPerSec = old.Entries[0].EventsPerSec * 0.8
	if regs := Compare(old, cur, 0.25); len(regs) != 0 {
		t.Fatalf("in-band throughput drop flagged: %+v", regs)
	}
}

func TestCompareSkipsZeroEventsPerSec(t *testing.T) {
	// Entries recorded before the events counter existed carry zero — the
	// gate must skip the throughput ratio for them, in either direction,
	// rather than produce a divide-by-zero or infinite-ratio verdict.
	old := baseline()
	old.Entries[0].EventsPerSec = 0 // zero baseline, measured current
	cur := baseline()
	if regs := Compare(old, cur, 0.10); len(regs) != 0 {
		t.Fatalf("zero-baseline entry flagged: %+v", regs)
	}
	old = baseline()
	cur.Entries[0].EventsPerSec = 0 // measured baseline, zero current
	if regs := Compare(old, cur, 0.10); len(regs) != 0 {
		t.Fatalf("zero-current entry flagged: %+v", regs)
	}
	old.Entries[0].EventsPerSec = 0 // zero on both sides
	if regs := Compare(old, cur, 0.10); len(regs) != 0 {
		t.Fatalf("zero-both entry flagged: %+v", regs)
	}
	for _, r := range Compare(old, cur, 0.10) {
		if r.Ratio() != r.Ratio() { // NaN check
			t.Fatalf("NaN ratio from zero entry: %+v", r)
		}
	}
}

// Bytes/op appears old→new in the table but never gates: a fivefold
// change in either direction still passes.
func TestCompareReportsBytesWithoutGating(t *testing.T) {
	old := baseline()
	cur := baseline()
	cur.Entries[0].BytesPerOp = old.Entries[0].BytesPerOp * 5
	cur.Entries[1].BytesPerOp = old.Entries[1].BytesPerOp / 5
	cur.Entries = append(cur.Entries, Entry{Name: "E99", NsPerOp: 1e6, BytesPerOp: 2_500_000})
	regs := Compare(old, cur, 0.10)
	if len(regs) != 0 {
		t.Fatalf("bytes/op change flagged as a regression: %+v", regs)
	}
	out := FormatComparison(old, cur, regs, 0.10)
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[0], "old MB/op") || !strings.Contains(lines[0], "new MB/op") {
		t.Fatalf("header lacks the bytes columns:\n%s", out)
	}
	// The last two columns of each row (before any note) are old and new MB/op.
	for name, want := range map[string]string{"E8": "15.00 75.00", "E17": "17.00 3.40", "E99": "- 2.50"} {
		found := false
		for _, line := range lines {
			f := strings.Fields(strings.TrimSuffix(line, "  (no baseline)"))
			if len(f) == 8 && f[0] == name {
				found = true
				if got := f[6] + " " + f[7]; got != want {
					t.Errorf("%s MB/op columns = %q, want %q", name, got, want)
				}
			}
		}
		if !found {
			t.Errorf("no %s row in:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "PASS") {
		t.Fatalf("report missing PASS:\n%s", out)
	}
}

func TestCompareWithinToleranceAndNewEntries(t *testing.T) {
	old := baseline()
	cur := baseline()
	cur.Entries[0].NsPerOp *= 1.08 // inside a 10% band
	cur.Entries = append(cur.Entries, Entry{Name: "E99", NsPerOp: 1e6})
	if regs := Compare(old, cur, 0.10); len(regs) != 0 {
		t.Fatalf("tolerated drift or baseline-less entry flagged: %+v", regs)
	}
}

func TestParseTolerance(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
	}{
		{"10%", 0.10},
		{"25%", 0.25},
		{"0.1", 0.10},
		{" 0.5% ", 0.005},
		{"0", 0},
	} {
		got, err := ParseTolerance(tc.in)
		if err != nil {
			t.Fatalf("ParseTolerance(%q): %v", tc.in, err)
		}
		if diff := got - tc.want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("ParseTolerance(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "x", "-1", "-5%"} {
		if _, err := ParseTolerance(bad); err == nil {
			t.Fatalf("ParseTolerance(%q) accepted", bad)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	want := baseline()
	if err := writeFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(want.Entries) || got.Schema != Schema ||
		got.Entries[0] != want.Entries[0] || got.Entries[1] != want.Entries[1] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// A foreign schema must be rejected, not silently compared.
	bad := want
	bad.Schema = "other/v9"
	if err := writeFile(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := readFile(path); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

func TestResolveIDs(t *testing.T) {
	ids, err := resolveIDs("all")
	if err != nil || len(ids) != 19 {
		t.Fatalf("all -> %d ids, err %v", len(ids), err)
	}
	ids, err = resolveIDs("E8, E17")
	if err != nil || len(ids) != 2 || ids[0] != "E8" || ids[1] != "E17" {
		t.Fatalf("subset -> %v, err %v", ids, err)
	}
	if _, err := resolveIDs("E99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := resolveIDs(""); err == nil {
		t.Fatal("empty selection accepted")
	}
}
