package main

import (
	"fmt"
	"strconv"
	"strings"
)

// Schema identifies the BENCH.json format; bump on incompatible change.
const Schema = "checkpointsim-bench/v1"

// Entry is one experiment's measurement. EventsPerSec is zero for entries
// recorded before the events counter existed (or when nothing simulated).
type Entry struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// File is the BENCH.json document.
type File struct {
	Schema  string  `json:"schema"`
	Go      string  `json:"go"`
	Mode    string  `json:"mode"`
	Entries []Entry `json:"entries"`
}

// find returns the entry named name, if present.
func (f File) find(name string) (Entry, bool) {
	for _, e := range f.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Regression is one metric of one experiment that slowed beyond tolerance.
type Regression struct {
	Name   string
	Metric string // "ns/op" or "allocs/op"
	Old    float64
	New    float64
}

// Ratio is the slowdown factor (>1 means the new run is worse).
func (r Regression) Ratio() float64 {
	if r.Old == 0 {
		return 0
	}
	return r.New / r.Old
}

// Compare diffs cur against old and returns every metric that regressed
// beyond tol (a fraction: 0.10 allows a 10% slowdown). Wall time,
// allocation count, and event throughput all gate — an alloc regression is
// a real hot-path change even when the machine is fast enough to hide it,
// and events/sec catches an engine that got slower per event while the
// experiment got cheaper overall. The events/sec ratio is skipped when
// either side recorded zero: entries written before the events counter
// existed (or runs that simulated nothing) are documented to carry zero,
// and a zero baseline must read as "no data", not as an infinite-ratio
// verdict. Entries present in only one file are skipped: a new experiment
// has no baseline, and a retired one has nothing to protect. Modes must
// match; comparing a quick run against a full baseline would flag
// nonsense.
func Compare(old, cur File, tol float64) []Regression {
	var regs []Regression
	for _, n := range cur.Entries {
		o, ok := old.find(n.Name)
		if !ok {
			continue
		}
		if exceeded(o.NsPerOp, n.NsPerOp, tol) {
			regs = append(regs, Regression{n.Name, "ns/op", o.NsPerOp, n.NsPerOp})
		}
		if exceeded(float64(o.AllocsPerOp), float64(n.AllocsPerOp), tol) {
			regs = append(regs, Regression{n.Name, "allocs/op",
				float64(o.AllocsPerOp), float64(n.AllocsPerOp)})
		}
		// Throughput regresses downward, so the check inverts: cur below
		// old's tolerance band fails.
		if o.EventsPerSec > 0 && n.EventsPerSec > 0 &&
			n.EventsPerSec < o.EventsPerSec*(1-tol) {
			regs = append(regs, Regression{n.Name, "events/sec",
				o.EventsPerSec, n.EventsPerSec})
		}
	}
	return regs
}

// exceeded reports whether cur regressed past old by more than tol.
func exceeded(old, cur, tol float64) bool {
	return old > 0 && cur > old*(1+tol)
}

// ParseTolerance accepts "10%", "0.1", or "0.1%"-style strings and returns
// the fractional tolerance.
func ParseTolerance(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad tolerance %q (want e.g. 10%% or 0.1)", s)
	}
	if pct {
		v /= 100
	}
	return v, nil
}

// FormatComparison renders the old-vs-new table plus a verdict line. The
// speedup column reads >1 for improvements so before/after snapshots
// double as a progress report. Bytes/op is shown but not gated: a FIFO
// that keeps its drained slots moves bytes, not allocation counts, so
// the column is where such a change shows.
func FormatComparison(old, cur File, regs []Regression, tol float64) string {
	var sb strings.Builder
	if old.Mode != cur.Mode {
		fmt.Fprintf(&sb, "warning: comparing %s run against %s baseline\n", cur.Mode, old.Mode)
	}
	fmt.Fprintf(&sb, "%-5s %12s %12s %8s %14s %14s %10s %10s\n",
		"exp", "old ms/op", "new ms/op", "speedup", "old allocs/op", "new allocs/op",
		"old MB/op", "new MB/op")
	for _, n := range cur.Entries {
		o, ok := old.find(n.Name)
		if !ok {
			fmt.Fprintf(&sb, "%-5s %12s %12.2f %8s %14s %14d %10s %10.2f  (no baseline)\n",
				n.Name, "-", n.NsPerOp/1e6, "-", "-", n.AllocsPerOp, "-", mb(n.BytesPerOp))
			continue
		}
		speedup := 0.0
		if n.NsPerOp > 0 {
			speedup = o.NsPerOp / n.NsPerOp
		}
		fmt.Fprintf(&sb, "%-5s %12.2f %12.2f %7.2fx %14d %14d %10.2f %10.2f\n",
			n.Name, o.NsPerOp/1e6, n.NsPerOp/1e6, speedup, o.AllocsPerOp, n.AllocsPerOp,
			mb(o.BytesPerOp), mb(n.BytesPerOp))
	}
	if len(regs) == 0 {
		fmt.Fprintf(&sb, "PASS: no regression beyond %.0f%%\n", tol*100)
		return sb.String()
	}
	for _, r := range regs {
		fmt.Fprintf(&sb, "FAIL: %s %s regressed %.2fx (%.4g -> %.4g, tolerance %.0f%%)\n",
			r.Name, r.Metric, r.Ratio(), r.Old, r.New, tol*100)
	}
	return sb.String()
}

// mb converts bytes to decimal megabytes for the report.
func mb(bytes int64) float64 { return float64(bytes) / 1e6 }
