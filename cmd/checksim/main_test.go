package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func capture(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestList(t *testing.T) {
	out := capture(t, "-list")
	for _, w := range []string{"stencil2d", "cg", "transpose", "ep", "straggler"} {
		if !strings.Contains(out, w) {
			t.Errorf("list missing %s:\n%s", w, out)
		}
	}
}

func TestBasicRun(t *testing.T) {
	out := capture(t, "-workload", "cg", "-ranks", "8", "-iters", "5",
		"-protocol", "coordinated", "-interval", "5ms", "-write", "500us")
	for _, want := range []string{"protocol:  coordinated", "makespan", "checkpoints:", "finish skew"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithFailuresAndNoise(t *testing.T) {
	out := capture(t, "-workload", "stencil2d", "-ranks", "16", "-iters", "30",
		"-protocol", "uncoordinated", "-offset", "staggered",
		"-interval", "5ms", "-write", "200us", "-log-alpha", "1us",
		"-mtbf", "640ms", "-recovery", "local",
		"-noise-period", "5ms", "-noise-duration", "50us",
		"-seed", "16", "-max-time", "30s")
	if !strings.Contains(out, "failures:") {
		t.Errorf("no failures reported:\n%s", out)
	}
	if !strings.Contains(out, "logging:") {
		t.Errorf("no logging reported:\n%s", out)
	}
}

func TestTimelineOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "timeline.csv")
	capture(t, "-workload", "ep", "-ranks", "4", "-iters", "3", "-timeline", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "rank,kind,start_ns,end_ns\n") {
		t.Errorf("timeline header wrong: %q", s[:50])
	}
	if !strings.Contains(s, "calc") {
		t.Error("timeline has no calc records")
	}
}

func TestNetPresetAndBisection(t *testing.T) {
	capture(t, "-workload", "transpose", "-ranks", "8", "-iters", "3",
		"-net", "ethernet", "-bisection", "10")
	var sb strings.Builder
	if err := run([]string{"-net", "bogus"}, &sb); err == nil {
		t.Error("bogus net preset accepted")
	}
	if err := run([]string{"-bisection", "-1"}, &sb); err == nil {
		t.Error("negative bisection accepted")
	}
}

func TestBadFlagValues(t *testing.T) {
	var sb strings.Builder
	cases := [][]string{
		{"-compute", "xx"},
		{"-interval", "yy"},
		{"-write", "zz"},
		{"-log-alpha", "qq"},
		{"-max-time", "ww"},
		{"-mtbf", "bogus"},
		{"-mtbf", "1s", "-restart", "bogus"},
		{"-mtbf", "1s", "-recovery", "bogus"},
		{"-recovery", "bogus"}, // failures off: still a typo
		{"-noise-period", "bogus"},
		{"-workload", "nonexistent"},
	}
	for _, c := range cases {
		if err := run(c, &sb); err == nil {
			t.Errorf("args %v accepted", c)
		}
	}
}

// The storage flags route the protocol's writes through the shared store:
// aligned uncoordinated writers through a tight pipe must report storage
// stats with contention (wait time), and bad bandwidths must be rejected.
func TestStorageFlags(t *testing.T) {
	out := capture(t, "-workload", "ep", "-ranks", "8", "-iters", "40",
		"-protocol", "uncoordinated", "-offset", "aligned",
		"-interval", "5ms", "-write", "1ms",
		"-store-agg", "1", "-image-bytes", "1000000")
	if !strings.Contains(out, "storage:") {
		t.Errorf("no storage stats line:\n%s", out)
	}
	if !strings.Contains(out, "peak") {
		t.Errorf("storage line missing peak writers:\n%s", out)
	}
	// Unconstrained run: no storage flags -> no storage line.
	out = capture(t, "-workload", "ep", "-ranks", "4", "-iters", "5",
		"-protocol", "coordinated", "-interval", "5ms", "-write", "500us")
	if strings.Contains(out, "storage:") {
		t.Errorf("storage line printed without storage flags:\n%s", out)
	}
	var sb strings.Builder
	for _, c := range [][]string{
		{"-store-agg", "-1"},
		{"-store-writer", "-1"},
		{"-store-node", "-1"},
	} {
		if err := run(c, &sb); err == nil {
			t.Errorf("args %v accepted", c)
		}
	}
}

func TestGanttOutput(t *testing.T) {
	out := capture(t, "-workload", "stencil2d", "-ranks", "4", "-iters", "10",
		"-protocol", "coordinated", "-interval", "5ms", "-write", "1ms",
		"-gantt", "-gantt-width", "50")
	for _, want := range []string{"utilization:", "gantt:", "r0 ", "X"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt output missing %q:\n%s", want, out)
		}
	}
}

func TestExtendedProtocolFlags(t *testing.T) {
	out := capture(t, "-workload", "stencil2d", "-ranks", "8", "-iters", "15",
		"-protocol", "twolevel", "-interval", "20ms", "-write", "2ms",
		"-local-interval", "3ms", "-local-write", "100us")
	if !strings.Contains(out, "protocol:  twolevel") {
		t.Errorf("twolevel not selected:\n%s", out)
	}
	out = capture(t, "-workload", "cg", "-ranks", "8", "-iters", "10",
		"-protocol", "nonblocking", "-window", "4ms", "-slowdown", "1.25")
	if !strings.Contains(out, "nonblocking-coordinated") {
		t.Errorf("nonblocking not selected:\n%s", out)
	}
	out = capture(t, "-workload", "ep", "-ranks", "8", "-iters", "10",
		"-protocol", "partner", "-ckpt-bytes", "65536")
	if !strings.Contains(out, "protocol:  partner") {
		t.Errorf("partner not selected:\n%s", out)
	}
	out = capture(t, "-workload", "ep", "-ranks", "4", "-iters", "20",
		"-protocol", "uncoordinated", "-interval", "3ms", "-write", "500us",
		"-incr-every", "4", "-incr-fraction", "0.25")
	if !strings.Contains(out, "incremental") {
		t.Errorf("incremental not selected:\n%s", out)
	}
	var sb strings.Builder
	for _, c := range [][]string{
		{"-protocol", "nonblocking", "-window", "bogus"},
		{"-protocol", "twolevel", "-local-interval", "bogus"},
		{"-protocol", "twolevel", "-local-write", "bogus"},
	} {
		if err := run(c, &sb); err == nil {
			t.Errorf("args %v accepted", c)
		}
	}
}

// Every recovery discipline of the facade is reachable from -recovery:
// cluster rollback for hierarchical protocols and the two-level dispatch
// pass validation, and each differs from global rollback on the same run.
func TestRecoveryDisciplines(t *testing.T) {
	for _, tc := range []struct {
		recovery string
		args     []string
	}{
		{"cluster", []string{"-protocol", "hierarchical", "-cluster", "4", "-mtbf", "200ms"}},
		{"twolevel", []string{"-protocol", "twolevel", "-mtbf", "100ms"}},
	} {
		t.Run(tc.recovery, func(t *testing.T) {
			with := func(recovery string) string {
				return capture(t, append([]string{"-ranks", "16", "-iters", "20", "-validate",
					"-recovery", recovery}, tc.args...)...)
			}
			out := with(tc.recovery)
			for _, want := range []string{"validate:  ok", "failures:"} {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
			if with("global") == out {
				t.Errorf("-recovery %s ran as global rollback:\n%s", tc.recovery, out)
			}
		})
	}
}

// A zero -mtbf or -noise-period means "off", like the other zero-valued
// knobs; an empty value is a parse error.
func TestZeroDurationMeansOff(t *testing.T) {
	base := []string{"-workload", "ep", "-ranks", "4", "-iters", "5"}
	plain := capture(t, base...)
	for _, flag := range []string{"-mtbf", "-noise-period"} {
		if got := capture(t, append(base, flag, "0")...); got != plain {
			t.Errorf("%s 0 changed the run:\n%s\nwant:\n%s", flag, got, plain)
		}
		var sb strings.Builder
		if err := run(append(base, flag, ""), &sb); err == nil {
			t.Errorf("%s \"\" accepted", flag)
		}
	}
}

// -cpuprofile and -memprofile each write a pprof profile of the run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	capture(t, "-workload", "cg", "-ranks", "8", "-iters", "5",
		"-cpuprofile", cpu, "-memprofile", mem)
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", filepath.Base(path), err)
		}
	}
}
