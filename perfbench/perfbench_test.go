package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"checkpointsim/internal/exp"
)

func TestQuantileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		qs   []float64
		want float64
		ok   bool
	}{
		{200, []float64{0.99, 0.95, 0.9}, 0.95, true}, // exactly 10 beyond
		{199, []float64{0.99, 0.95, 0.9}, 0.9, true},  // p95 would leave 9
		{1000, []float64{0.99, 0.95}, 0.99, true},
		{999, []float64{0.99}, 0, false},
		{10, []float64{0.9, 0.5}, 0, false},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n, c.qs...)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d, %v) = %v, %v; want %v, %v", c.n, c.qs, q, ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - int(math.Ceil(q*float64(c.n))); beyond < minBeyond {
				t.Errorf("n=%d q=%v leaves %d beyond", c.n, q, beyond)
			}
		}
	}
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := quantile(s, 0.95); got != 190 {
		t.Errorf("nearest-rank p95 of 1..200 = %v, want 190", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}

	r := newReport()
	latencyExtras(r, "x_ms", s, "ms", 0.99)
	if len(r.extras) != 2 || r.extras[1].name != "x_ms_p95" || !strings.Contains(r.extras[1].note, "n=200, 10 beyond") {
		t.Errorf("200 samples asked for p99 reported %+v; want p50 and p95 with n and 10 beyond", r.extras)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// benchmarkFile is the shape of BENCHMARK.json: exactly these keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestNamesMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	var wl []string
	for _, w := range bf.Workloads {
		checkName("workload", w.Name)
		wl = append(wl, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	if got, want := strings.Join(wl, ","), strings.Join(workloadNames(), ","); got != want {
		// workloadNames is sorted; keep the file in the same order.
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	setupBound, maxBound := 0.0, 0.0
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		checkName("metric", m.Name)
		if d := endToEnd[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
			t.Errorf("end-to-end %d: file %s/%s/%s, program %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bad unit %q or bound %v", m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		checkName("metric", m.Name)
		if d := perLayer[i]; d.name != m.Name || d.unit != m.Unit || d.better != m.Better {
			t.Errorf("per-layer %d: file %s/%s/%s, program %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) == 0 || len(bf.Command) == 0 {
		t.Errorf("bad run_seconds/paths/command: %+v", bf)
	}
}

func TestSelfTimesSumToWall(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "workload.gen", StartNS: 0, EndNS: 30},
		{ID: 3, Parent: 1, Name: "sim.run", StartNS: 30, EndNS: 90},
		{ID: 4, Parent: 3, Name: "validate.hook", StartNS: 30, EndNS: 50, Aggregate: true},
	}
	self := selfTimes(spans)
	want := map[string]int64{"other": 10, "workload": 30, "sim": 40, "validate": 20}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
	}
	r := newReport()
	recordShares(r, spans, 100e-9, 1)
	sum := r.layer["self.other_s"]
	for _, l := range selfLayers {
		sum += r.layer["self."+l+"_s"]
	}
	if math.Abs(sum-100e-9) > 1e-15 {
		t.Errorf("shares sum to %v, want the traced wall 100ns", sum)
	}
}

// TestCampaignScheduleOnePointPerCell checks the campaign's input: the
// same seed gives the same points, every (workload, scale, protocol) cell
// appears exactly once, and another seed draws other points in the same
// cells.
func TestCampaignScheduleOnePointPerCell(t *testing.T) {
	a, err := campaignSchedule(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := campaignSchedule(7)
	c, _ := campaignSchedule(8)
	if len(a) != 198 || !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 gave %d points, repeat equal: %v", len(a), reflect.DeepEqual(a, b))
	}
	cells := func(s []exp.Scenario) map[string]int {
		m := map[string]int{}
		for _, sc := range s {
			m[fmt.Sprintf("%s/%d/%s", sc.Workload, sc.Ranks, sc.Protocol)]++
		}
		return m
	}
	ca, cc := cells(a), cells(c)
	for k, n := range ca {
		if n != 1 || cc[k] != 1 {
			t.Errorf("cell %s: %d points for seed 7, %d for seed 8", k, n, cc[k])
		}
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 drew the same points")
	}
}

// buildSweepd compiles cmd/sweepd for the cluster smoke test.
func buildSweepd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sweepd")
	cmd := exec.Command("go", "build", "-o", bin, "checkpointsim/cmd/sweepd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build sweepd: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsSmoke runs every workload at tiny size, untraced and
// traced, and checks the result line parses with exactly the metric set
// BENCHMARK.json names, every output verified.
func TestWorkloadsSmoke(t *testing.T) {
	sweepd := buildSweepd(t)
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				dir := t.TempDir()
				code, err := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.05",
					"--trace", trace, "--tiny", "--sweepd", sweepd, "--workdir", dir}, &out)
				if code != 0 || err != nil {
					t.Fatalf("exit %d, %v\n%s", code, err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line does not parse: %v\n%s", err, out.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s missing or with unit %q", d.name, m.Unit)
					}
				}
				if trace == "1" {
					sum := res.Metrics["self.other_s"].Value
					for _, l := range selfLayers {
						sum += res.Metrics["self."+l+"_s"].Value
					}
					if wall := res.Metrics["trace.wall_s"].Value; math.Abs(sum-wall) > 1e-9*wall+1e-12 {
						t.Errorf("self times sum to %v, traced wall is %v", sum, wall)
					}
				}
				if entries, _ := filepath.Glob(filepath.Join(dir, "cluster-*")); len(entries) != 0 {
					t.Errorf("cluster directories left behind: %v", entries)
				}
			})
		}
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "campaign", "--trace", "2"},
		{"--workload", "campaign", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code, err := run(args, &out); code == 0 || err == nil {
			t.Errorf("run(%v) = %d, %v; want an error", args, code, err)
		}
	}
}
