package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Spans of one request (a scenario point,
// an HTTP request, a facade run) share Req; Parent is the span that made
// the call (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Req     string `json:"req,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// AllocB is the heap bytes allocated between start and end (by the
	// whole process: exact for the serial workloads only).
	AllocB uint64 `json:"alloc_bytes"`
	// Aggregate marks a synthetic span whose duration is the summed time
	// of many short calls (the validator's per-event hook), placed at its
	// parent's start; it is not a real interval.
	Aggregate bool `json:"aggregate,omitempty"`

	alloc0 uint64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes call the same code at the cost of a nil
// check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	a := allocBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, StartNS: now, alloc0: a})
	return id
}

// end closes the span id opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	a := allocBytes()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = now
	s.AllocB = a - s.alloc0
}

// aggregate records d of accumulated time under parent as one synthetic
// span named name.
func (t *tracer) aggregate(name string, parent int, req string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := int64(0)
	if parent > 0 {
		start = t.spans[parent-1].StartNS
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		StartNS: start, EndNS: start + d.Nanoseconds(), Aggregate: true})
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, req string, fn func(id int) error) error {
	id := t.begin(name, parent, req)
	err := fn(id)
	t.end(id)
	return err
}

// since returns a copy of the spans recorded after mark (a count
// returned by an earlier mark call).
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Start string `json:"start"`
		Spans []span `json:"spans"`
	}{t.t0.UTC().Format(time.RFC3339Nano), t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf maps a span name to its layer: the part before the first dot.
// The benchmark's own spans (pass, client) are "other".
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	for _, s := range selfLayers {
		if l == s {
			return l
		}
	}
	return "other"
}

// selfTimes sums, per layer, each span's duration minus the durations of
// its direct children: the time the layer itself took.
func selfTimes(spans []span) map[string]int64 {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[layerOf(s.Name)] += s.EndNS - s.StartNS - child[s.ID]
	}
	return out
}

// recordShares sets the self.* metrics from the spans of a traced pass of
// wall seconds run by clients concurrent callers: each layer's self time
// per caller, and "other" as the remainder, so the shares sum to wall.
func recordShares(r *runReport, spans []span, wall float64, clients int) {
	self := selfTimes(spans)
	rest := wall
	for _, l := range selfLayers {
		v := float64(self[l]) / 1e9 / float64(clients)
		r.layer["self."+l+"_s"] = v
		rest -= v
	}
	r.layer["self.other_s"] = rest
	r.layer["trace.wall_s"] = wall
}

// spanStats sums the duration and allocation of the spans named name.
func spanStats(spans []span, name string) (n int, total time.Duration, allocB uint64) {
	for _, s := range spans {
		if s.Name == name {
			n++
			total += time.Duration(s.EndNS - s.StartNS)
			allocB += s.AllocB
		}
	}
	return n, total, allocB
}

// spanMean sets r.layer[metric] to the mean duration, in units of unit,
// of the spans named name, when there are any.
func spanMean(r *runReport, metric string, spans []span, name string, unit time.Duration) {
	if n, total, _ := spanStats(spans, name); n > 0 {
		r.layer[metric] = float64(total) / float64(unit) / float64(n)
	}
}
