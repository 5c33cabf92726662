package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"offnetrisk/internal/obs"
)

// span is one call the benchmark made into a layer, recorded by the
// benchmark's own code around the call: the program itself carries no
// benchmark spans.
type span struct {
	Name   string  `json:"name"`
	Run    int     `json:"run"`
	Parent int     `json:"parent"` // index into the tracer's spans; -1 at top level
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Self   float64 `json:"self_ms"`
	// Counts holds the non-zero deltas of the obs.Default counters and
	// funnels over the span, read at the span's boundaries.
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps every span in memory; write dumps them when the benchmark
// ends. It is used from the benchmark's goroutine only. A nil tracer runs
// calls untraced.
type tracer struct {
	origin time.Time
	run    int
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// call runs fn under a span named name, nested in the innermost open span.
func (t *tracer) call(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	before := counts()
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Run: t.run, Parent: parent, Start: sinceMS(t.origin)})
	t.open = append(t.open, i)
	err := fn()
	t.spans[i].End = sinceMS(t.origin)
	t.open = t.open[:len(t.open)-1]
	t.spans[i].Counts = deltas(before, counts())
	return err
}

// do is call for a function that cannot fail.
func (t *tracer) do(name string, fn func()) {
	_ = t.call(name, func() error { fn(); return nil })
}

// finish computes self times: a span's duration minus the part its
// children cover. Children run one after another on the benchmark's
// goroutine, so they never overlap and their durations add up.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].ms()
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.ms()
		}
	}
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

func sinceMS(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// counts reads every obs.Default counter and every funnel's in/out total.
// The registry is process-global and accumulates across pipelines, so the
// benchmark only ever uses differences of two reads.
func counts() map[string]int64 {
	out := make(map[string]int64)
	for name, m := range obs.Default.Snapshot() {
		if m.Type == "counter" {
			out[name] = int64(m.Value)
		}
	}
	for _, f := range obs.Default.FunnelSnapshots() {
		out[f.Name+".in"] = f.In
		out[f.Name+".out"] = f.Out
	}
	return out
}

// deltas returns after − before for every key whose value changed.
func deltas(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}
