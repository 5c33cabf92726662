// Package obs is the reproduction's stdlib-only observability layer: a
// nesting span tracer for per-stage wall time and allocation accounting, a
// process-wide metrics registry (counters, fixed-bucket histograms and data
// funnels), run manifests carrying provenance for every pipeline run, and an
// opt-in HTTP debug endpoint serving the Go runtime's pprof profiles.
//
// The registry has three readers: the run manifest (and the REPORT sections
// rendered from it), the counter tracks of the Perfetto trace export, and
// the -events JSONL stream.
//
// Instrumentation is zero-cost when disabled: a nil *Tracer hands out nil
// *Span values whose methods are all no-ops, and metrics are single atomic
// operations. Nothing in this package draws randomness or feeds back into
// experiment results, so equal seeds reproduce identical results bit for bit
// with observability on or off.
package obs

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects a forest of spans for one run. The zero value is NOT
// ready; use NewTracer. A nil *Tracer is the disabled tracer: Start returns
// a nil span and no state is kept.
type Tracer struct {
	mu    sync.Mutex
	roots []*Span
	// cur is the innermost span that has been started but not ended;
	// Start nests new spans under it. Pipeline stages run sequentially, so
	// a single cursor reproduces the call tree.
	cur *Span
	// sink, when set, receives live span_start/span_end events and funnel
	// snapshots whenever a root span ends (the -events JSONL stream).
	sink atomic.Pointer[EventSink]

	// epoch anchors the timeline: instants, marks and the trace export
	// measure offsets from it.
	epoch time.Time
	// timeline, when enabled, records instant events (injected faults) and
	// counter marks (funnel / chaos counter movement at root-span ends) for
	// the -trace export. Off by default so hot paths pay one atomic load.
	timeline atomic.Bool
	tlMu     sync.Mutex
	instants []Instant
	marks    []TimelineMark
	// instCount / instSuppressed bound the recording: after
	// maxInstantsPerName events of one name, further ones only count. A
	// heavy chaos profile fires hundreds of thousands of per-probe faults —
	// unbounded recording would swell a tiny run's trace past 50MB.
	instCount      map[string]int
	instSuppressed map[string]int64
	// lastFunnels / lastCounters dedupe marks: only moved counters re-mark.
	lastFunnels  map[string]FunnelSnapshot
	lastCounters map[string]float64
}

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Epoch returns the tracer's timeline origin (zero for nil tracers).
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// EnableTimeline turns on instant-event and counter-mark recording (the raw
// material of the -trace export). Recording is observability-only and never
// feeds back into experiment results. Safe on a nil tracer.
func (t *Tracer) EnableTimeline() {
	if t != nil {
		t.timeline.Store(true)
	}
}

// TimelineEnabled reports whether instant recording is on (false for nil).
func (t *Tracer) TimelineEnabled() bool {
	return t != nil && t.timeline.Load()
}

// Instant is one point event on the timeline — an injected chaos fault, a
// retry exhaustion, any caller-declared moment worth seeing in the trace.
type Instant struct {
	Name  string         `json:"name"`
	AtMS  float64        `json:"at_ms"` // offset from the tracer epoch
	Attrs map[string]any `json:"attrs,omitempty"`
}

// maxInstantsPerName caps recorded instants per event name; the excess is
// tallied in InstantsSuppressed and noted in the trace's otherData. The first
// thousand of each fault kind show the timeline shape; the rest would only
// bloat the file.
const maxInstantsPerName = 1000

// Instant records a point event when the timeline is enabled; otherwise it
// is a no-op (one atomic load). Safe on a nil tracer and from any goroutine.
func (t *Tracer) Instant(name string, attrs map[string]any) {
	if !t.TimelineEnabled() {
		return
	}
	at := float64(time.Since(t.epoch)) / float64(time.Millisecond)
	t.tlMu.Lock()
	defer t.tlMu.Unlock()
	if t.instCount == nil {
		t.instCount = make(map[string]int)
		t.instSuppressed = make(map[string]int64)
	}
	if t.instCount[name] >= maxInstantsPerName {
		t.instSuppressed[name]++
		return
	}
	t.instCount[name]++
	t.instants = append(t.instants, Instant{Name: name, AtMS: at, Attrs: attrs})
}

// Instants copies the recorded instant events.
func (t *Tracer) Instants() []Instant {
	if t == nil {
		return nil
	}
	t.tlMu.Lock()
	defer t.tlMu.Unlock()
	return append([]Instant(nil), t.instants...)
}

// InstantsSuppressed reports, per event name, how many instants were counted
// but not recorded once the per-name cap was reached. Empty when nothing was
// suppressed.
func (t *Tracer) InstantsSuppressed() map[string]int64 {
	if t == nil {
		return nil
	}
	t.tlMu.Lock()
	defer t.tlMu.Unlock()
	out := make(map[string]int64, len(t.instSuppressed))
	for k, v := range t.instSuppressed {
		out[k] = v
	}
	return out
}

// TimelineMark is one sample of the run's moving counters, taken whenever a
// root span ends: the funnels whose accounting changed since the previous
// mark plus the chaos.* counters that moved. The trace export renders marks
// as Perfetto counter tracks.
type TimelineMark struct {
	AtMS     float64            `json:"at_ms"`
	Funnels  []FunnelSnapshot   `json:"funnels,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// Marks copies the recorded counter marks.
func (t *Tracer) Marks() []TimelineMark {
	if t == nil {
		return nil
	}
	t.tlMu.Lock()
	defer t.tlMu.Unlock()
	return append([]TimelineMark(nil), t.marks...)
}

// recordMark samples the Default registry's funnels and chaos counters,
// appending a mark when anything moved since the last one.
func (t *Tracer) recordMark() {
	if !t.TimelineEnabled() {
		return
	}
	at := float64(time.Since(t.epoch)) / float64(time.Millisecond)
	snaps := Default.FunnelSnapshots()
	metrics := Default.Snapshot()
	t.tlMu.Lock()
	defer t.tlMu.Unlock()
	if t.lastFunnels == nil {
		t.lastFunnels = make(map[string]FunnelSnapshot)
		t.lastCounters = make(map[string]float64)
	}
	mark := TimelineMark{AtMS: at}
	for _, snap := range snaps {
		prev, seen := t.lastFunnels[snap.Name]
		if !seen || prev.In != snap.In || prev.Out != snap.Out || prev.Dropped() != snap.Dropped() {
			t.lastFunnels[snap.Name] = snap
			mark.Funnels = append(mark.Funnels, snap)
		}
	}
	for name, mv := range metrics {
		if mv.Type != "counter" || !strings.HasPrefix(name, "chaos.") {
			continue
		}
		if prev, seen := t.lastCounters[name]; !seen || prev != mv.Value {
			t.lastCounters[name] = mv.Value
			if mark.Counters == nil {
				mark.Counters = make(map[string]float64)
			}
			mark.Counters[name] = mv.Value
		}
	}
	if len(mark.Funnels) > 0 || len(mark.Counters) > 0 {
		t.marks = append(t.marks, mark)
	}
}

// SetSink attaches a live event stream: every Start/Child/End emits a span
// event, and each root span's End additionally emits the funnel snapshots
// that changed. Pass nil to detach. Safe on a nil tracer.
func (t *Tracer) SetSink(s *EventSink) {
	if t != nil {
		t.sink.Store(s)
	}
}

// eventSink returns the attached sink (nil when detached or nil tracer).
func (t *Tracer) eventSink() *EventSink {
	if t == nil {
		return nil
	}
	return t.sink.Load()
}

// Start opens a span. If another span is open, the new span becomes its
// child; otherwise it is a root. Safe on a nil tracer (returns nil). The
// span starts before its allocation baseline is read: the read stops the
// world, and its wait belongs to the span, as End's does.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	start := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &Span{
		tracer:       t,
		name:         name,
		start:        start,
		startAllocs:  ms.TotalAlloc,
		startMallocs: ms.Mallocs,
	}
	t.mu.Lock()
	s.parent = t.cur
	if s.parent != nil {
		s.parent.children = append(s.parent.children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.cur = s
	t.mu.Unlock()
	t.eventSink().Emit(Event{Type: "span_start", Span: s.Path()})
	return s
}

// Roots returns the root spans recorded so far.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Span is one timed stage. All methods are safe on a nil receiver, so
// instrumented code never checks whether tracing is enabled.
type Span struct {
	tracer *Tracer
	parent *Span
	name   string
	start  time.Time

	startAllocs  uint64
	startMallocs uint64

	mu       sync.Mutex
	children []*Span
	attrs    []Attr
	dur      time.Duration
	allocB   uint64
	mallocs  uint64
	ended    bool
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// Name returns the span name ("" for nil spans).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr records a key/value attribute on the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Child opens a nested span without touching the tracer cursor — for code
// that holds its parent span explicitly (e.g. parallel stages).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := &Span{
		tracer:       s.tracer,
		parent:       s,
		name:         name,
		start:        time.Now(),
		startAllocs:  ms.TotalAlloc,
		startMallocs: ms.Mallocs,
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	if t := s.tracer; t != nil {
		t.eventSink().Emit(Event{Type: "span_start", Span: c.Path()})
	}
	return c
}

// Path returns the slash-joined span path from its root ("" for nil spans).
func (s *Span) Path() string {
	if s == nil {
		return ""
	}
	var names []string
	for c := s; c != nil; c = c.parent {
		names = append(names, c.name)
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, "/")
}

// End closes the span, recording its duration and allocation delta. Ending
// twice is a no-op. If the span is the tracer's cursor, the cursor pops back
// to its parent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.ended = true
	s.dur = time.Since(s.start)
	s.allocB = ms.TotalAlloc - s.startAllocs
	s.mallocs = ms.Mallocs - s.startMallocs
	var attrs map[string]any
	if len(s.attrs) > 0 {
		attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			attrs[a.Key] = a.Value
		}
	}
	s.mu.Unlock()

	if t := s.tracer; t != nil {
		t.mu.Lock()
		// Pop the cursor past this span even if children were left open.
		for c := t.cur; c != nil; c = c.parent {
			if c == s {
				t.cur = s.parent
				break
			}
		}
		t.mu.Unlock()
		if sink := t.eventSink(); sink != nil {
			sink.Emit(Event{
				Type: "span_end", Span: s.Path(),
				DurMS:      float64(s.dur) / float64(time.Millisecond),
				AllocBytes: s.allocB,
				Attrs:      attrs,
			})
			if s.parent == nil {
				// A top-level stage finished: stream whichever funnel
				// accounting it moved.
				sink.EmitFunnels(Default)
			}
		}
		if s.parent == nil {
			// Sample the moving counters for the -trace counter tracks.
			t.recordMark()
		}
	}
}

// Elapsed returns the recorded duration for ended spans, or the live
// duration for open ones.
func (s *Span) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// SpanSnapshot is an immutable copy of a span subtree, used by the manifest
// and the trace export. Zero fields are omitted from JSON, so a golden's
// stages (Manifest.Golden) carry their names and nothing else.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	StartMS    float64        `json:"start_ms,omitempty"` // offset from the snapshot origin
	DurMS      float64        `json:"dur_ms,omitempty"`
	Ended      bool           `json:"ended,omitempty"`
	AllocBytes uint64         `json:"alloc_bytes,omitempty"`
	Mallocs    uint64         `json:"mallocs,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot copies the span forest. origin anchors StartMS; pass the run's
// start time (or the zero time to anchor at the first root span).
func (t *Tracer) Snapshot(origin time.Time) []SpanSnapshot {
	if t == nil {
		return nil
	}
	roots := t.Roots()
	if origin.IsZero() && len(roots) > 0 {
		origin = roots[0].start
	}
	out := make([]SpanSnapshot, 0, len(roots))
	for _, r := range roots {
		out = append(out, r.snapshot(origin))
	}
	return out
}

func (s *Span) snapshot(origin time.Time) SpanSnapshot {
	s.mu.Lock()
	snap := SpanSnapshot{
		Name:       s.name,
		StartMS:    float64(s.start.Sub(origin)) / float64(time.Millisecond),
		Ended:      s.ended,
		AllocBytes: s.allocB,
		Mallocs:    s.mallocs,
	}
	if s.ended {
		snap.DurMS = float64(s.dur) / float64(time.Millisecond)
	} else {
		snap.DurMS = float64(time.Since(s.start)) / float64(time.Millisecond)
	}
	if len(s.attrs) > 0 {
		snap.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			snap.Attrs[a.Key] = a.Value
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		snap.Children = append(snap.Children, c.snapshot(origin))
	}
	return snap
}

// StageCount returns the total number of named spans in the forest.
func StageCount(spans []SpanSnapshot) int {
	n := 0
	for _, s := range spans {
		n += 1 + StageCount(s.Children)
	}
	return n
}
