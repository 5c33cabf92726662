package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Metric naming convention: "<package>.<noun>_<verb>", e.g.
// "ping.rtts_measured", "optics.points_clustered", "tracert.hops_mapped".
// Packages register their metrics in package-level vars so every metric is
// present (at zero) from process start.

// Registry holds named metrics. The zero value is not ready; use
// NewRegistry or the package-level Default registry.
type Registry struct {
	mu      sync.RWMutex
	counts  map[string]*Counter
	hists   map[string]*Histogram
	funnels map[string]*Funnel
}

// Default is the process-wide registry the internal packages register into.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts:  make(map[string]*Counter),
		hists:   make(map[string]*Histogram),
		funnels: make(map[string]*Funnel),
	}
}

// Reset zeroes every registered metric and funnel without unregistering
// anything. It is a TEST-ONLY helper: package-level metric vars stay bound
// to their (now zeroed) instances, so a test can reset the shared Default
// registry and assert absolute values instead of deltas — assertions no
// longer depend on which tests ran first. Production code never calls it;
// counters are documented as cumulative over the process.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counts {
		c.v.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.sum.Store(0)
		h.n.Store(0)
	}
	for _, f := range r.funnels {
		f.in.Store(0)
		f.out.Store(0)
		f.mu.RLock()
		for _, c := range f.reasons {
			c.v.Store(0)
		}
		f.mu.RUnlock()
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	help string
	v    atomic.Int64
}

// Add increments the counter. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Help returns the registration help string ("" for nil or unregistered
// counters, e.g. funnel drop reasons).
func (c *Counter) Help() string {
	if c == nil {
		return ""
	}
	return c.help
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts observations into fixed buckets. An observation lands in
// the first bucket whose upper bound is >= the value; values above the last
// bound land in the implicit overflow bucket. NaN and ±Inf are not
// observations: they change no bucket, count or sum.
//
// The sum is fixed-point: each observation adds round(v·histSumScale) to an
// int64, so the total is exact and independent of the order concurrent
// observers arrive in (a float accumulator's rounding is not). The int64
// holds |Σ v| up to ~9.2e12.
//
// Observe publishes one value with three atomic adds; a HistogramBatch
// tallies many locally and publishes them together with the same totals.
type Histogram struct {
	help   string
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	sum    atomic.Int64   // Σ round(v·histSumScale)
	n      atomic.Int64
}

// histSumScale is the histogram sum's fixed-point resolution: 1e-6 units.
const histSumScale = 1e6

// Observe records one value; NaN and ±Inf are skipped. Safe on a nil
// receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if i, fixed, ok := h.slot(v); ok {
		h.counts[i].Add(1)
		h.n.Add(1)
		h.sum.Add(fixed)
	}
}

// slot returns v's bucket index and its fixed-point sum term; ok is false
// for NaN and ±Inf, which have neither (converting a non-finite product to
// int64 is implementation-dependent in Go; on amd64 it reads −2⁶³).
func (h *Histogram) slot(v float64) (i int, fixed int64, ok bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, 0, false
	}
	return sort.SearchFloat64s(h.bounds, v), int64(math.Round(v * histSumScale)), true
}

// HistogramBatch tallies observations for one Histogram without touching
// it; Flush publishes the tally with one atomic add per touched bucket plus
// the count and the sum. The published totals equal those of calling
// Observe once per value, so a parallel task can observe many values and
// pay the atomics once. Not safe for concurrent use: one per goroutine.
type HistogramBatch struct {
	h      *Histogram
	counts []int64
	n, sum int64
}

// Batch returns an empty batch publishing to h. A nil histogram's batch
// discards its observations.
func (h *Histogram) Batch() *HistogramBatch {
	b := &HistogramBatch{h: h}
	if h != nil {
		b.counts = make([]int64, len(h.counts))
	}
	return b
}

// Observe tallies one value; NaN and ±Inf are skipped, as by
// Histogram.Observe.
func (b *HistogramBatch) Observe(v float64) {
	if b.h == nil {
		return
	}
	if i, fixed, ok := b.h.slot(v); ok {
		b.counts[i]++
		b.n++
		b.sum += fixed
	}
}

// Flush publishes the tally to the histogram, empties the batch and returns
// the number of observations it published.
func (b *HistogramBatch) Flush() int64 {
	n := b.n
	if n == 0 {
		return 0
	}
	for i, c := range b.counts {
		if c != 0 {
			b.h.counts[i].Add(c)
			b.counts[i] = 0
		}
	}
	b.h.n.Add(n)
	b.h.sum.Add(b.sum)
	b.n, b.sum = 0, 0
	return n
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Help returns the registration help string.
func (h *Histogram) Help() string {
	if h == nil {
		return ""
	}
	return h.help
}

// Sum returns the sum of observed values, each rounded to 1e-6.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sum.Load()) / histSumScale
}

// Buckets returns the upper bounds and per-bucket counts (the final count is
// the overflow bucket, bound +Inf).
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = append(append([]float64(nil), h.bounds...), math.Inf(1))
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// NewCounter registers (or returns the existing) counter under name.
func (r *Registry) NewCounter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	c := &Counter{help: help}
	r.counts[name] = c
	return c
}

// NewHistogram registers (or returns the existing) histogram under name with
// the given ascending upper bucket bounds.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	sort.Float64s(h.bounds)
	r.hists[name] = h
	return h
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return Default.NewHistogram(name, help, bounds)
}

// MetricValue is one metric's exported state.
type MetricValue struct {
	Type  string  `json:"type"` // "counter" | "histogram"
	Help  string  `json:"help,omitempty"`
	Value float64 `json:"value"`
	// Histogram-only fields.
	Count   int64     `json:"count,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// Snapshot returns every registered metric keyed by name. Histogram bounds
// replace +Inf with math.MaxFloat64 so the snapshot is JSON-safe.
func (r *Registry) Snapshot() map[string]MetricValue {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]MetricValue, len(r.counts)+len(r.hists))
	for name, c := range r.counts {
		out[name] = MetricValue{Type: "counter", Help: c.help, Value: float64(c.Value())}
	}
	for name, h := range r.hists {
		bounds, counts := h.Buckets()
		for i, b := range bounds {
			if math.IsInf(b, 1) {
				bounds[i] = math.MaxFloat64
			}
		}
		out[name] = MetricValue{
			Type: "histogram", Help: h.help,
			Value: h.Sum(), Count: h.Count(), Bounds: bounds, Buckets: counts,
		}
	}
	return out
}
