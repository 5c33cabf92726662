package obs

import (
	"expvar"
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
	gauges  map[string]*Gauge
	hists   map[string]*Histogram
	funnels map[string]*Funnel
}

// Default is the process-wide registry the internal packages register into.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts:  make(map[string]*Counter),
		gauges:  make(map[string]*Gauge),
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
	for _, g := range r.gauges {
		g.bits.Store(0)
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

// Gauge is an instantaneous float value.
type Gauge struct {
	help string
	bits atomic.Uint64
}

// Set stores the value. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Help returns the registration help string.
func (g *Gauge) Help() string {
	if g == nil {
		return ""
	}
	return g.help
}

// Histogram counts observations into fixed buckets. An observation lands in
// the first bucket whose upper bound is >= the value; values above the last
// bound land in the implicit overflow bucket.
//
// The sum is fixed-point: each observation adds round(v·histSumScale) to an
// int64, so the total is exact and independent of the order concurrent
// observers arrive in (a float accumulator's rounding is not). The int64
// holds |Σ v| up to ~9.2e12.
type Histogram struct {
	help   string
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	sum    atomic.Int64   // Σ round(v·histSumScale)
	n      atomic.Int64
}

// histSumScale is the histogram sum's fixed-point resolution: 1e-6 units.
const histSumScale = 1e6

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	h.sum.Add(int64(math.Round(v * histSumScale)))
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

// NewGauge registers (or returns the existing) gauge under name.
func (r *Registry) NewGauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{help: help}
	r.gauges[name] = g
	return g
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

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return Default.NewHistogram(name, help, bounds)
}

// MetricValue is one metric's exported state.
type MetricValue struct {
	Type  string  `json:"type"` // "counter" | "gauge" | "histogram"
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
	out := make(map[string]MetricValue, len(r.counts)+len(r.gauges)+len(r.hists))
	for name, c := range r.counts {
		out[name] = MetricValue{Type: "counter", Help: c.help, Value: float64(c.Value())}
	}
	for name, g := range r.gauges {
		out[name] = MetricValue{Type: "gauge", Help: g.help, Value: g.Value()}
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

// Names returns the registered metric names, sorted.
func (r *Registry) Names() []string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var expvarOnce sync.Once

// PublishExpvar exposes the Default registry under the expvar key
// "offnetrisk_metrics" (idempotent; expvar.Publish panics on duplicates).
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("offnetrisk_metrics", expvar.Func(func() any {
			return Default.Snapshot()
		}))
	})
}
