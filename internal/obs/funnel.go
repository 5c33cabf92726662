package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Funnel records one filtering stage of the data pipeline: how many items
// entered the stage, how many survived it, and — per named reason — why the
// rest were dropped. Every headline number in the reproduction sits
// downstream of a filter cascade (discard unresponsive offnet targets,
// discard speed-of-light violations, gate ISPs on usable vantage points,
// drop the most-discrepant site pairs), and the funnel layer is what makes
// those decisions auditable: a balanced funnel satisfies
//
//	In == Out + Σ drops
//
// so a change in any experiment's denominator between two runs is
// attributable to a specific reason at a specific stage.
//
// Funnels follow the metric naming convention ("<package>.<stage>", e.g.
// "ping.filter", "coloc.pairs") and reason names are short snake_case tags
// ("unresponsive", "sol_violation", "discrepant_20pct"). All methods are
// single atomic operations, safe for concurrent use and safe on a nil
// receiver, and nothing here feeds back into experiment results — equal
// seeds produce identical funnel totals at any worker count, because every
// item is counted exactly once no matter which worker processed it.
type Funnel struct {
	name string
	help string
	in   atomic.Int64
	out  atomic.Int64

	mu      sync.RWMutex
	reasons map[string]*Counter
}

// Name returns the funnel's registered name ("" for nil funnels).
func (f *Funnel) Name() string {
	if f == nil {
		return ""
	}
	return f.name
}

// In records n items entering the stage. Safe on a nil receiver.
func (f *Funnel) In(n int64) {
	if f != nil {
		f.in.Add(n)
	}
}

// Out records n items surviving the stage. Safe on a nil receiver.
func (f *Funnel) Out(n int64) {
	if f != nil {
		f.out.Add(n)
	}
}

// Reason registers (or returns the existing) drop counter for the reason.
// Hot paths bind reasons once at package init and increment the returned
// counter directly; Reason on a nil funnel returns nil, whose methods no-op.
func (f *Funnel) Reason(reason string) *Counter {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.reasons[reason]; ok {
		return c
	}
	c := &Counter{}
	f.reasons[reason] = c
	return c
}

// Drop records n items dropped for the reason (convenience over Reason).
func (f *Funnel) Drop(reason string, n int64) {
	if f != nil {
		f.Reason(reason).Add(n)
	}
}

// Snapshot copies the funnel's current state, drops sorted by reason so
// equal states render byte-identically.
func (f *Funnel) Snapshot() FunnelSnapshot {
	if f == nil {
		return FunnelSnapshot{}
	}
	f.mu.RLock()
	snap := FunnelSnapshot{
		Name: f.name,
		Help: f.help,
		In:   f.in.Load(),
		Out:  f.out.Load(),
	}
	for reason, c := range f.reasons {
		snap.Drops = append(snap.Drops, FunnelDrop{Reason: reason, N: c.Value()})
	}
	f.mu.RUnlock()
	sort.Slice(snap.Drops, func(i, j int) bool { return snap.Drops[i].Reason < snap.Drops[j].Reason })
	return snap
}

// FunnelDrop is one drop reason's count in a snapshot.
type FunnelDrop struct {
	Reason string `json:"reason"`
	N      int64  `json:"n"`
}

// FunnelSnapshot is one funnel's exported state: the per-stage accounting
// that lands in the run manifest, the reproduce report, the event stream,
// and the trace's counter tracks.
type FunnelSnapshot struct {
	Name  string       `json:"name"`
	Help  string       `json:"help,omitempty"`
	In    int64        `json:"in"`
	Out   int64        `json:"out"`
	Drops []FunnelDrop `json:"drops,omitempty"`
}

// Dropped returns the total items dropped across reasons.
func (s FunnelSnapshot) Dropped() int64 {
	var n int64
	for _, d := range s.Drops {
		n += d.N
	}
	return n
}

// Balanced reports whether the accounting reconciles: In == Out + Σ drops.
func (s FunnelSnapshot) Balanced() bool { return s.In == s.Out+s.Dropped() }

// DropN returns the count recorded for the reason (0 when absent).
func (s FunnelSnapshot) DropN(reason string) int64 {
	for _, d := range s.Drops {
		if d.Reason == reason {
			return d.N
		}
	}
	return 0
}

// NewFunnel registers (or returns the existing) funnel under name.
func (r *Registry) NewFunnel(name, help string) *Funnel {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.funnels[name]; ok {
		return f
	}
	f := &Funnel{name: name, help: help, reasons: make(map[string]*Counter)}
	r.funnels[name] = f
	return f
}

// NewFunnel registers a funnel in the Default registry.
func NewFunnel(name, help string) *Funnel { return Default.NewFunnel(name, help) }

// FunnelSnapshots returns every registered funnel's state, sorted by name —
// the deterministic serialization order used by manifests and events.
func (r *Registry) FunnelSnapshots() []FunnelSnapshot {
	r.mu.RLock()
	funnels := make([]*Funnel, 0, len(r.funnels))
	for _, f := range r.funnels {
		funnels = append(funnels, f)
	}
	r.mu.RUnlock()
	sort.Slice(funnels, func(i, j int) bool { return funnels[i].name < funnels[j].name })
	out := make([]FunnelSnapshot, len(funnels))
	for i, f := range funnels {
		out[i] = f.Snapshot()
	}
	return out
}

// FunnelTable renders funnel snapshots as a markdown table — the report's
// per-stage accounting mirroring the paper's Table 2 denominators. Each row
// reads items-in → items-kept, with the drop breakdown spelled out.
func FunnelTable(snaps []FunnelSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| stage | in | kept | dropped | drop breakdown | balanced |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|\n")
	for _, s := range snaps {
		var reasons []string
		for _, d := range s.Drops {
			reasons = append(reasons, fmt.Sprintf("%s=%d", d.Reason, d.N))
		}
		breakdown := strings.Join(reasons, ", ")
		if breakdown == "" {
			breakdown = "—"
		}
		balanced := "✅"
		if !s.Balanced() {
			balanced = "❌"
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %s | %s |\n",
			s.Name, s.In, s.Out, s.Dropped(), breakdown, balanced)
	}
	return b.String()
}
