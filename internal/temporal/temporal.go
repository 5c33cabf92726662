// Package temporal is the shared-clock discrete-event engine the paper's
// temporal phenomena run on: offnet fill tracking the 24-hour diurnal
// demand curve, PNI saturation, spillover onto shared IXP/transit links,
// congestion onset and clearance, and mitigation (isolation) actions all
// fire as timestamped events. Scheduled disturbances come from declarative
// event schedules (internal/scenario): demand steps replay the flash-crowd
// shape of the iOS-update event, facility failures replay §3.3/§4.3, and
// capacity cuts drain individual serving layers.
//
// The engine is deterministic by construction: events are ordered by
// (timestamp, sequence number) on a heap, sequence numbers are assigned in
// a fixed construction order, the serving model and cascade assessment are
// the same pure functions the closed-form sweeps call (capacity.ServeBurst
// and cascade.Baseline.Assess, against one no-failure cascade.Baseline per
// clock hour, built on first use), and no wall-clock or map-iteration
// order reaches the trajectory. The SHA-256 trajectory digest is therefore
// byte-identical at any -workers setting, and the closed-form
// pipeline remains the differential oracle: an empty schedule reproduces
// capacity.Serve hour by hour, and a scheduled facility failure lands on
// cascade.Simulate's report bit-exactly.
package temporal

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/cascade"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

var (
	mSteps = obs.NewCounter("temporal.steps_total",
		"clock steps evaluated by the discrete-event engine")
	mEvents = obs.NewCounter("temporal.events_total",
		"events appended to temporal trajectories")
	mOnsets = obs.NewCounter("temporal.congestion_onsets_total",
		"congestion-onset events observed on shared links")
)

// MaxHours bounds a replay horizon to one simulated year.
const MaxHours = 8760

// Config tunes one engine run.
type Config struct {
	// Hours is the replay horizon; the clock ticks at every integer hour in
	// [0, Hours).
	Hours int
	// SharedHeadroom sizes shared links from baseline load, as in
	// cascade.Scenario; <=1 means the default 1.25.
	SharedHeadroom float64
	// Sink, when non-nil, receives every trajectory event live on the
	// -events JSONL stream (type "temporal").
	Sink *obs.EventSink
}

// Engine replays one schedule against one capacity model.
type Engine struct {
	cfg   Config
	base  *capacity.Model
	dep   *hypergiant.Deployment
	sched *scenario.Schedule
}

// New validates the horizon and binds the engine to a model, a deployment
// and a schedule (nil = empty schedule: pure diurnal steady state).
func New(m *capacity.Model, d *hypergiant.Deployment, sched *scenario.Schedule, cfg Config) (*Engine, error) {
	if m == nil || d == nil {
		return nil, fmt.Errorf("temporal: nil model or deployment")
	}
	if cfg.Hours < 1 || cfg.Hours > MaxHours {
		return nil, fmt.Errorf("temporal: hours %d out of range [1, %d]", cfg.Hours, MaxHours)
	}
	if cfg.SharedHeadroom <= 1 {
		cfg.SharedHeadroom = cascade.DefaultScenario().SharedHeadroom
	}
	if sched != nil {
		if err := sched.Validate(); err != nil {
			return nil, fmt.Errorf("temporal: %w", err)
		}
	}
	return &Engine{cfg: cfg, base: m, dep: d, sched: sched}, nil
}

// itemKind orders what a heap item does when it fires.
type itemKind int

const (
	itemTick itemKind = iota
	itemStart
	itemEnd
	itemToggle
)

// item is one entry on the event heap: a timestamp, a deterministic
// tiebreak sequence assigned at construction, and the schedule entry it
// activates or deactivates (ticks carry the hour instead).
type item struct {
	at   float64
	seq  int
	kind itemKind
	hour int // itemTick
	ev   int // schedule event index, for start/end/toggle
}

type itemHeap []item

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h itemHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x any)      { *h = append(*h, x.(item)) }
func (h *itemHeap) Pop() any        { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h *itemHeap) peekAt() float64 { return (*h)[0].at }

// state is the engine's mutable world between steps. Activation is counted,
// not boolean, so a window ending and an adjacent window starting at the
// same instant commute whatever their heap order.
type state struct {
	failures map[inet.FacilityID]int
	steps    map[int]bool // active demand-step schedule indexes
	cuts     map[int]bool // active capacity-cut schedule indexes
	isolated bool
}

func (st *state) disturbed() bool {
	return len(st.failures) > 0 || len(st.steps) > 0 || len(st.cuts) > 0
}

// failedSet renders the counted failures as the map capacity.ServeBurst
// expects; nil when nothing is dark.
func (st *state) failedSet() map[inet.FacilityID]bool {
	var out map[inet.FacilityID]bool
	for fid, n := range st.failures {
		if n > 0 {
			if out == nil {
				out = make(map[inet.FacilityID]bool)
			}
			out[fid] = true
		}
	}
	return out
}

// scaleSet recomputes the per-hypergiant demand multipliers from the active
// steps, in schedule order so stacked wildcard/specific steps compose
// deterministically; nil when no step is active.
func (st *state) scaleSet(sched *scenario.Schedule) map[traffic.HG]float64 {
	if len(st.steps) == 0 {
		return nil
	}
	idxs := make([]int, 0, len(st.steps))
	for i := range st.steps {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make(map[traffic.HG]float64, len(traffic.All))
	for _, hg := range traffic.All {
		out[hg] = 1.0
	}
	for _, i := range idxs {
		d := sched.Events[i].DemandStep
		if hg, ok := traffic.ParseHG(d.HG); ok {
			out[hg] *= d.Multiplier
			continue
		}
		for _, hg := range traffic.All {
			out[hg] *= d.Multiplier
		}
	}
	return out
}

// cutSet renders the active cuts as capacity.Cut values, in schedule order.
func (st *state) cutSet(sched *scenario.Schedule) []capacity.Cut {
	if len(st.cuts) == 0 {
		return nil
	}
	idxs := make([]int, 0, len(st.cuts))
	for i := range st.cuts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]capacity.Cut, 0, len(idxs))
	for _, i := range idxs {
		c := sched.Events[i].CapacityCut
		cut := capacity.Cut{ISP: inet.ASN(c.ISP), Frac: c.CutFraction}
		switch c.Layer {
		case "pni":
			cut.Layer = capacity.LayerPNI
		case "ixp":
			cut.Layer = capacity.LayerIXP
		default:
			cut.Layer = capacity.LayerOffnet
		}
		if hg, ok := traffic.ParseHG(c.HG); ok {
			cut.HG = hg
		} else {
			cut.AllHGs = true
		}
		out = append(out, cut)
	}
	return out
}

// Run replays the schedule over the horizon and returns the trajectory. The
// loop pops every heap item sharing the earliest timestamp, applies them to
// the state, then evaluates the world once at that instant — serving split,
// congestion assessment, onset/clearance detection, isolation accounting.
func (e *Engine) Run(ctx context.Context) (*Trajectory, error) {
	h := &itemHeap{}
	seq := 0
	push := func(it item) {
		it.seq = seq
		seq++
		heap.Push(h, it)
	}
	// Ticks first: at equal timestamps the clock advances before schedule
	// actions apply, so an on-the-hour disturbance is evaluated once, with
	// the disturbance in effect.
	for hr := 0; hr < e.cfg.Hours; hr++ {
		push(item{at: float64(hr), kind: itemTick, hour: hr})
	}
	horizon := float64(e.cfg.Hours)
	if e.sched != nil {
		for i := range e.sched.Events {
			ev := &e.sched.Events[i]
			if ev.AtHours >= horizon {
				continue // beyond the replay window
			}
			if ev.Isolation != nil {
				push(item{at: ev.AtHours, kind: itemToggle, ev: i})
				continue
			}
			push(item{at: ev.AtHours, kind: itemStart, ev: i})
			if ev.DurationHours > 0 {
				if end := ev.AtHours + ev.DurationHours; end < horizon {
					push(item{at: end, kind: itemEnd, ev: i})
				}
			}
		}
	}

	traj := &Trajectory{Hours: e.cfg.Hours, ScheduleName: e.scheduleName()}
	st := &state{
		failures: make(map[inet.FacilityID]int),
		steps:    make(map[int]bool),
		cuts:     make(map[int]bool),
	}
	cur := e.base
	// One no-failure baseline per clock hour, built on first use; later
	// hours share the first one's facility index.
	var baselines [24]*cascade.Baseline
	var first *cascade.Baseline
	prevCongIXP := make(map[inet.IXPID]bool)
	prevCongTr := make(map[inet.ASN]bool)

	for h.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return traj, err
		}
		at := h.peekAt()
		hour := int(math.Floor(at))
		cutsChanged := false
		for h.Len() > 0 && h.peekAt() == at {
			it := heap.Pop(h).(item)
			switch it.kind {
			case itemTick:
				traj.append(e.cfg.Sink, Event{
					AtHours: at, Kind: "tick", Hour: it.hour,
					Value: capacity.Diurnal[it.hour%24],
				})
			case itemStart, itemEnd:
				cutsChanged = e.applyWindow(traj, st, it, at) || cutsChanged
			case itemToggle:
				en := e.sched.Events[it.ev].Isolation.Enabled
				st.isolated = en
				kind := "isolation_off"
				if en {
					kind = "isolation_on"
				}
				traj.append(e.cfg.Sink, Event{AtHours: at, Kind: kind})
			}
		}
		if cutsChanged {
			cur = e.base.WithCuts(st.cutSet(e.sched))
		}

		// Evaluate the world at this instant.
		hIdx := hour % 24
		mult := capacity.Diurnal[hIdx]
		baseline := baselines[hIdx]
		if baseline == nil {
			if first == nil {
				first = cascade.NewBaseline(e.base, e.dep, mult)
				baseline = first
			} else {
				baseline = first.At(mult)
			}
			baselines[hIdx] = baseline
		}
		burst := st.disturbed()
		scale := st.scaleSet(e.sched)
		failed := st.failedSet()
		flows := baseline.Flows
		if burst {
			flows = cur.ServeBurst(mult, scale, failed)
		}
		sc := cascade.Scenario{
			FailFacilities: failed,
			Surge:          scale,
			DemandMult:     mult,
			SharedHeadroom: e.cfg.SharedHeadroom,
		}
		rep := baseline.Assess(sc, flows)
		var iso *cascade.IsolatedReport
		if st.isolated {
			iso = baseline.AssessIsolated(rep)
		}

		onsets := e.emitCongestionEdges(traj, at, rep, prevCongIXP, prevCongTr)
		mOnsets.Add(int64(onsets))

		step := buildStep(at, hour, burst, st.isolated, flows, rep, iso)
		traj.Steps = append(traj.Steps, step)
		agg := step.Agg
		traj.append(e.cfg.Sink, Event{AtHours: at, Kind: "flows", Hour: hour, Agg: &agg})
		mSteps.Inc()
	}
	mEvents.Add(int64(len(traj.Events)))
	return traj, nil
}

// applyWindow applies one window start/end to the state and records its
// trajectory event; reports whether the active cut set changed.
func (e *Engine) applyWindow(traj *Trajectory, st *state, it item, at float64) bool {
	ev := &e.sched.Events[it.ev]
	start := it.kind == itemStart
	suffix := "_end"
	delta := -1
	if start {
		suffix = "_start"
		delta = 1
	}
	switch {
	case ev.DemandStep != nil:
		st.steps[it.ev] = start
		if !start {
			delete(st.steps, it.ev)
		}
		traj.append(e.cfg.Sink, Event{
			AtHours: at, Kind: "demand_step" + suffix,
			HG: ev.DemandStep.HG, Value: ev.DemandStep.Multiplier,
		})
	case ev.FacilityFailure != nil:
		fid := inet.FacilityID(ev.FacilityFailure.Facility)
		st.failures[fid] += delta
		if st.failures[fid] <= 0 {
			delete(st.failures, fid)
		}
		traj.append(e.cfg.Sink, Event{
			AtHours: at, Kind: "facility_failure" + suffix,
			Facility: ev.FacilityFailure.Facility,
		})
	case ev.CapacityCut != nil:
		st.cuts[it.ev] = start
		if !start {
			delete(st.cuts, it.ev)
		}
		traj.append(e.cfg.Sink, Event{
			AtHours: at, Kind: "capacity_cut" + suffix,
			Layer: ev.CapacityCut.Layer, HG: ev.CapacityCut.HG,
			ISP: ev.CapacityCut.ISP, Value: ev.CapacityCut.CutFraction,
		})
		return true
	}
	return false
}

// emitCongestionEdges diffs the congested link sets against the previous
// step and emits onset/clearance events in a fixed order (IXP onsets, then
// transit onsets, then IXP clears, then transit clears, each ascending);
// returns the onset count. prev maps are updated in place.
func (e *Engine) emitCongestionEdges(traj *Trajectory, at float64, rep *cascade.Report, prevIXP map[inet.IXPID]bool, prevTr map[inet.ASN]bool) int {
	onsets := 0
	curIXP := make(map[inet.IXPID]bool)
	for _, id := range rep.CongestedIXPs() {
		curIXP[id] = true
		if !prevIXP[id] {
			onsets++
			traj.append(e.cfg.Sink, Event{
				AtHours: at, Kind: "congestion_onset", IXP: int(id),
				Value: rep.IXPLoad[id].Utilization(),
			})
		}
	}
	curTr := make(map[inet.ASN]bool)
	for _, as := range rep.CongestedTransits() {
		curTr[as] = true
		if !prevTr[as] {
			onsets++
			traj.append(e.cfg.Sink, Event{
				AtHours: at, Kind: "congestion_onset", Transit: uint32(as),
				Value: rep.TransitLoad[as].Utilization(),
			})
		}
	}
	clearedIXP := make([]inet.IXPID, 0)
	for id := range prevIXP {
		if !curIXP[id] {
			clearedIXP = append(clearedIXP, id)
		}
	}
	sort.Slice(clearedIXP, func(i, j int) bool { return clearedIXP[i] < clearedIXP[j] })
	for _, id := range clearedIXP {
		traj.append(e.cfg.Sink, Event{
			AtHours: at, Kind: "congestion_clear", IXP: int(id),
			Value: rep.IXPLoad[id].Utilization(),
		})
	}
	clearedTr := make([]inet.ASN, 0)
	for as := range prevTr {
		if !curTr[as] {
			clearedTr = append(clearedTr, as)
		}
	}
	sort.Slice(clearedTr, func(i, j int) bool { return clearedTr[i] < clearedTr[j] })
	for _, as := range clearedTr {
		traj.append(e.cfg.Sink, Event{
			AtHours: at, Kind: "congestion_clear", Transit: uint32(as),
			Value: rep.TransitLoad[as].Utilization(),
		})
	}
	for id := range prevIXP {
		delete(prevIXP, id)
	}
	for id := range curIXP {
		prevIXP[id] = true
	}
	for as := range prevTr {
		delete(prevTr, as)
	}
	for as := range curTr {
		prevTr[as] = true
	}
	return onsets
}

func (e *Engine) scheduleName() string {
	if e.sched == nil {
		return ""
	}
	return e.sched.Name
}
