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
// (timestamp, sequence number), sequence numbers are assigned in a fixed
// construction order, the serving model and cascade assessment are
// the kernels the closed-form sweeps run (capacity.Model.ServeInto in the
// burst regime, and cascade.Baseline.AssessInto, the kernel pass behind
// Assess and Simulate, against one no-failure cascade.Baseline per clock
// hour, built on first use), and no wall-clock or map-iteration order
// reaches the trajectory. An undisturbed step depends only on its clock
// hour and isolation, so each such pair is evaluated once per run and
// reused. A trajectory keeps each step's aggregate, not its flows or
// reports. The SHA-256 trajectory digest is therefore byte-identical at
// any -workers setting, and the closed-form pipeline remains the
// differential oracle: an empty schedule reproduces capacity.Serve hour by
// hour, and a scheduled facility failure lands on cascade.Simulate's
// report bit-exactly.
package temporal

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
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

// itemKind orders what a queue item does when it fires.
type itemKind int

const (
	itemTick itemKind = iota
	itemStart
	itemEnd
	itemToggle
)

// item is one entry of the event queue: a timestamp, a deterministic
// tiebreak sequence assigned at construction, and the schedule entry it
// activates or deactivates (ticks carry the hour instead).
type item struct {
	at   float64
	seq  int
	kind itemKind
	hour int // itemTick
	ev   int // schedule event index, for start/end/toggle
}

// compareItems orders items by (timestamp, sequence). Sequences are
// unique and New rejects NaN times, so the order is total.
func compareItems(a, b item) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// state is the engine's mutable world between steps. Activation is counted,
// not boolean, so a window ending and an adjacent window starting at the
// same instant commute whatever their queue order.
type state struct {
	failures map[inet.FacilityID]int
	steps    map[int]bool // active demand-step schedule indexes
	cuts     map[int]bool // active capacity-cut schedule indexes
	isolated bool
}

func newState() *state {
	return &state{
		failures: make(map[inet.FacilityID]int),
		steps:    make(map[int]bool),
		cuts:     make(map[int]bool),
	}
}

func (st *state) disturbed() bool {
	return len(st.failures) > 0 || len(st.steps) > 0 || len(st.cuts) > 0
}

// failedSet renders the counted failures as the map serving expects; nil
// when nothing is dark.
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

// Run replays the schedule over the horizon and returns the trajectory.
// Every item is known before the run starts and none is added during it,
// so the queue is the items sorted once. The loop takes every item sharing
// the earliest timestamp, applies them to the state, then evaluates the
// world once at that instant — serving split, congestion assessment,
// onset/clearance detection, isolation accounting.
func (e *Engine) Run(ctx context.Context) (*Trajectory, error) {
	items := e.items()
	slices.SortFunc(items, compareItems)
	traj := &Trajectory{Hours: e.cfg.Hours, ScheduleName: e.scheduleName()}
	st := newState()
	cur := e.base
	var ev evaluator
	for next := 0; next < len(items); {
		if err := ctx.Err(); err != nil {
			return traj, err
		}
		at := items[next].at
		cutsChanged := false
		for ; next < len(items) && items[next].at == at; next++ {
			cutsChanged = e.apply(traj, st, items[next], at) || cutsChanged
		}
		if cutsChanged {
			cur = e.base.WithCuts(st.cutSet(e.sched))
		}
		hour := int(math.Floor(at))
		o := ev.evaluate(e, st, cur, hour%24)
		mOnsets.Add(int64(ev.emitEdges(traj, e.cfg.Sink, at, o.links)))
		traj.Steps = append(traj.Steps, Step{AtHours: at, Hour: hour, Agg: o.agg})
		agg := o.agg
		traj.append(e.cfg.Sink, Event{AtHours: at, Kind: "flows", Hour: hour, Agg: &agg})
		mSteps.Inc()
	}
	mEvents.Add(int64(len(traj.Events)))
	return traj, nil
}

// items returns the run's queue items in construction order, each with its
// sequence number: every hourly tick of the horizon, then every schedule
// item inside it.
func (e *Engine) items() []item {
	h := make([]item, 0, e.cfg.Hours)
	push := func(it item) {
		it.seq = len(h)
		h = append(h, it)
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
	return h
}

// apply applies one item at its timestamp to the state and records its
// event; reports whether the active cut set changed.
func (e *Engine) apply(traj *Trajectory, st *state, it item, at float64) bool {
	switch it.kind {
	case itemTick:
		traj.append(e.cfg.Sink, Event{
			AtHours: at, Kind: "tick", Hour: it.hour,
			Value: capacity.Diurnal[it.hour%24],
		})
	case itemStart, itemEnd:
		return e.applyWindow(traj, st, it, at)
	case itemToggle:
		en := e.sched.Events[it.ev].Isolation.Enabled
		st.isolated = en
		kind := "isolation_off"
		if en {
			kind = "isolation_on"
		}
		traj.append(e.cfg.Sink, Event{AtHours: at, Kind: kind})
	}
	return false
}

// outcome is what one evaluated step reports: its aggregate and its
// shared links.
type outcome struct {
	agg   Aggregate
	links cascade.LinkView
}

// evaluator is one run's memory for evaluating steps: the no-failure
// baseline of each clock hour, built on first use (later hours share the
// first one's link index), the scratch and serving buffers every kernel
// pass reuses, each undisturbed (clock hour, isolation) outcome once
// evaluated, and the previous step's congested links.
type evaluator struct {
	baselines       [24]*cascade.Baseline
	first           *cascade.Baseline
	s               cascade.Scratch
	buf             capacity.Buffers
	steady          [24][2]*outcome
	prevIXP, prevTr []bool
}

// evaluate assesses the world at clock hour h (of the day) in the state.
// An undisturbed step serves its hour's baseline flows under the scenario
// (no failure, no surge, Diurnal[h], headroom), so its outcome depends
// only on (h, isolation): it is evaluated once and reused. A disturbed
// step serves the cut model in the burst regime into the reused buffers.
// Both run one kernel pass against the hour's baseline.
func (ev *evaluator) evaluate(e *Engine, st *state, cur *capacity.Model, h int) outcome {
	mult := capacity.Diurnal[h]
	b := ev.baselines[h]
	if b == nil {
		if ev.first == nil {
			ev.first = cascade.NewBaseline(e.base, e.dep, mult)
			b = ev.first
		} else {
			b = ev.first.At(mult)
		}
		ev.baselines[h] = b
	}
	burst := st.disturbed()
	iso := 0
	if st.isolated {
		iso = 1
	}
	if !burst && ev.steady[h][iso] != nil {
		return *ev.steady[h][iso]
	}
	sc := cascade.Scenario{DemandMult: mult, SharedHeadroom: e.cfg.SharedHeadroom}
	flows := b.Flows
	if burst {
		sc.Surge = st.scaleSet(e.sched)
		sc.FailFacilities = st.failedSet()
		flows = cur.ServeInto(&ev.buf, mult, sc.Surge, sc.FailFacilities, true)
	}
	t, links := b.AssessInto(&ev.s, sc, flows, st.isolated)
	o := outcome{agg: aggregate(flows, t, burst, st.isolated), links: links}
	if !burst {
		// The view aliases the scratch, which the next pass overwrites.
		o.links.IXPCongested = slices.Clone(links.IXPCongested)
		o.links.TransitCongested = slices.Clone(links.TransitCongested)
		o.links.IXPUtilization = slices.Clone(links.IXPUtilization)
		o.links.TransitUtilization = slices.Clone(links.TransitUtilization)
		ev.steady[h][iso] = &o
	}
	return o
}

// aggregate is a step's Aggregate: its flows summed in flow order, and
// its congestion counts from the kernel's tally.
func aggregate(flows []capacity.Flow, t cascade.Tally, burst, isolated bool) Aggregate {
	a := Aggregate{
		OverloadGbps:           t.OverloadGbps,
		CongestedIXPs:          t.CongestedIXPs,
		CongestedTransits:      t.CongestedTransits,
		DirectISPs:             t.DirectISPs,
		CollateralISPs:         t.CollateralISPs,
		IsolatedCollateralISPs: t.IsolatedCollateralISPs,
		Burst:                  burst,
		Isolated:               isolated,
	}
	for i := range flows {
		f := &flows[i]
		a.Demand += f.Demand
		a.Offnet += f.Offnet
		a.PNI += f.PNI
		a.IXP += f.IXP
		a.UpstreamOffnet += f.UpstreamOffnet
		a.Transit += f.Transit
	}
	return a
}

// emitEdges diffs the step's congested links against the previous step's
// and emits onset and clearance events in a fixed order (exchange onsets,
// then provider onsets, then exchange clears, then provider clears, each
// ascending), valued at the step's utilization; returns the onset count.
// The step's flags become the previous step's.
func (ev *evaluator) emitEdges(traj *Trajectory, sink *obs.EventSink, at float64, l cascade.LinkView) int {
	if ev.prevIXP == nil {
		ev.prevIXP = make([]bool, len(l.IXPs))
		ev.prevTr = make([]bool, len(l.Transits))
	}
	ixp := func(i int) Event { return Event{IXP: int(l.IXPs[i]), Value: l.IXPUtilization[i]} }
	transit := func(i int) Event { return Event{Transit: uint32(l.Transits[i]), Value: l.TransitUtilization[i]} }
	onsets := edges(traj, sink, at, "congestion_onset", l.IXPCongested, ev.prevIXP, ixp)
	onsets += edges(traj, sink, at, "congestion_onset", l.TransitCongested, ev.prevTr, transit)
	edges(traj, sink, at, "congestion_clear", ev.prevIXP, l.IXPCongested, ixp)
	edges(traj, sink, at, "congestion_clear", ev.prevTr, l.TransitCongested, transit)
	copy(ev.prevIXP, l.IXPCongested)
	copy(ev.prevTr, l.TransitCongested)
	return onsets
}

// edges appends a kind event for each link, ascending, set in now but not
// in before; returns how many.
func edges(traj *Trajectory, sink *obs.EventSink, at float64, kind string, now, before []bool, link func(int) Event) int {
	n := 0
	for i, on := range now {
		if on && !before[i] {
			ev := link(i)
			ev.AtHours, ev.Kind = at, kind
			traj.append(sink, ev)
			n++
		}
	}
	return n
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

func (e *Engine) scheduleName() string {
	if e.sched == nil {
		return ""
	}
	return e.sched.Name
}
