package temporal

// The engine's oracle: Run's step evaluation as it was before the engine
// kept only aggregates. Every step serves afresh, builds its cascade
// report (and, under isolation, its isolated report) as maps, diffs the
// congested-link sets as maps and sums its aggregate from the report.
// buildStep and emitCongestionEdges are verbatim, but for the step type's
// name.

import (
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/cascade"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
)

// referenceStep is a Step as the engine kept it: the full serving split
// and cascade report retained for tests and reporting (only the Aggregate
// reaches the digest).
type referenceStep struct {
	AtHours   float64
	Hour      int
	Burst     bool
	Isolated  bool
	Flows     []capacity.Flow
	Report    *cascade.Report
	IsoReport *cascade.IsolatedReport
	Agg       Aggregate
}

// itemHeap is the event queue as Run kept it before sorting its items
// once: a container/heap of the same items, popped in (timestamp,
// sequence) order.
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

// referenceHeap pushes the run's items onto a heap in construction order.
func referenceHeap(e *Engine) *itemHeap {
	h := &itemHeap{}
	for _, it := range e.items() {
		heap.Push(h, it)
	}
	return h
}

// referenceAdvance pops every item at the earliest timestamp off the heap
// and applies it; returns the timestamp and whether the active cut set
// changed.
func referenceAdvance(e *Engine, h *itemHeap, traj *Trajectory, st *state) (at float64, cutsChanged bool) {
	at = h.peekAt()
	for h.Len() > 0 && h.peekAt() == at {
		cutsChanged = e.apply(traj, st, heap.Pop(h).(item), at) || cutsChanged
	}
	return at, cutsChanged
}

// referenceRun is Run as it was, with its event heap and the same state
// handling: it returns the trajectory, whose Steps hold each step's time,
// hour and aggregate, and every step in full.
func referenceRun(ctx context.Context, e *Engine) (*Trajectory, []referenceStep, error) {
	h := referenceHeap(e)
	traj := &Trajectory{Hours: e.cfg.Hours, ScheduleName: e.scheduleName()}
	st := newState()
	cur := e.base
	// One no-failure baseline per clock hour, built on first use; later
	// hours share the first one's facility index.
	var baselines [24]*cascade.Baseline
	var first *cascade.Baseline
	prevCongIXP := make(map[inet.IXPID]bool)
	prevCongTr := make(map[inet.ASN]bool)
	var steps []referenceStep

	for h.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return traj, steps, err
		}
		at, cutsChanged := referenceAdvance(e, h, traj, st)
		hour := int(math.Floor(at))
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

		e.emitCongestionEdges(traj, at, rep, prevCongIXP, prevCongTr)

		step := buildStep(at, hour, burst, st.isolated, flows, rep, iso)
		steps = append(steps, step)
		traj.Steps = append(traj.Steps, Step{AtHours: step.AtHours, Hour: step.Hour, Agg: step.Agg})
		agg := step.Agg
		traj.append(e.cfg.Sink, Event{AtHours: at, Kind: "flows", Hour: hour, Agg: &agg})
	}
	return traj, steps, nil
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

// buildStep assembles one Step and its digest-facing aggregate.
func buildStep(at float64, hour int, burst, isolated bool, flows []capacity.Flow, rep *cascade.Report, iso *cascade.IsolatedReport) referenceStep {
	st := referenceStep{
		AtHours: at, Hour: hour, Burst: burst, Isolated: isolated,
		Flows: flows, Report: rep, IsoReport: iso,
	}
	for _, f := range flows {
		st.Agg.Demand += f.Demand
		st.Agg.Offnet += f.Offnet
		st.Agg.PNI += f.PNI
		st.Agg.IXP += f.IXP
		st.Agg.UpstreamOffnet += f.UpstreamOffnet
		st.Agg.Transit += f.Transit
	}
	// Sum overload in sorted link order: float accumulation order must not
	// depend on map iteration or the digest loses byte-identity.
	congIXPs := rep.CongestedIXPs()
	congTrs := rep.CongestedTransits()
	for _, id := range congIXPs {
		l := rep.IXPLoad[id]
		st.Agg.OverloadGbps += l.LoadGbps - l.CapacityGbps
	}
	for _, as := range congTrs {
		l := rep.TransitLoad[as]
		st.Agg.OverloadGbps += l.LoadGbps - l.CapacityGbps
	}
	st.Agg.CongestedIXPs = len(congIXPs)
	st.Agg.CongestedTransits = len(congTrs)
	st.Agg.DirectISPs = len(rep.DirectISPs)
	st.Agg.CollateralISPs = len(rep.CollateralISPs)
	st.Agg.Burst = burst
	st.Agg.Isolated = isolated
	if iso != nil {
		st.Agg.IsolatedCollateralISPs = len(iso.IsolatedCollateralISPs)
	}
	return st
}

// mustReference runs the reference loop over the inputs mustRun takes.
func mustReference(t testing.TB, m *capacity.Model, d *hypergiant.Deployment, sched *scenario.Schedule, cfg Config) (*Trajectory, []referenceStep) {
	t.Helper()
	eng, err := New(m, d, sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	traj, steps, err := referenceRun(context.Background(), eng)
	if err != nil {
		t.Fatal(err)
	}
	return traj, steps
}

// twoDaySchedule is a seeded schedule that exercises every kind of step
// the engine evaluates: demand steps, facility failures, capacity cuts on
// each layer (served by WithCuts models) and isolation toggles, over two
// days.
func twoDaySchedule(r *rand.Rand, d *hypergiant.Deployment) *scenario.Schedule {
	facs := facilitiesOf(d)
	s := &scenario.Schedule{Version: scenario.ScheduleVersion, Name: "kernel-steps"}
	win := func() (float64, float64) {
		return float64(r.Intn(81)) / 2, 2 + float64(r.Intn(17))/2
	}
	for _, i := range rngutil.SampleWithoutReplacement(r, len(hgNames), 2) {
		at, dur := win()
		s.Events = append(s.Events, scenario.TimedEvent{AtHours: at, DurationHours: dur,
			DemandStep: &scenario.DemandStep{HG: hgNames[i], Multiplier: 1 + r.Float64()*2}})
	}
	for _, i := range rngutil.SampleWithoutReplacement(r, len(facs), min(3, len(facs))) {
		at, dur := win()
		s.Events = append(s.Events, scenario.TimedEvent{AtHours: at, DurationHours: dur,
			FacilityFailure: &scenario.FacilityFailure{Facility: int(facs[i])}})
	}
	for _, layer := range scenario.ScheduleLayers {
		at, dur := win()
		s.Events = append(s.Events, scenario.TimedEvent{AtHours: at, DurationHours: dur,
			CapacityCut: &scenario.CapacityCut{Layer: layer, HG: hgNames[r.Intn(len(hgNames))], CutFraction: 0.3 + r.Float64()*0.7}})
	}
	for i, on := range []bool{true, false} {
		s.Events = append(s.Events, scenario.TimedEvent{AtHours: float64(24*i + r.Intn(23)),
			Isolation: &scenario.IsolationToggle{Enabled: on}})
	}
	return s
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameSums reports whether the aggregate's serving split is the flows'
// split summed in flow order, bit for bit.
func sameSums(a Aggregate, flows []capacity.Flow) bool {
	var want Aggregate
	for _, f := range flows {
		want.Demand += f.Demand
		want.Offnet += f.Offnet
		want.PNI += f.PNI
		want.IXP += f.IXP
		want.UpstreamOffnet += f.UpstreamOffnet
		want.Transit += f.Transit
	}
	return sameBits(a.Demand, want.Demand) && sameBits(a.Offnet, want.Offnet) && sameBits(a.PNI, want.PNI) &&
		sameBits(a.IXP, want.IXP) && sameBits(a.UpstreamOffnet, want.UpstreamOffnet) && sameBits(a.Transit, want.Transit)
}

// sameAgg compares two aggregates, floats bit for bit, then, with the
// floats zeroed, every other field with ==.
func sameAgg(a, b Aggregate) bool {
	floats := func(x Aggregate) []float64 {
		return []float64{x.Demand, x.Offnet, x.PNI, x.IXP, x.UpstreamOffnet, x.Transit, x.Unserved, x.OverloadGbps}
	}
	fa, fb := floats(a), floats(b)
	for i := range fa {
		if !sameBits(fa[i], fb[i]) {
			return false
		}
	}
	a.Demand, a.Offnet, a.PNI, a.IXP, a.UpstreamOffnet, a.Transit, a.Unserved, a.OverloadGbps = 0, 0, 0, 0, 0, 0, 0, 0
	b.Demand, b.Offnet, b.PNI, b.IXP, b.UpstreamOffnet, b.Transit, b.Unserved, b.OverloadGbps = 0, 0, 0, 0, 0, 0, 0, 0
	return a == b
}

// sameTrajectory compares a trajectory with the reference's: the events
// under reflect.DeepEqual, and every step's time, hour and aggregate bit
// for bit.
func sameTrajectory(got, want *Trajectory) error {
	if got.Hours != want.Hours || got.ScheduleName != want.ScheduleName {
		return fmt.Errorf("horizon %d schedule %q, want %d %q", got.Hours, got.ScheduleName, want.Hours, want.ScheduleName)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		for i := range min(len(got.Events), len(want.Events)) {
			if !reflect.DeepEqual(got.Events[i], want.Events[i]) {
				return fmt.Errorf("event %d is %+v, want %+v", i, got.Events[i], want.Events[i])
			}
		}
		return fmt.Errorf("%d events, want %d", len(got.Events), len(want.Events))
	}
	if len(got.Steps) != len(want.Steps) {
		return fmt.Errorf("%d steps, want %d", len(got.Steps), len(want.Steps))
	}
	for i, w := range want.Steps {
		g := got.Steps[i]
		if !sameBits(g.AtHours, w.AtHours) || g.Hour != w.Hour || !sameAgg(g.Agg, w.Agg) {
			return fmt.Errorf("step %d is %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// marshalDigest is Digest as it was: each event marshaled into a slice of
// its own, then hashed with a newline.
func marshalDigest(t *Trajectory) string {
	h := sha256.New()
	for _, ev := range t.Events {
		b, err := json.Marshal(ev)
		if err != nil {
			panic(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// TestRunMatchesReference holds Run to the reference loop: the same
// events and every step's time, hour and aggregate bit for bit, for no
// schedule, the committed flash-crowd schedule, a seeded two-day schedule
// and a seeded 14-day schedule in the style of the benchmark's, at tiny
// seeds 1-30 and default seed 42 (skipped under -short). Undisturbed steps
// must repeat an earlier (clock hour, isolation) pair in both isolation
// states, so reused evaluations are compared too, and Digest must equal
// the per-line json.Marshal digest on every trajectory.
func TestRunMatchesReference(t *testing.T) {
	flash, err := scenario.LoadSchedule("../../schedules/ios-flash-crowd.json")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]inet.Config, 0, 31)
	for seed := int64(1); seed <= 30; seed++ {
		cfgs = append(cfgs, inet.TinyConfig(seed))
	}
	if !testing.Short() {
		cfgs = append(cfgs, inet.ConfigFromScenario(scenario.Default(), 42))
	}
	var reused [2]int
	burst := 0
	for _, cfg := range cfgs {
		d, m := buildWorldConfig(t, cfg)
		r := rngutil.New(rngutil.Derive(cfg.Seed, rngutil.Label("temporal.reference")))
		for _, c := range []struct {
			name  string
			sched *scenario.Schedule
			hours int
		}{
			{"steady", nil, 48},
			{"flash-crowd", flash, 72},
			{"two-day", twoDaySchedule(r, d), 48},
			{"two-weeks", weeksSchedule(weeksSeed(cfg.Seed), d, 14*24), 14 * 24},
		} {
			traj := mustRun(t, m, d, c.sched, Config{Hours: c.hours})
			ref, steps := mustReference(t, m, d, c.sched, Config{Hours: c.hours})
			if err := sameTrajectory(traj, ref); err != nil {
				t.Fatalf("seed %d %s: %v", cfg.Seed, c.name, err)
			}
			for _, tr := range []*Trajectory{traj, ref} {
				if got, want := tr.Digest(), marshalDigest(tr); got != want {
					t.Fatalf("seed %d %s: digest %s, per-line Marshal digest %s", cfg.Seed, c.name, got, want)
				}
			}
			var steady [24][2]bool
			for _, st := range steps {
				if st.Burst {
					burst++
					continue
				}
				iso := 0
				if st.Isolated {
					iso = 1
				}
				if steady[st.Hour%24][iso] {
					reused[iso]++
				}
				steady[st.Hour%24][iso] = true
			}
		}
	}
	if reused[0] == 0 || reused[1] == 0 || burst == 0 {
		t.Fatalf("%d shared and %d isolated steps reused, %d burst steps: some step kind is not exercised", reused[0], reused[1], burst)
	}
}
