package temporal

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
)

// The property suite runs 200+ randomized schedules and checks, at every
// event timestamp:
//   - flow conservation: Demand == Offnet+PNI+IXP+UpstreamOffnet+Transit
//     + unserved (unserved is identically zero in this serving model — the
//     transit layer is the unbounded spill sink);
//   - link utilization never exceeds capacity for non-congested links;
//   - the collateral blast radius is monotone non-increasing in
//     SharedHeadroom (set-wise, at every step).

var hgNames = []string{"google", "netflix", "meta", "akamai"}

// randomSchedule builds a valid schedule: every event gets a distinct
// target, so no two windows can collide whatever their timing.
func randomSchedule(r *rand.Rand, facilities []inet.FacilityID) *scenario.Schedule {
	s := &scenario.Schedule{Version: scenario.ScheduleVersion, Name: "prop"}
	win := func() (at, dur float64) {
		at = math.Round(r.Float64()*40) / 2 // [0, 20] in half-hour ticks
		if r.Intn(3) == 0 {
			return at, 0 // open-ended
		}
		return at, 1 + math.Round(r.Float64()*10)/2
	}
	// Demand steps on a random subset of distinct hypergiants.
	for _, hg := range rngutil.SampleWithoutReplacement(r, len(hgNames), r.Intn(3)) {
		at, dur := win()
		s.Events = append(s.Events, scenario.TimedEvent{
			AtHours: at, DurationHours: dur,
			DemandStep: &scenario.DemandStep{HG: hgNames[hg], Multiplier: 1 + r.Float64()*2.5},
		})
	}
	// Failures of distinct facilities.
	for _, i := range rngutil.SampleWithoutReplacement(r, len(facilities), r.Intn(3)) {
		at, dur := win()
		s.Events = append(s.Events, scenario.TimedEvent{
			AtHours: at, DurationHours: dur,
			FacilityFailure: &scenario.FacilityFailure{Facility: int(facilities[i])},
		})
	}
	// One cut on a distinct (layer, hg) pair.
	if r.Intn(2) == 0 {
		at, dur := win()
		s.Events = append(s.Events, scenario.TimedEvent{
			AtHours: at, DurationHours: dur,
			CapacityCut: &scenario.CapacityCut{
				Layer:       scenario.ScheduleLayers[r.Intn(len(scenario.ScheduleLayers))],
				HG:          hgNames[r.Intn(len(hgNames))],
				CutFraction: 0.25 + r.Float64()*0.75,
			},
		})
	}
	// Sometimes toggle isolation on mid-run.
	if r.Intn(3) == 0 {
		s.Events = append(s.Events, scenario.TimedEvent{
			AtHours:   math.Round(r.Float64() * 20),
			Isolation: &scenario.IsolationToggle{Enabled: true},
		})
	}
	return s
}

func facilitiesOf(d *hypergiant.Deployment) []inet.FacilityID {
	seen := map[inet.FacilityID]bool{}
	var ids []inet.FacilityID
	for _, s := range d.Servers {
		if !seen[s.Facility] {
			seen[s.Facility] = true
			ids = append(ids, s.Facility)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// checkConservation checks the flows of a reference step and the
// aggregate Run reported for it.
func checkConservation(t *testing.T, schedule int, rs *referenceStep, agg Aggregate) {
	t.Helper()
	for _, f := range rs.Flows {
		sum := f.Offnet + f.PNI + f.IXP + f.UpstreamOffnet + f.Transit
		if math.Abs(sum-f.Demand) > 1e-6*math.Max(1, f.Demand) {
			t.Fatalf("schedule %d t=%g: flow %v/%d not conserved: %v != %v",
				schedule, rs.AtHours, f.HG, f.ISP, sum, f.Demand)
		}
	}
	total := agg.Offnet + agg.PNI + agg.IXP + agg.UpstreamOffnet + agg.Transit + agg.Unserved
	if math.Abs(total-agg.Demand) > 1e-6*math.Max(1, agg.Demand) {
		t.Fatalf("schedule %d t=%g: aggregate not conserved: %v != %v",
			schedule, rs.AtHours, total, agg.Demand)
	}
	if agg.Unserved != 0 {
		t.Fatalf("schedule %d t=%g: unserved %v in a model whose transit sink is unbounded",
			schedule, rs.AtHours, agg.Unserved)
	}
}

func checkUtilization(t *testing.T, schedule int, st *referenceStep) {
	t.Helper()
	for id, l := range st.Report.IXPLoad {
		if !l.Congested() && l.LoadGbps > l.CapacityGbps {
			t.Fatalf("schedule %d t=%g: IXP %d load %v > capacity %v yet not congested",
				schedule, st.AtHours, id, l.LoadGbps, l.CapacityGbps)
		}
		if !l.Congested() && l.LoadGbps > 0 && l.Utilization() >= 1 {
			t.Fatalf("schedule %d t=%g: IXP %d utilization %v >= 1 yet not congested",
				schedule, st.AtHours, id, l.Utilization())
		}
	}
	for as, l := range st.Report.TransitLoad {
		if !l.Congested() && l.LoadGbps > l.CapacityGbps {
			t.Fatalf("schedule %d t=%g: transit %d load %v > capacity %v yet not congested",
				schedule, st.AtHours, as, l.LoadGbps, l.CapacityGbps)
		}
	}
}

func collateralSet(st *referenceStep) map[inet.ASN]bool { return st.Report.CollateralISPs }

// TestPropertiesOverRandomSchedules checks the properties on the reference
// loop's full steps, and conservation on the aggregates Run reports, which
// must equal the reference's.
func TestPropertiesOverRandomSchedules(t *testing.T) {
	const schedules = 200
	const perWorld = 20
	headrooms := []float64{1.05, 1.25, 1.6}
	for i := 0; i < schedules; i++ {
		seed := rngutil.Derive(42, rngutil.Label("temporal.prop"), int64(i/perWorld))
		d, m := buildWorld(t, seed)
		r := rngutil.New(rngutil.Derive(42, rngutil.Label("temporal.prop.sched"), int64(i)))
		sched := randomSchedule(r, facilitiesOf(d))
		if err := sched.Validate(); err != nil {
			t.Fatalf("schedule %d: generator produced invalid schedule: %v", i, err)
		}

		// One trajectory per headroom over the same schedule. Headroom only
		// resizes shared-link capacities — flows are identical — so the
		// congested and collateral sets must shrink set-wise as headroom
		// grows.
		var trajs []*Trajectory
		var refs [][]referenceStep
		for _, hr := range headrooms {
			cfg := Config{Hours: 24, SharedHeadroom: hr}
			traj := mustRun(t, m, d, sched, cfg)
			ref, steps := mustReference(t, m, d, sched, cfg)
			if err := sameTrajectory(traj, ref); err != nil {
				t.Fatalf("schedule %d headroom %v: %v", i, hr, err)
			}
			trajs = append(trajs, traj)
			refs = append(refs, steps)
		}
		for k := 1; k < len(refs); k++ {
			if len(refs[k]) != len(refs[0]) {
				t.Fatalf("schedule %d: step counts differ across headrooms", i)
			}
		}
		for s := range refs[0] {
			st := &refs[0][s]
			checkConservation(t, i, st, trajs[0].Steps[s].Agg)
			checkUtilization(t, i, st)
			for k := 1; k < len(refs); k++ {
				lo, hi := &refs[k-1][s], &refs[k][s]
				checkUtilization(t, i, hi)
				for as := range collateralSet(hi) {
					if !collateralSet(lo)[as] {
						t.Fatalf("schedule %d t=%g: ISP %d collateral at headroom %v but not at %v",
							i, hi.AtHours, as, headrooms[k], headrooms[k-1])
					}
				}
				for _, id := range hi.Report.CongestedIXPs() {
					if hi.Report.IXPLoad[id].LoadGbps > 0 {
						l := lo.Report.IXPLoad[id]
						if !l.Congested() {
							t.Fatalf("schedule %d t=%g: IXP %d congested at headroom %v but not at %v",
								i, hi.AtHours, id, headrooms[k], headrooms[k-1])
						}
					}
				}
			}
		}
	}
}

// Monotonicity of the blast radius holds for the closed-form entry point
// too: the engine inherits it from cascade.Baseline.Assess, so pin it there
// as well with a focused failure scenario.
func TestCollateralMonotoneInHeadroomSteady(t *testing.T) {
	d, m := buildWorld(t, 5)
	fid := servedFacility(t, d)
	sched := &scenario.Schedule{
		Version: scenario.ScheduleVersion,
		Name:    "mono",
		Events: []scenario.TimedEvent{{
			AtHours:         0,
			FacilityFailure: &scenario.FacilityFailure{Facility: int(fid)},
		}},
	}
	prev := -1
	for _, hr := range []float64{1.01, 1.1, 1.25, 1.5, 2.0, 3.0} {
		traj := mustRun(t, m, d, sched, Config{Hours: 24, SharedHeadroom: hr})
		total := 0
		for _, st := range traj.Steps {
			total += st.Agg.CollateralISPs
		}
		if prev >= 0 && total > prev {
			t.Fatalf("headroom %v: total collateral %d grew from %d", hr, total, prev)
		}
		prev = total
	}
}

var sinkTrajectory *Trajectory

func BenchmarkEngine24h(b *testing.B) {
	d, m := buildWorld(b, 1)
	fid := servedFacility(b, d)
	sched := &scenario.Schedule{
		Version: scenario.ScheduleVersion,
		Name:    "bench",
		Events: []scenario.TimedEvent{
			{AtHours: 9, DurationHours: 6, DemandStep: &scenario.DemandStep{HG: "akamai", Multiplier: 2.2}},
			{AtHours: 12, DurationHours: 4, FacilityFailure: &scenario.FacilityFailure{Facility: int(fid)}},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkTrajectory = mustRun(b, m, d, sched, Config{Hours: 24})
	}
}
