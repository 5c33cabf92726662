package cascade

import (
	"math/rand"
	"testing"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

// stepCuts is one capacity cut per serving layer, as a schedule's cut
// windows give them: on one hypergiant or all of them, and on one hosting
// ISP or every network.
func stepCuts(r *rand.Rand, d *hypergiant.Deployment) []capacity.Cut {
	hosts := d.HostingISPs()
	var cuts []capacity.Cut
	for _, layer := range []capacity.Layer{capacity.LayerOffnet, capacity.LayerPNI, capacity.LayerIXP} {
		c := capacity.Cut{Layer: layer, Frac: 0.3 + 0.7*r.Float64()}
		if i := r.Intn(len(traffic.All) + 1); i < len(traffic.All) {
			c.HG = traffic.All[i]
		} else {
			c.AllHGs = true
		}
		if r.Intn(2) == 0 {
			c.ISP = hosts[r.Intn(len(hosts))]
		}
		cuts = append(cuts, c)
	}
	return cuts
}

// TestTemporalStepsMatchReference drives AssessInto, the temporal engine's
// kernel entry, over the kinds of step the engine evaluates: steady steps
// on an hour's baseline flows, burst steps with failures and surges, and
// steps served by a WithCuts model, each with and without isolation. Every
// count and every link of the view must match the reference assessment of
// the same flows, at tiny seeds 1-30 and default seed 42 (skipped under
// -short).
func TestTemporalStepsMatchReference(t *testing.T) {
	cfgs := make([]inet.Config, 0, 31)
	for seed := int64(1); seed <= 30; seed++ {
		cfgs = append(cfgs, inet.TinyConfig(seed))
	}
	if !testing.Short() {
		cfgs = append(cfgs, inet.ConfigFromScenario(scenario.Default(), 42))
	}
	kinds := []string{"steady", "burst", "cut"}
	var seen [3][2]int
	congested, isoCollateral := 0, 0
	for _, cfg := range cfgs {
		d, m := buildWorld(t, cfg)
		r := rngutil.New(rngutil.Derive(cfg.Seed, rngutil.Label("cascade.kernel.steps")))
		first := NewBaseline(m, d, capacity.Diurnal[0])
		facs := first.facilities()
		var bs [24]*Baseline
		var rbs [24]*referenceBaseline
		var s Scratch
		for step := 0; step < 48; step++ {
			h := r.Intn(24)
			mult := capacity.Diurnal[h]
			if bs[h] == nil {
				bs[h], rbs[h] = first.At(mult), newReferenceBaseline(m, d, mult, hgsByFacility(d))
			}
			sc := Scenario{DemandMult: mult, SharedHeadroom: 1.02 + r.Float64()}
			flows := bs[h].Flows
			kind := r.Intn(len(kinds))
			if kind > 0 {
				sc.FailFacilities = make(map[inet.FacilityID]bool)
				for _, i := range rngutil.SampleWithoutReplacement(r, len(facs), r.Intn(min(4, len(facs)+1))) {
					sc.FailFacilities[facs[i]] = true
				}
				sc.Surge = make(map[traffic.HG]float64)
				for _, hg := range traffic.All {
					if r.Intn(2) == 0 {
						sc.Surge[hg] = 1 + 2*r.Float64()
					}
				}
				served := m
				if kind == 2 {
					served = m.WithCuts(stepCuts(r, d))
				}
				flows = served.ServeBurst(mult, sc.Surge, sc.FailFacilities)
			}
			isolated := r.Intn(2) == 0
			want := rbs[h].Assess(sc, flows)
			var wantIso *IsolatedReport
			iso := 0
			if isolated {
				wantIso, iso = rbs[h].AssessIsolated(want), 1
				isoCollateral += len(wantIso.IsolatedCollateralISPs)
			}
			if err := sameAssessInto(bs[h], &s, sc, flows, isolated, want, wantIso, d.World); err != nil {
				t.Fatalf("seed %d step %d (%s, isolated %v): %v", cfg.Seed, step, kinds[kind], isolated, err)
			}
			seen[kind][iso]++
			if len(want.CongestedIXPs())+len(want.CongestedTransits()) > 0 {
				congested++
			}
		}
	}
	for kind, n := range seen {
		if n[0] == 0 || n[1] == 0 {
			t.Fatalf("%s steps: %d shared, %d isolated; some step kind is not exercised", kinds[kind], n[0], n[1])
		}
	}
	if congested == 0 || isoCollateral == 0 {
		t.Fatalf("%d congested steps, %d isolated collateral ISPs: congestion is not exercised", congested, isoCollateral)
	}
}
