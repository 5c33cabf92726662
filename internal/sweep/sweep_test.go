package sweep

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"offnetrisk/internal/cascade"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/scenario"
)

func TestColocationPropensitySweep(t *testing.T) {
	res, err := ColocationPropensity(1, []float64{0.3, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	lo, hi := res.Points[0], res.Points[1]
	// Higher propensity must yield more ground-truth colocation and more
	// correlated failures.
	if hi.Metrics["all-at-top-frac"] <= lo.Metrics["all-at-top-frac"] {
		t.Errorf("full concentration did not rise with propensity: %.2f → %.2f",
			lo.Metrics["all-at-top-frac"], hi.Metrics["all-at-top-frac"])
	}
	if hi.Metrics["hg-per-failure"] <= lo.Metrics["hg-per-failure"] {
		t.Errorf("correlated failures did not rise with propensity: %.2f → %.2f",
			lo.Metrics["hg-per-failure"], hi.Metrics["hg-per-failure"])
	}
	if !strings.Contains(res.String(), "propensity") {
		t.Error("table missing header")
	}
}

func TestSharedHeadroomSweep(t *testing.T) {
	res, err := SharedHeadroom(1, []float64{1.02, 1.25, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Congestion fraction must fall (weakly) as headroom grows, and the
	// tight-headroom end must actually congest.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Metrics["congesting-frac"] > res.Points[i-1].Metrics["congesting-frac"]+1e-9 {
			t.Errorf("congestion rose with headroom: %+v", res.Points)
		}
	}
	if res.Points[0].Metrics["congesting-frac"] <= 0 {
		t.Error("no congestion even at 2% headroom")
	}
}

// referenceSharedHeadroom is SharedHeadroom as it was before the sweep
// shared one baseline: each scenario calls the one-shot cascade.Simulate,
// which serves a fresh no-failure baseline.
func referenceSharedHeadroom(seed int64, values []float64) (Result, error) {
	res := Result{Name: "shared-headroom", Param: "headroom"}
	sp := scenario.Default()
	d, m, err := tinyWorld(sp, hypergiant.DeployConfigFromScenario(sp, seed))
	if err != nil {
		return res, err
	}
	hosts := d.HostingISPs()
	for _, v := range values {
		start := time.Now()
		var congested, scenarios int
		var collateral float64
		for _, as := range hosts {
			fid, n := cascade.TopFacility(d, as)
			if n <= 0 {
				continue
			}
			sc := cascade.DefaultScenario()
			sc.SharedHeadroom = v
			sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
			rep := cascade.Simulate(m, d, sc)
			scenarios++
			if len(rep.CongestedIXPs())+len(rep.CongestedTransits()) > 0 {
				congested++
			}
			collateral += float64(len(rep.CollateralISPs))
		}
		res.Points = append(res.Points, Point{
			Param: v,
			Metrics: map[string]float64{
				"congesting-frac": frac(congested, scenarios),
				"collateral-isps": collateral / float64(max(scenarios, 1)),
			},
			ElapsedMS: msSince(start),
		})
	}
	return res, nil
}

// TestSharedHeadroomMatchesReference: serving the no-failure baseline once
// per sweep leaves every point equal to the per-scenario reference.
func TestSharedHeadroomMatchesReference(t *testing.T) {
	values := []float64{1.02, 1.05, 1.25, 1.5, 2.0}
	for seed := int64(1); seed <= 6; seed++ {
		got, err := SharedHeadroom(seed, values)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceSharedHeadroom(seed, values)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Result{&got, &want} {
			for i := range r.Points {
				r.Points[i].ElapsedMS = 0
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: shared-baseline sweep differs from the reference:\n%s\nwant\n%s", seed, got, want)
		}
	}
}

func TestDemandSpikeSweep(t *testing.T) {
	res, err := DemandSpike(1, []float64{1.0, 1.3, 1.58, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	// Interdomain growth must be monotone in the spike and dominate offnet
	// growth at every point past 1.0 (the §4.1 asymmetry).
	prev := -1.0
	for _, p := range res.Points {
		ig := p.Metrics["interdomain-growth"]
		if ig < prev-1e-9 {
			t.Errorf("interdomain growth not monotone: %+v", res.Points)
		}
		prev = ig
		if p.Param > 1.2 && ig <= p.Metrics["offnet-growth"] {
			t.Errorf("spike %v: interdomain (%v) should exceed offnet growth (%v)",
				p.Param, ig, p.Metrics["offnet-growth"])
		}
	}
	// At multiplier 1.0 the only change is the burst regime absorbing the
	// steady-state spill: offnet growth is the small burst margin and
	// interdomain traffic falls.
	if g := res.Points[0].Metrics["offnet-growth"]; g < 0 || g > 0.15 {
		t.Errorf("no-spike offnet growth = %v, want small burst margin", g)
	}
	if ig := res.Points[0].Metrics["interdomain-growth"]; ig > 0 {
		t.Errorf("no-spike interdomain growth = %v, want ≤0", ig)
	}
}

func TestResultStringEmpty(t *testing.T) {
	r := Result{Name: "x", Param: "p"}
	if !strings.Contains(r.String(), "sweep x") {
		t.Error("empty sweep renders header")
	}
}
