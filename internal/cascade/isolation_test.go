package cascade

import (
	"context"
	"testing"

	"offnetrisk/internal/inet"
	"offnetrisk/internal/traffic"
)

func TestIsolationNeverWorseThanSharedFate(t *testing.T) {
	d, m := setup(t, 1)
	hosts := d.HostingISPs()
	for _, as := range hosts[:15] {
		fid, n := TopFacility(d, as)
		if n == 0 {
			continue
		}
		sc := DefaultScenario()
		sc.SharedHeadroom = 1.1
		sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
		rep := SimulateIsolated(m, d, sc)
		if len(rep.IsolatedCollateralISPs) > len(rep.CollateralISPs) {
			t.Fatalf("AS%d: isolation increased collateral (%d > %d)",
				as, len(rep.IsolatedCollateralISPs), len(rep.CollateralISPs))
		}
		// Isolated collateral must be a subset of shared-fate collateral.
		for isp := range rep.IsolatedCollateralISPs {
			if !rep.CollateralISPs[isp] {
				t.Fatalf("AS%d: isolated collateral ISP %d not in shared-fate set", as, isp)
			}
		}
	}
}

func TestIsolationIdentifiesOffenders(t *testing.T) {
	// A surge on exactly one hypergiant must make (at most) that hypergiant
	// the offender; innocent hypergiants keep within their slices.
	d, m := setup(t, 1)
	sc := DefaultScenario()
	sc.SharedHeadroom = 1.05
	sc.Surge = map[traffic.HG]float64{traffic.Netflix: 2.5}
	rep := SimulateIsolated(m, d, sc)
	for _, hg := range rep.OffendingHGs {
		if hg != traffic.Netflix {
			t.Errorf("innocent hypergiant %s marked as offender", hg)
		}
	}
}

func TestMitigationSweepReducesCollateral(t *testing.T) {
	// The §6 claim in numbers: per-hypergiant capacity slices on shared
	// links cut collateral damage substantially.
	d, m := setup(t, 1)
	hosts := d.HostingISPs()
	st, err := MitigationSweepContext(context.Background(), m, d, hosts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scenarios == 0 {
		t.Fatal("no scenarios")
	}
	if st.MeanCollateralIsolated > st.MeanCollateralShared {
		t.Errorf("isolation increased mean collateral: %.2f > %.2f",
			st.MeanCollateralIsolated, st.MeanCollateralShared)
	}
	if st.MeanCollateralShared > 0 && st.MeanCollateralIsolated >= st.MeanCollateralShared*0.9 {
		t.Errorf("isolation barely helped: %.2f vs %.2f",
			st.MeanCollateralIsolated, st.MeanCollateralShared)
	}
}

func TestSlicesOf(t *testing.T) {
	base := hgLoads{traffic.Google: 30, traffic.Netflix: 10}
	s := slicesOf(&base, 100)
	if s[traffic.Google] != 75 || s[traffic.Netflix] != 25 {
		t.Errorf("proportional slices wrong: %+v", s)
	}
	var total float64
	for _, hg := range traffic.All {
		total += s[hg]
	}
	if total > 100+1e-9 {
		t.Errorf("slices exceed capacity: %v", total)
	}
	// Zero baseline → equal split.
	eq := slicesOf(nil, 100)
	for _, hg := range traffic.All {
		if eq[hg] != 25 {
			t.Errorf("equal split wrong: %+v", eq)
		}
	}
}
