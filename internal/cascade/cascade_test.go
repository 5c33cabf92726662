package cascade

import (
	"reflect"
	"testing"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/traffic"
)

func setup(t *testing.T, seed int64) (*hypergiant.Deployment, *capacity.Model) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DefaultDeployConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return d, capacity.Build(d, capacity.DefaultConfig(seed))
}

// multiHGISP finds an ISP whose top facility hosts several hypergiants.
func multiHGISP(t *testing.T, d *hypergiant.Deployment) (inet.ASN, inet.FacilityID, int) {
	t.Helper()
	bestAS, bestFID, bestN := inet.ASN(0), inet.FacilityID(0), 0
	for _, as := range d.HostingISPs() {
		if !d.World.ISPs[as].IsAccess() {
			continue
		}
		fid, n := TopFacility(d, as)
		if n > bestN {
			bestAS, bestFID, bestN = as, fid, n
		}
	}
	if bestN < 2 {
		t.Fatal("no multi-hypergiant facility in tiny world")
	}
	return bestAS, bestFID, bestN
}

func TestTopFacility(t *testing.T) {
	d, _ := setup(t, 1)
	as, fid, n := multiHGISP(t, d)
	// The returned facility must actually host n distinct hypergiants.
	hgs := make(map[traffic.HG]bool)
	for _, s := range d.ServersIn(as) {
		if s.Facility == fid {
			hgs[s.HG] = true
		}
	}
	if len(hgs) != n {
		t.Errorf("TopFacility reported %d HGs, facility hosts %d", n, len(hgs))
	}
	// Unknown ISP → zero values.
	if fid, n := TopFacility(d, inet.ASN(424242)); fid != 0 || n != -1 && n != 0 {
		t.Logf("empty ISP: fid=%d n=%d", fid, n)
	}
}

func TestFacilityFailureKnocksOutMultipleHGs(t *testing.T) {
	// §3.3: "Facility-wide outages will impact all hosted servers" — of
	// several hypergiants at once.
	d, m := setup(t, 1)
	_, fid, n := multiHGISP(t, d)
	sc := DefaultScenario()
	sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
	rep := Simulate(m, d, sc)
	if len(rep.HGsImpacted) != n {
		t.Errorf("HGsImpacted = %d, want %d (all colocated hypergiants)", len(rep.HGsImpacted), n)
	}
	if len(rep.DirectISPs) == 0 {
		t.Error("no direct ISPs recorded")
	}
	if rep.DirectUsers(d.World) <= 0 {
		t.Error("no direct users")
	}
}

func TestFailureIncreasesSharedSpill(t *testing.T) {
	d, m := setup(t, 1)
	as, fid, _ := multiHGISP(t, d)
	sc := DefaultScenario()
	sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
	rep := Simulate(m, d, sc)

	var baseSpill, failSpill float64
	for i, f := range rep.Flows {
		if f.ISP != as {
			continue
		}
		baseSpill += rep.Baseline[i].SharedSpill() + rep.Baseline[i].PNI
		failSpill += f.SharedSpill() + f.PNI
	}
	if failSpill <= baseSpill {
		t.Errorf("failure did not increase interdomain spill: %.1f → %.1f", baseSpill, failSpill)
	}
	// Flow order must align between baseline and scenario for comparisons.
	for i := range rep.Flows {
		if rep.Flows[i].HG != rep.Baseline[i].HG || rep.Flows[i].ISP != rep.Baseline[i].ISP {
			t.Fatal("flow ordering not aligned with baseline")
		}
	}
}

func TestSurgeCongestsSharedLinks(t *testing.T) {
	// A large multi-hypergiant surge at peak with failed top facilities
	// must congest shared infrastructure — the §4.3 "perfect storm".
	d, m := setup(t, 1)
	sc := DefaultScenario()
	sc.Surge = map[traffic.HG]float64{
		traffic.Google: 1.6, traffic.Netflix: 1.6, traffic.Meta: 1.6, traffic.Akamai: 1.6,
	}
	sc.FailFacilities = make(map[inet.FacilityID]bool)
	for _, as := range d.HostingISPs()[:10] {
		fid, _ := TopFacility(d, as)
		sc.FailFacilities[fid] = true
	}
	rep := Simulate(m, d, sc)
	if len(rep.CongestedIXPs())+len(rep.CongestedTransits()) == 0 {
		t.Error("perfect-storm scenario congested nothing")
	}
}

func TestNoFailureNoCongestion(t *testing.T) {
	// Without failures or surges, shared links run at their provisioned
	// baseline and must not be congested.
	d, m := setup(t, 1)
	rep := Simulate(m, d, DefaultScenario())
	if n := len(rep.CongestedIXPs()); n != 0 {
		t.Errorf("%d IXPs congested at baseline", n)
	}
	if n := len(rep.CongestedTransits()); n != 0 {
		t.Errorf("%d transits congested at baseline", n)
	}
	if len(rep.HGsImpacted) != 0 || len(rep.DirectISPs) != 0 {
		t.Error("baseline scenario reported impact")
	}
}

func TestCollateralDamage(t *testing.T) {
	// Congesting shared links must pull in ISPs that had nothing to do
	// with the failed facilities.
	d, m := setup(t, 1)
	sc := DefaultScenario()
	sc.SharedHeadroom = 1.05 // §4.3: minimal headroom on shared paths
	sc.FailFacilities = make(map[inet.FacilityID]bool)
	hosts := d.HostingISPs()
	for _, as := range hosts[:len(hosts)/2] {
		fid, _ := TopFacility(d, as)
		sc.FailFacilities[fid] = true
	}
	rep := Simulate(m, d, sc)
	if len(rep.CollateralISPs) == 0 {
		t.Error("no collateral ISPs despite broad failure and tight headroom")
	}
	for as := range rep.CollateralISPs {
		if rep.DirectISPs[as] {
			t.Errorf("AS%d counted both direct and collateral", as)
		}
	}
	if rep.CollateralUsers(d.World) <= 0 {
		t.Error("collateral users not accounted")
	}
}

func TestLinkLoadHelpers(t *testing.T) {
	l := LinkLoad{LoadGbps: 10, CapacityGbps: 5}
	if !l.Congested() || l.Utilization() != 2 {
		t.Errorf("LinkLoad helpers wrong: %+v", l)
	}
	z := LinkLoad{LoadGbps: 1, CapacityGbps: 0}
	if z.Utilization() != 0 {
		t.Error("zero capacity utilization should be 0")
	}
}

func TestSweep(t *testing.T) {
	d, m := setup(t, 1)
	hosts := d.HostingISPs()
	st := Sweep(m, d, hosts[:20])
	if st.Scenarios == 0 {
		t.Fatal("no scenarios ran")
	}
	if st.MeanHGsPerFailure < 1.3 {
		t.Errorf("mean HGs per facility failure = %.2f; colocation should make this >1", st.MeanHGsPerFailure)
	}
	if st.CongestionFraction < 0 || st.CongestionFraction > 1 {
		t.Errorf("congestion fraction out of range: %v", st.CongestionFraction)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	d, m := setup(t, 2)
	_, fid, _ := multiHGISP(t, d)
	sc := DefaultScenario()
	sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
	a := Simulate(m, d, sc)
	b := Simulate(m, d, sc)
	if len(a.Flows) != len(b.Flows) || len(a.CollateralISPs) != len(b.CollateralISPs) {
		t.Fatal("simulation not deterministic")
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatal("flows differ between identical runs")
		}
	}
}

// TestCongestedBoundary pins the inclusive boundary semantics: load exactly
// at capacity is congested (zero-headroom links in temporal schedules must
// trip), while an unused link never is — whatever its capacity.
func TestCongestedBoundary(t *testing.T) {
	cases := []struct {
		load, cap float64
		want      bool
	}{
		{0, 0, false},      // unused link, zero capacity
		{0, 10, false},     // unused link
		{5, 0, true},       // any load over zero capacity
		{10, 10, true},     // exactly at capacity: congested (inclusive)
		{9.999, 10, false}, // just under
		{10.001, 10, true}, // just over
	}
	for _, tc := range cases {
		l := LinkLoad{LoadGbps: tc.load, CapacityGbps: tc.cap}
		if got := l.Congested(); got != tc.want {
			t.Errorf("Congested(load=%v, cap=%v) = %v, want %v", tc.load, tc.cap, got, tc.want)
		}
	}
}

// TestAssessMatchesSimulate: Simulate is exactly a Baseline at the
// scenario's multiplier plus ServeBurst plus Assess — the decomposition the
// sweeps and the temporal engine rely on to share one baseline and the
// assessment path with the closed-form oracle.
func TestAssessMatchesSimulate(t *testing.T) {
	d, m := setup(t, 2)
	_, fid, _ := multiHGISP(t, d)
	sc := DefaultScenario()
	sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
	sc.Surge = map[traffic.HG]float64{traffic.Akamai: 2.0}

	want := Simulate(m, d, sc)
	b := NewBaseline(m, d, sc.DemandMult)
	got := b.Assess(sc, m.ServeBurst(sc.DemandMult, sc.Surge, sc.FailFacilities))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Baseline.Assess over ServeBurst differs from Simulate")
	}
	if again := b.Simulate(sc); !reflect.DeepEqual(again, want) {
		t.Fatal("Baseline.Simulate differs from Simulate")
	}
	if !reflect.DeepEqual(got.Baseline, m.Serve(sc.DemandMult, nil, nil)) {
		t.Fatal("report baseline is not the no-failure serve")
	}
	// A baseline re-derived at another multiplier equals a fresh one.
	if !reflect.DeepEqual(NewBaseline(m, d, 0.5), b.At(0.5)) {
		t.Fatal("At(0.5) differs from NewBaseline at 0.5")
	}
	// And the isolated assessment decomposes the same way.
	wantIso := SimulateIsolated(m, d, sc)
	if gotIso := b.AssessIsolated(got); !reflect.DeepEqual(gotIso, wantIso) {
		t.Fatal("Baseline.AssessIsolated differs from SimulateIsolated")
	}
}
