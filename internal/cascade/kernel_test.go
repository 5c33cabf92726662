package cascade

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

// buildWorld deploys the 2023 hypergiants on a world of the config and
// builds the deployment's capacity model.
func buildWorld(t testing.TB, cfg inet.Config) (*hypergiant.Deployment, *capacity.Model) {
	t.Helper()
	d, err := hypergiant.Deploy(inet.Generate(cfg), hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return d, capacity.Build(d, capacity.ConfigFromScenario(scenario.Default(), cfg.Seed))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFlows(got, want []capacity.Flow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d flows, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.HG != w.HG || g.ISP != w.ISP ||
			!sameBits(g.Demand, w.Demand) || !sameBits(g.Offnet, w.Offnet) || !sameBits(g.PNI, w.PNI) ||
			!sameBits(g.IXP, w.IXP) || !sameBits(g.UpstreamOffnet, w.UpstreamOffnet) || !sameBits(g.Transit, w.Transit) {
			return fmt.Errorf("flow %d is %+v, want %+v", i, g, w)
		}
	}
	return nil
}

func sameLinks[K comparable](kind string, got, want map[K]LinkLoad) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d %s links, want %d", len(got), kind, len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || !sameBits(g.LoadGbps, w.LoadGbps) || !sameBits(g.CapacityGbps, w.CapacityGbps) {
			return fmt.Errorf("%s link %v is %+v (present %v), want %+v", kind, k, g, ok, w)
		}
	}
	return nil
}

// sameReport compares a kernel report with the reference's: flows and
// every LinkLoad bit for bit, the ISP sets and HGsImpacted exactly.
func sameReport(got, want *Report) error {
	if !reflect.DeepEqual(got.Scenario, want.Scenario) {
		return fmt.Errorf("scenario %+v, want %+v", got.Scenario, want.Scenario)
	}
	if err := sameFlows(got.Flows, want.Flows); err != nil {
		return err
	}
	if err := sameFlows(got.Baseline, want.Baseline); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if err := sameLinks("IXP", got.IXPLoad, want.IXPLoad); err != nil {
		return err
	}
	if err := sameLinks("transit", got.TransitLoad, want.TransitLoad); err != nil {
		return err
	}
	if !reflect.DeepEqual(got.DirectISPs, want.DirectISPs) {
		return fmt.Errorf("direct ISPs %v, want %v", got.DirectISPs, want.DirectISPs)
	}
	if !reflect.DeepEqual(got.CollateralISPs, want.CollateralISPs) {
		return fmt.Errorf("collateral ISPs %v, want %v", got.CollateralISPs, want.CollateralISPs)
	}
	if !reflect.DeepEqual(got.HGsImpacted, want.HGsImpacted) {
		return fmt.Errorf("hypergiants impacted %v, want %v", got.HGsImpacted, want.HGsImpacted)
	}
	return nil
}

func sameIsolated(got, want *IsolatedReport) error {
	if !reflect.DeepEqual(got.OffendingHGs, want.OffendingHGs) {
		return fmt.Errorf("offending %v, want %v", got.OffendingHGs, want.OffendingHGs)
	}
	if !reflect.DeepEqual(got.IsolatedCollateralISPs, want.IsolatedCollateralISPs) {
		return fmt.Errorf("isolated collateral %v, want %v", got.IsolatedCollateralISPs, want.IsolatedCollateralISPs)
	}
	return nil
}

// sameTally compares a kernel Tally with the counts and user sums of the
// reference's report, the way the sweeps read them.
func sameTally(got Tally, want *Report, w *inet.World) error {
	congested := len(want.CongestedIXPs())+len(want.CongestedTransits()) > 0
	du, cu := want.DirectUsers(w), want.CollateralUsers(w)
	if got.Congested != congested || got.HGsImpacted != len(want.HGsImpacted) ||
		got.CollateralISPs != len(want.CollateralISPs) ||
		!sameBits(got.DirectUsers, du) || !sameBits(got.CollateralUsers, cu) ||
		!sameBits(got.DirectUsers+got.CollateralUsers, du+cu) {
		return fmt.Errorf("tally %+v, want congested %v, %d hypergiants, %d collateral, users %v + %v",
			got, congested, len(want.HGsImpacted), len(want.CollateralISPs), du, cu)
	}
	return nil
}

// sameAssessInto runs AssessInto over the flows and compares its tally
// and link view with the reference's report of the same flows and, when
// isolated, its isolated report.
func sameAssessInto(b *Baseline, s *Scratch, sc Scenario, flows []capacity.Flow, isolated bool, want *Report, wantIso *IsolatedReport, w *inet.World) error {
	got, v := b.AssessInto(s, sc, flows, isolated)
	if err := sameTally(got, want, w); err != nil {
		return err
	}
	congIXPs, congTrs := want.CongestedIXPs(), want.CongestedTransits()
	overload := 0.0
	for _, id := range congIXPs {
		l := want.IXPLoad[id]
		overload += l.LoadGbps - l.CapacityGbps
	}
	for _, as := range congTrs {
		l := want.TransitLoad[as]
		overload += l.LoadGbps - l.CapacityGbps
	}
	isoColl := 0
	if isolated {
		isoColl = len(wantIso.IsolatedCollateralISPs)
	}
	if got.DirectISPs != len(want.DirectISPs) || got.CongestedIXPs != len(congIXPs) ||
		got.CongestedTransits != len(congTrs) || !sameBits(got.OverloadGbps, overload) ||
		got.IsolatedCollateralISPs != isoColl {
		return fmt.Errorf("AssessInto tally %+v, want %d direct, %d+%d congested, overload %v, %d isolated collateral",
			got, len(want.DirectISPs), len(congIXPs), len(congTrs), overload, isoColl)
	}
	if err := sameView("IXP", v.IXPs, v.IXPCongested, v.IXPUtilization, want.IXPLoad); err != nil {
		return err
	}
	return sameView("transit", v.Transits, v.TransitCongested, v.TransitUtilization, want.TransitLoad)
}

// sameView compares one kind of link in an AssessInto view with the
// report's map: ascending IDs, each link congested as its LinkLoad is and
// with its utilization bit for bit (0 for a link the map lacks), and every
// link of the map in the view.
func sameView[K cmp.Ordered](kind string, ids []K, congested []bool, util []float64, want map[K]LinkLoad) error {
	if !slices.IsSorted(ids) || len(congested) != len(ids) || len(util) != len(ids) {
		return fmt.Errorf("%s view: %d IDs (sorted %v), %d flags, %d utilizations",
			kind, len(ids), slices.IsSorted(ids), len(congested), len(util))
	}
	listed := 0
	for i, id := range ids {
		l, ok := want[id]
		if ok {
			listed++
		}
		if congested[i] != l.Congested() || !sameBits(util[i], l.Utilization()) {
			return fmt.Errorf("%s link %v: congested %v, utilization %v; want %v, %v",
				kind, id, congested[i], util[i], l.Congested(), l.Utilization())
		}
	}
	if listed != len(want) {
		return fmt.Errorf("the view holds %d of the report's %d %s links", listed, len(want), kind)
	}
	return nil
}

// kernelCase is one world's baseline pair: the kernel's and the
// reference's at the same multiplier.
type kernelCase struct {
	d  *hypergiant.Deployment
	b  *Baseline
	rb *referenceBaseline
	s  Scratch
}

func newKernelCase(d *hypergiant.Deployment, m *capacity.Model, mult float64) *kernelCase {
	return &kernelCase{
		d:  d,
		b:  NewBaseline(m, d, mult),
		rb: newReferenceBaseline(m, d, mult, hgsByFacility(d)),
	}
}

// check runs one scenario through every kernel entry point and the
// reference: Simulate, Tally, AssessIsolated, the isolated counts path
// the mitigation sweep reads, and AssessInto with and without isolation.
func (c *kernelCase) check(sc Scenario) error {
	got, want := c.b.Simulate(sc), c.rb.Simulate(sc)
	if err := sameReport(got, want); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := sameTally(c.b.Tally(&c.s, sc), want, c.d.World); err != nil {
		return err
	}
	wantIso := c.rb.AssessIsolated(want)
	if err := sameIsolated(c.b.AssessIsolated(got), wantIso); err != nil {
		return fmt.Errorf("AssessIsolated: %w", err)
	}
	for _, isolated := range []bool{false, true} {
		if err := sameAssessInto(c.b, &c.s, sc, got.Flows, isolated, want, wantIso, c.d.World); err != nil {
			return fmt.Errorf("AssessInto (isolated %v): %w", isolated, err)
		}
	}
	c.b.simulateInto(&c.s, sc, true)
	if c.s.collateral != len(want.CollateralISPs) || c.s.iso != len(wantIso.IsolatedCollateralISPs) ||
		!reflect.DeepEqual(c.s.offend.list(), wantIso.OffendingHGs) {
		return fmt.Errorf("isolated counts: %d shared, %d isolated, offending %v; want %d, %d, %v",
			c.s.collateral, c.s.iso, c.s.offend.list(),
			len(want.CollateralISPs), len(wantIso.IsolatedCollateralISPs), wantIso.OffendingHGs)
	}
	return nil
}

// sweepScenarios lists what the cascade sweep, the mitigation sweep, the
// Monte Carlo study (k = 1-3) and the three perfect storms run on the
// deployment, with the production sweeps' failure sets and headrooms.
func sweepScenarios(c *kernelCase, trials int, seed int64) map[string][]Scenario {
	out := make(map[string][]Scenario)
	hosts := c.d.HostingISPs()
	for _, as := range hosts {
		fid, n := TopFacility(c.d, as)
		if n <= 0 {
			continue
		}
		sc := DefaultScenario()
		sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
		out["sweep"] = append(out["sweep"], sc)
		sc.SharedHeadroom = 1.1
		out["mitigation"] = append(out["mitigation"], sc)
	}
	facs := c.b.facilities()
	for k := 1; k <= 3; k++ {
		for trial := 0; trial < trials; trial++ {
			r := rngutil.New(rngutil.Derive(seed, 0x415c, int64(trial)))
			sc := DefaultScenario()
			sc.FailFacilities = make(map[inet.FacilityID]bool, k)
			for _, i := range rngutil.SampleWithoutReplacement(r, len(facs), k) {
				sc.FailFacilities[facs[i]] = true
			}
			out[fmt.Sprintf("montecarlo-k%d", k)] = append(out[fmt.Sprintf("montecarlo-k%d", k)], sc)
		}
	}
	for _, storm := range []struct {
		failures int
		surge    float64
	}{{6, 1.25}, {12, 1.5}, {24, 2.0}} {
		sc := DefaultScenario()
		sc.Surge = make(map[traffic.HG]float64)
		for _, hg := range traffic.All {
			sc.Surge[hg] = storm.surge
		}
		sc.FailFacilities = make(map[inet.FacilityID]bool)
		for _, as := range hosts {
			if len(sc.FailFacilities) >= storm.failures {
				break
			}
			if fid, n := TopFacility(c.d, as); n >= 2 {
				sc.FailFacilities[fid] = true
			}
		}
		out["storms"] = append(out["storms"], sc)
	}
	return out
}

func checkSweeps(t *testing.T, name string, d *hypergiant.Deployment, m *capacity.Model, trials int) {
	t.Helper()
	c := newKernelCase(d, m, DefaultScenario().DemandMult)
	kinds := sweepScenarios(c, trials, 9)
	for _, kind := range []string{"sweep", "mitigation", "montecarlo-k1", "montecarlo-k2", "montecarlo-k3", "storms"} {
		if len(kinds[kind]) == 0 {
			t.Fatalf("%s: no %s scenario", name, kind)
		}
		for i, sc := range kinds[kind] {
			if err := c.check(sc); err != nil {
				t.Fatalf("%s %s scenario %d: %v", name, kind, i, err)
			}
		}
	}
}

// TestKernelMatchesReference compares the scenario kernel with the
// map-building assessment it replaced over every scenario the cascade
// sweep, the mitigation sweep, Monte Carlo at k = 1-3 and the three
// perfect storms run, at tiny seeds 1-30 and default seed 42 (skipped
// under -short). TestTemporalStepsMatchReference covers the engine.
func TestKernelMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		d, m := buildWorld(t, inet.TinyConfig(seed))
		checkSweeps(t, fmt.Sprintf("tiny seed %d", seed), d, m, 40)
	}
	if testing.Short() {
		t.Skip("default seed 42 skipped under -short")
	}
	d, m := buildWorld(t, inet.ConfigFromScenario(scenario.Default(), 42))
	checkSweeps(t, "default seed 42", d, m, 120)
}

// TestKernelSplitsTransitByDivision: generated worlds give an ISP one or
// two providers, where load/n and load*(1/n) agree, so this world gives
// every access ISP three to five, some repeated, where they do not.
func TestKernelSplitsTransitByDivision(t *testing.T) {
	w := inet.Generate(inet.TinyConfig(2))
	var transits []inet.ASN
	for _, as := range inet.SortedASNs(w.ISPs) {
		if w.ISPs[as].Tier == inet.TierTransit {
			transits = append(transits, as)
		}
	}
	for i, as := range inet.SortedASNs(w.ISPs) {
		if isp := w.ISPs[as]; isp.IsAccess() {
			isp.Providers = append(isp.Providers, transits[i%len(transits)], transits[(3*i+1)%len(transits)])
			if i%2 == 0 {
				isp.Providers = append(isp.Providers, isp.Providers[0])
			}
		}
	}
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 2))
	if err != nil {
		t.Fatal(err)
	}
	checkSweeps(t, "three or more providers", d, capacity.Build(d, capacity.ConfigFromScenario(scenario.Default(), 2)), 20)
}

// TestBaselineAtMatchesReference: a baseline At derives shares the link
// index yet sums its own loads, so its scenarios match the reference at
// every diurnal multiplier.
func TestBaselineAtMatchesReference(t *testing.T) {
	d, m := setup(t, 4)
	first := NewBaseline(m, d, capacity.Diurnal[0])
	hosts := d.HostingISPs()
	for h, mult := range capacity.Diurnal {
		c := newKernelCase(d, m, mult)
		c.b = first.At(mult)
		for _, as := range hosts[:min(len(hosts), 12)] {
			fid, n := TopFacility(d, as)
			if n <= 0 {
				continue
			}
			sc := DefaultScenario()
			sc.DemandMult = mult
			sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
			if err := c.check(sc); err != nil {
				t.Fatalf("hour %d AS%d: %v", h, as, err)
			}
		}
	}
}

// TestKernelCongestsAtCapacity pins the kernel to the inclusive boundary
// of LinkLoad.Congested: with headroom 2 and every flow's shared spill
// doubled, each link's load equals its capacity exactly (doubling is exact,
// so the doubled sums are the doubled baseline sums), and every loaded link
// congests, with and without isolation.
func TestKernelCongestsAtCapacity(t *testing.T) {
	d, m := setup(t, 1)
	c := newKernelCase(d, m, 1.0)
	flows := make([]capacity.Flow, len(c.b.Flows))
	for i, f := range c.b.Flows {
		f.IXP, f.Transit, f.UpstreamOffnet = 2*f.IXP, 2*f.Transit, 2*f.UpstreamOffnet
		flows[i] = f
	}
	sc := DefaultScenario()
	sc.SharedHeadroom = 2
	got, want := c.b.Assess(sc, flows), c.rb.Assess(sc, flows)
	if err := sameReport(got, want); err != nil {
		t.Fatal(err)
	}
	atCapacity := 0
	for _, l := range got.IXPLoad {
		if l.LoadGbps > 0 && l.LoadGbps == l.CapacityGbps {
			atCapacity++
		}
	}
	if atCapacity == 0 || len(got.CongestedIXPs()) != atCapacity || len(got.CongestedTransits()) != len(got.TransitLoad) {
		t.Fatalf("%d exchanges at capacity, %d congested; %d of %d providers congested",
			atCapacity, len(got.CongestedIXPs()), len(got.CongestedTransits()), len(got.TransitLoad))
	}
	if err := sameIsolated(c.b.AssessIsolated(got), c.rb.AssessIsolated(want)); err != nil {
		t.Fatal(err)
	}
}

// TestAssessPanicsOnForeignFlows: flows in another order than the
// baseline's cannot be assessed against its link index.
func TestAssessPanicsOnForeignFlows(t *testing.T) {
	d, m := setup(t, 1)
	b := NewBaseline(m, d, 1.0)
	for name, flows := range map[string][]capacity.Flow{
		"short":    b.Flows[1:],
		"reversed": reversed(b.Flows),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s flows: Assess did not panic", name)
				}
			}()
			b.Assess(DefaultScenario(), flows)
		}()
	}
}

func reversed(flows []capacity.Flow) []capacity.Flow {
	out := make([]capacity.Flow, len(flows))
	for i, f := range flows {
		out[len(flows)-1-i] = f
	}
	return out
}

// TestScenarioKernelAllocs: a warm counts-path scenario, shared fate or
// isolated, with failures and a surge, allocates nothing, and neither does
// a warm AssessInto over flows the caller served.
func TestScenarioKernelAllocs(t *testing.T) {
	d, m := setup(t, 1)
	b := NewBaseline(m, d, 1.0)
	_, fid, _ := multiHGISP(t, d)
	sc := DefaultScenario()
	sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
	sc.Surge = map[traffic.HG]float64{traffic.Netflix: 1.5}
	var s Scratch
	b.Tally(&s, sc)
	if n := testing.AllocsPerRun(20, func() { b.Tally(&s, sc) }); n != 0 {
		t.Errorf("a warm Tally allocates %v times per scenario, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { b.simulateInto(&s, sc, true) }); n != 0 {
		t.Errorf("a warm isolated scenario allocates %v times, want 0", n)
	}
	flows := m.ServeBurst(1.0, sc.Surge, sc.FailFacilities)
	if n := testing.AllocsPerRun(20, func() { b.AssessInto(&s, sc, flows, true) }); n != 0 {
		t.Errorf("a warm isolated AssessInto allocates %v times, want 0", n)
	}
}

// TestTopFacilityMatchesReference: TopFacility picks what the map-per-
// facility version picked for every hosting ISP, at tiny seeds 1-30 and
// default seed 42 (skipped under -short).
func TestTopFacilityMatchesReference(t *testing.T) {
	cfgs := make([]inet.Config, 0, 31)
	for seed := int64(1); seed <= 30; seed++ {
		cfgs = append(cfgs, inet.TinyConfig(seed))
	}
	if !testing.Short() {
		cfgs = append(cfgs, inet.ConfigFromScenario(scenario.Default(), 42))
	}
	for _, cfg := range cfgs {
		d, _ := buildWorld(t, cfg)
		ties := 0
		for _, as := range d.HostingISPs() {
			fid, n := TopFacility(d, as)
			wantFID, wantN := referenceTopFacility(d, as)
			if fid != wantFID || n != wantN {
				t.Fatalf("seed %d AS%d: TopFacility (%d, %d), want (%d, %d)", cfg.Seed, as, fid, n, wantFID, wantN)
			}
			if facilitiesIn(d, as) > 1 {
				ties++
			}
		}
		if ties == 0 {
			t.Fatalf("seed %d: no hosting ISP uses several facilities; the choice is not exercised", cfg.Seed)
		}
	}
}

func facilitiesIn(d *hypergiant.Deployment, as inet.ASN) int {
	seen := make(map[inet.FacilityID]bool)
	for _, s := range d.ServersIn(as) {
		seen[s.Facility] = true
	}
	return len(seen)
}

// FuzzScenarioKernel compares the kernel with the reference on one tiny
// world over arbitrary failure sets (facilities failed, mapped to false,
// or unknown to the world), surges and headrooms, at any diurnal hour.
func FuzzScenarioKernel(f *testing.F) {
	d, m := buildWorld(f, inet.TinyConfig(3))
	facs := make([]inet.FacilityID, 0)
	for fid := range hgsByFacility(d) {
		facs = append(facs, fid)
	}
	sort.Slice(facs, func(i, j int) bool { return facs[i] < facs[j] })
	cases := make(map[uint8]*kernelCase)
	f.Add(uint64(1), uint64(0), uint8(19), 1.0, 1.0, 1.0, 1.0, 1.25)
	f.Add(uint64(0b1011), uint64(0b10), uint8(3), 1.5, 0.0, 2.5, 1.0, 1.1)
	f.Add(uint64(0), uint64(0), uint8(12), 3.0, 3.0, 3.0, 3.0, 1.02)
	f.Add(^uint64(0), uint64(0x5555), uint8(0), -1.0, math.Inf(1), 1.0, 0.5, 0.9)
	f.Fuzz(func(t *testing.T, fail, asFalse uint64, hour uint8, g, n, me, a, headroom float64) {
		h := hour % 24
		c := cases[h]
		if c == nil {
			c = newKernelCase(d, m, capacity.Diurnal[h])
			cases[h] = c
		}
		sc := Scenario{SharedHeadroom: headroom}
		if fail != 0 {
			sc.FailFacilities = make(map[inet.FacilityID]bool)
			for bit := 0; bit < 64; bit++ {
				if fail&(1<<bit) == 0 {
					continue
				}
				fid := inet.FacilityID(1_000_000 + bit) // unknown to the world
				if bit < len(facs) {
					fid = facs[(bit*7)%len(facs)]
				}
				sc.FailFacilities[fid] = asFalse&(1<<bit) == 0
			}
		}
		if g != 1 || n != 1 || me != 1 || a != 1 {
			sc.Surge = map[traffic.HG]float64{traffic.Google: g, traffic.Netflix: n, traffic.Meta: me, traffic.Akamai: a}
		}
		if err := c.check(sc); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkScenarioKernel times one default seed-42 top-facility scenario
// through the counts path the sweeps use (tally) and through Simulate,
// which builds the report.
func BenchmarkScenarioKernel(b *testing.B) {
	d, m := buildWorld(b, inet.ConfigFromScenario(scenario.Default(), 42))
	base := NewBaseline(m, d, 1.0)
	var scs []Scenario
	for _, as := range d.HostingISPs() {
		if fid, n := TopFacility(d, as); n > 0 {
			sc := DefaultScenario()
			sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
			scs = append(scs, sc)
		}
	}
	b.Run("tally", func(b *testing.B) {
		var s Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			base.Tally(&s, scs[i%len(scs)])
		}
	})
	b.Run("simulate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			base.Simulate(scs[i%len(scs)])
		}
	})
}
