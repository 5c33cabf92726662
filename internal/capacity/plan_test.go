package capacity

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

// legacyServe is the map-walking serve the compiled plan replaced, kept as
// the differential oracle. It re-reads the model's maps on every call,
// re-sorts each hypergiant's ISPs, and sums failed facility shares in map
// iteration order, so it agrees with the plan bit for bit whenever at most
// two facilities of any one site fail. It shares the plan's one rule for a
// site whose facilities all failed (legacyAvailable).
func legacyServe(m *Model, mult float64, scale map[traffic.HG]float64, failedFacilities map[inet.FacilityID]bool, burst bool) []Flow {
	var flows []Flow
	pool := make(map[traffic.HG]map[inet.ASN]float64)
	for _, hg := range traffic.All {
		pool[hg] = make(map[inet.ASN]float64, len(m.Upstream[hg]))
		for as, site := range m.Upstream[hg] {
			pool[hg][as] = legacyAvailable(site, burst, failedFacilities)
		}
	}
	for _, hg := range traffic.All {
		s := 1.0
		if scale != nil {
			if v, ok := scale[hg]; ok {
				s = v
			}
		}
		isps := make([]inet.ASN, 0, len(m.Sites[hg]))
		for as := range m.Sites[hg] {
			isps = append(isps, as)
		}
		sort.Slice(isps, func(i, j int) bool { return isps[i] < isps[j] })
		for _, as := range isps {
			site := m.Sites[hg][as]
			demand := m.PeakDemand(hg, as) * mult * s
			avail := legacyAvailable(site, burst, failedFacilities)
			offnet := math.Min(demand*m.cfg.Mix.OffnetFraction(hg), avail)
			rest := demand - offnet
			pni := math.Min(rest, m.PNIGbps[hg][as])
			rest -= pni
			ixp := math.Min(rest, m.IXPPort[hg][as])
			rest -= ixp
			var upstream float64
			if rest > 0 {
				if isp, ok := m.dep.World.ISPs[as]; ok {
					for _, prov := range isp.Providers {
						if rest <= 0 {
							break
						}
						if p, ok := pool[hg][prov]; ok && p > 0 {
							take := math.Min(rest, p)
							pool[hg][prov] -= take
							upstream += take
							rest -= take
						}
					}
				}
			}
			flows = append(flows, Flow{
				HG: hg, ISP: as,
				Demand: demand, Offnet: offnet, PNI: pni, IXP: ixp,
				UpstreamOffnet: upstream, Transit: rest,
			})
		}
	}
	return flows
}

// legacyAvailable is a site's capacity in the regime with the failed
// facilities' shares removed, summed in map order; a site with every
// facility failed serves exactly 0.
func legacyAvailable(site *Site, burst bool, failed map[inet.FacilityID]bool) float64 {
	avail := site.NominalGbps
	if burst {
		avail = site.BurstGbps
	}
	if failed == nil {
		return avail
	}
	lost, survives := 0.0, false
	for fid, share := range site.Facilities {
		if failed[fid] {
			lost += share
		} else {
			survives = true
		}
	}
	if !survives {
		return 0
	}
	return avail * (1 - lost)
}

// sameFlowsBits reports the first flow where got and want differ in any
// bit, or -1.
func sameFlowsBits(got, want []Flow) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.HG != w.HG || g.ISP != w.ISP {
			return i
		}
		for _, pair := range [][2]float64{
			{g.Demand, w.Demand}, {g.Offnet, w.Offnet}, {g.PNI, w.PNI},
			{g.IXP, w.IXP}, {g.UpstreamOffnet, w.UpstreamOffnet}, {g.Transit, w.Transit},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				return i
			}
		}
	}
	return -1
}

// allSites lists every offnet site of the model, in-ISP then upstream, in
// hypergiant then ascending-ASN order.
func allSites(m *Model) []*Site {
	var out []*Site
	for _, sites := range []map[traffic.HG]map[inet.ASN]*Site{m.Sites, m.Upstream} {
		for _, hg := range traffic.All {
			for _, as := range inet.SortedASNs(sites[hg]) {
				out = append(out, sites[hg][as])
			}
		}
	}
	return out
}

// randomFailures fails random offnet facilities, then keeps at most two
// failed per site, so the legacy map-order sum of lost shares has at most
// two terms and cannot depend on the order. It returns the set and how
// many sites lost two facilities.
func randomFailures(r *rand.Rand, m *Model) (map[inet.FacilityID]bool, int) {
	var fids []inet.FacilityID
	seen := make(map[inet.FacilityID]bool)
	for _, s := range allSites(m) {
		for fid := range s.Facilities {
			if !seen[fid] {
				seen[fid] = true
				fids = append(fids, fid)
			}
		}
	}
	sort.Slice(fids, func(i, j int) bool { return fids[i] < fids[j] })
	failed := make(map[inet.FacilityID]bool)
	for _, fid := range fids {
		if r.Float64() < 0.3 {
			failed[fid] = true
		}
	}
	for _, s := range allSites(m) {
		var hit []inet.FacilityID
		for fid := range s.Facilities {
			if failed[fid] {
				hit = append(hit, fid)
			}
		}
		sort.Slice(hit, func(i, j int) bool { return hit[i] < hit[j] })
		for _, fid := range hit[min(len(hit), 2):] {
			delete(failed, fid)
		}
	}
	two := 0
	for _, s := range allSites(m) {
		n := 0
		for fid := range s.Facilities {
			if failed[fid] {
				n++
			}
		}
		if n == 2 {
			two++
		}
	}
	return failed, two
}

func randomSurge(r *rand.Rand) map[traffic.HG]float64 {
	if r.Intn(3) == 0 {
		return nil
	}
	out := make(map[traffic.HG]float64)
	for _, hg := range traffic.All {
		if r.Intn(2) == 0 {
			out[hg] = 0.5 + 2.5*r.Float64()
		}
	}
	return out
}

func randomCuts(r *rand.Rand, d *hypergiant.Deployment) []Cut {
	hosts := d.HostingISPs()
	cuts := make([]Cut, r.Intn(4))
	for i := range cuts {
		c := Cut{Layer: Layer(r.Intn(3)), Frac: -0.2 + 1.4*r.Float64()}
		if r.Intn(3) == 0 {
			c.AllHGs = true
		} else {
			c.HG = traffic.All[r.Intn(len(traffic.All))]
		}
		if r.Intn(2) == 0 {
			c.ISP = hosts[r.Intn(len(hosts))]
		}
		cuts[i] = c
	}
	return cuts
}

// TestPlanMatchesLegacyServe is the differential test of the compiled
// serving plan: over 50 worlds, random multipliers, surges, cuts and
// failures of one or two facilities per site, Serve, ServeBurst, ServeInto
// and the WithCuts model's serve equal the map-walking legacy serve bit for
// bit. ServeInto reuses one Buffers across every world, so a pass that
// read what an earlier pass left would show here.
func TestPlanMatchesLegacyServe(t *testing.T) {
	twoFailed := 0
	var buf Buffers
	for seed := int64(1); seed <= 50; seed++ {
		d, m := buildModel(t, seed)
		r := rngutil.New(seed)
		for trial := 0; trial < 4; trial++ {
			mult := 0.3 + 1.3*r.Float64()
			surge := randomSurge(r)
			failed, two := randomFailures(r, m)
			twoFailed += two
			if trial == 0 {
				failed = nil
			}
			burst := r.Intn(2) == 0
			cut := m.WithCuts(randomCuts(r, d))
			for _, c := range []struct {
				name      string
				got, want []Flow
			}{
				{"Serve", m.Serve(mult, surge, failed), legacyServe(m, mult, surge, failed, false)},
				{"ServeBurst", m.ServeBurst(mult, surge, failed), legacyServe(m, mult, surge, failed, true)},
				{"ServeInto", m.ServeInto(&buf, mult, surge, failed, burst), legacyServe(m, mult, surge, failed, burst)},
				{"WithCuts", cut.ServeBurst(mult, surge, failed), legacyServe(cut, mult, surge, failed, true)},
			} {
				if i := sameFlowsBits(c.got, c.want); i >= 0 {
					t.Fatalf("seed %d trial %d: %s differs from the legacy serve at flow %d (%d vs %d flows)",
						seed, trial, c.name, i, len(c.got), len(c.want))
				}
			}
		}
	}
	if twoFailed == 0 {
		t.Fatal("no site ever lost two facilities; the failure cases are not exercised")
	}
}

// referenceWithCuts is WithCuts as it was before it scaled the receiver's
// plan: it deep-copies the maps with the cuts applied and compiles the cut
// model's plan from them.
func referenceWithCuts(m *Model, cuts []Cut) *Model {
	if len(cuts) == 0 {
		return m
	}
	out := &Model{
		cfg:      m.cfg,
		dep:      m.dep,
		Sites:    make(map[traffic.HG]map[inet.ASN]*Site),
		Upstream: make(map[traffic.HG]map[inet.ASN]*Site),
		PNIGbps:  make(map[traffic.HG]map[inet.ASN]float64),
		IXPPort:  make(map[traffic.HG]map[inet.ASN]float64),
		IXPIDOf:  m.IXPIDOf,
	}
	keep := func(hg traffic.HG, as inet.ASN, layer Layer) float64 {
		k := 1.0
		for _, c := range cuts {
			if c.Layer != layer || !c.hits(hg, as) {
				continue
			}
			f := math.Min(math.Max(c.Frac, 0), 1)
			k *= 1 - f
		}
		return k
	}
	cloneSites := func(src map[inet.ASN]*Site, hg traffic.HG) map[inet.ASN]*Site {
		dst := make(map[inet.ASN]*Site, len(src))
		for as, s := range src {
			cp := *s // Facilities map is read-only downstream; share it.
			k := keep(hg, as, LayerOffnet)
			cp.NominalGbps *= k
			cp.BurstGbps *= k
			dst[as] = &cp
		}
		return dst
	}
	for _, hg := range traffic.All {
		out.Sites[hg] = cloneSites(m.Sites[hg], hg)
		out.Upstream[hg] = cloneSites(m.Upstream[hg], hg)
		out.PNIGbps[hg] = make(map[inet.ASN]float64, len(m.PNIGbps[hg]))
		for as, v := range m.PNIGbps[hg] {
			out.PNIGbps[hg][as] = v * keep(hg, as, LayerPNI)
		}
		out.IXPPort[hg] = make(map[inet.ASN]float64, len(m.IXPPort[hg]))
		for as, v := range m.IXPPort[hg] {
			out.IXPPort[hg][as] = v * keep(hg, as, LayerIXP)
		}
	}
	// Cuts scale capacities, never facility shares, and keep every site,
	// so the cut plan numbers its sites as the receiver's does and shares
	// its facility index.
	out.plan = out.compile()
	out.plan.sitesIn = m.plan.sitesIn
	return out
}

// samePlanSite reports how two compiled sites differ, or "".
func samePlanSite(got, want *planSite) string {
	if !sameBits(got.nominal, want.nominal) || !sameBits(got.burst, want.burst) {
		return fmt.Sprintf("capacity %v/%v, want %v/%v", got.nominal, got.burst, want.nominal, want.burst)
	}
	if !slices.Equal(got.shares, want.shares) {
		return fmt.Sprintf("shares %v, want %v", got.shares, want.shares)
	}
	return ""
}

// samePlan compares two compiled plans field by field, floats bit for
// bit, and reports the first difference.
func samePlan(got, want *plan) error {
	if len(got.flows) != len(want.flows) || len(got.pools) != len(want.pools) {
		return fmt.Errorf("%d flows and %d pools, want %d and %d", len(got.flows), len(got.pools), len(want.flows), len(want.pools))
	}
	for i := range want.flows {
		g, w := &got.flows[i], &want.flows[i]
		if g.hg != w.hg || g.isp != w.isp || !slices.Equal(g.provs, w.provs) ||
			!sameBits(g.peak, w.peak) || !sameBits(g.offnetFrac, w.offnetFrac) ||
			!sameBits(g.pni, w.pni) || !sameBits(g.ixp, w.ixp) {
			return fmt.Errorf("flow %d is %v/AS%d pni %v ixp %v, want %v/AS%d pni %v ixp %v",
				i, g.hg, g.isp, g.pni, g.ixp, w.hg, w.isp, w.pni, w.ixp)
		}
		if d := samePlanSite(&g.planSite, &w.planSite); d != "" {
			return fmt.Errorf("flow %d: %s", i, d)
		}
	}
	for j := range want.pools {
		g, w := &got.pools[j], &want.pools[j]
		if g.hg != w.hg || g.as != w.as {
			return fmt.Errorf("pool %d is %v/AS%d, want %v/AS%d", j, g.hg, g.as, w.hg, w.as)
		}
		if d := samePlanSite(&g.planSite, &w.planSite); d != "" {
			return fmt.Errorf("pool %d: %s", j, d)
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// edgeCuts adds the cuts plan scaling has to get right to random ones: an
// all-hypergiant NaN cut on a random layer, NaN cuts on the first
// (hypergiant, ISP) of each hypergiant's sites that PNIGbps or IXPPort
// does not list, and an offnet cut scoped to the transit network hosting
// an upstream pool.
func edgeCuts(r *rand.Rand, m *Model) []Cut {
	cuts := []Cut{{Layer: Layer(r.Intn(3)), AllHGs: true, Frac: math.NaN()}}
	for _, hg := range traffic.All {
		for _, as := range inet.SortedASNs(m.Sites[hg]) {
			_, pni := m.PNIGbps[hg][as]
			_, ixp := m.IXPPort[hg][as]
			if !pni {
				cuts = append(cuts, Cut{Layer: LayerPNI, HG: hg, ISP: as, Frac: math.NaN()})
			}
			if !ixp {
				cuts = append(cuts, Cut{Layer: LayerIXP, HG: hg, ISP: as, Frac: math.NaN()})
			}
			if !pni || !ixp {
				break
			}
		}
		if ups := inet.SortedASNs(m.Upstream[hg]); len(ups) > 0 {
			cuts = append(cuts, Cut{Layer: LayerOffnet, HG: hg, ISP: ups[r.Intn(len(ups))], Frac: r.Float64()})
		}
	}
	return cuts
}

// TestWithCutsScalesPlan: the cut model's plan, scaled from the
// receiver's, equals the plan compiled from the cut maps bit for bit, and
// so do the flows each serves, over 50 worlds with random cuts, NaN
// fractions, cuts on (hypergiant, ISP) keys absent from PNIGbps or
// IXPPort, and ISP-scoped offnet cuts on transit-hosted pools, applied to
// the built model and to a cut model in turn.
func TestWithCutsScalesPlan(t *testing.T) {
	absent := 0
	for seed := int64(1); seed <= 50; seed++ {
		d, m := buildModel(t, seed)
		r := rngutil.New(rngutil.Derive(seed, rngutil.Label("capacity.cuts")))
		for trial := 0; trial < 4; trial++ {
			cuts := randomCuts(r, d)
			if trial%2 == 1 {
				cuts = append(cuts, edgeCuts(r, m)...)
			}
			base, refBase := m, m
			if trial >= 2 {
				first := randomCuts(r, d)
				base, refBase = m.WithCuts(first), referenceWithCuts(m, first)
			}
			got, want := base.WithCuts(cuts), referenceWithCuts(refBase, cuts)
			if len(cuts) == 0 {
				if got != base {
					t.Fatalf("seed %d trial %d: an empty cut list must return the receiver", seed, trial)
				}
				continue
			}
			if err := samePlan(&got.plan, &want.plan); err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			failed, _ := randomFailures(r, m)
			surge := randomSurge(r)
			for _, burst := range []bool{false, true} {
				if i := sameFlowsBits(got.ServeInto(new(Buffers), 0.9, surge, failed, burst), want.ServeInto(new(Buffers), 0.9, surge, failed, burst)); i >= 0 {
					t.Fatalf("seed %d trial %d burst %v: flow %d differs from the recompiled plan's", seed, trial, burst, i)
				}
			}
			for _, c := range cuts {
				if _, listed := m.PNIGbps[c.HG][c.ISP]; c.Layer == LayerPNI && !c.AllHGs && c.ISP != 0 && !listed && math.IsNaN(c.Frac) {
					absent++
				}
			}
		}
	}
	if absent == 0 {
		t.Fatal("no NaN cut on an absent PNI key; the absent-key rule is not exercised")
	}
}

// referencePlanServe is the plan's serving pass before it staged site
// capacities and patched only the sites a failure touches: every site
// sums its failed shares on every pass, and the layers clip with
// math.Min.
func referencePlanServe(m *Model, mult float64, scale map[traffic.HG]float64, failedFacilities map[inet.FacilityID]bool, burst bool) []Flow {
	p := &m.plan
	pool := make([]float64, len(p.pools))
	for i := range p.pools {
		pool[i] = p.pools[i].available(burst, failedFacilities)
	}
	var hgScale [traffic.NumHG]float64
	for _, hg := range traffic.All {
		hgScale[hg] = 1.0
		if v, ok := scale[hg]; ok {
			hgScale[hg] = v
		}
	}
	flows := make([]Flow, len(p.flows))
	for i := range p.flows {
		pf := &p.flows[i]
		demand := pf.peak * mult * hgScale[pf.hg]
		offnet := math.Min(demand*pf.offnetFrac, pf.available(burst, failedFacilities))
		rest := demand - offnet
		pni := math.Min(rest, pf.pni)
		rest -= pni
		ixp := math.Min(rest, pf.ixp)
		rest -= ixp
		var upstream float64
		for _, j := range pf.provs {
			if rest <= 0 {
				break
			}
			if pool[j] > 0 {
				take := math.Min(rest, pool[j])
				pool[j] -= take
				upstream += take
				rest -= take
			}
		}
		flows[i] = Flow{
			HG: pf.hg, ISP: pf.isp,
			Demand: demand, Offnet: offnet, PNI: pni, IXP: ixp,
			UpstreamOffnet: upstream, Transit: rest,
		}
	}
	return flows
}

// TestFailurePatchMatchesEverySiteSum: patching only the sites a failure
// touches serves exactly what summing every site's failed shares served,
// for failure sets of any size, sets that map facilities to false, an
// empty set, and sites that lose every facility.
func TestFailurePatchMatchesEverySiteSum(t *testing.T) {
	var buf Buffers
	for seed := int64(1); seed <= 20; seed++ {
		d, m := buildModel(t, seed)
		r := rngutil.New(seed)
		var fids []inet.FacilityID
		for fid := range m.plan.sitesIn {
			fids = append(fids, fid)
		}
		sort.Slice(fids, func(i, j int) bool { return fids[i] < fids[j] })
		for trial := 0; trial < 6; trial++ {
			failed := make(map[inet.FacilityID]bool)
			frac := []float64{0, 0.02, 0.1, 0.3, 0.7, 1}[trial]
			for _, fid := range fids {
				if r.Float64() < frac {
					failed[fid] = r.Intn(4) != 0
				}
			}
			surge := randomSurge(r)
			cut := m.WithCuts(randomCuts(r, d))
			for _, burst := range []bool{false, true} {
				for _, mm := range []*Model{m, cut} {
					want := referencePlanServe(mm, 1.1, surge, failed, burst)
					if i := sameFlowsBits(mm.ServeInto(&buf, 1.1, surge, failed, burst), want); i >= 0 {
						t.Fatalf("seed %d trial %d burst %v: flow %d differs from the every-site sum", seed, trial, burst, i)
					}
				}
			}
		}
	}
}

// TestServeAllocs guards the serving plan's cost model: a pass allocates
// its flows and its site capacities and nothing per flow, so the count is
// the same on a world five times larger, and a pass into warm Buffers
// allocates nothing.
func TestServeAllocs(t *testing.T) {
	small := inet.TinyConfig(5)
	large := small
	large.AccessISPs *= 5
	large.TransitISPs *= 5
	large.TotalUsers *= 5
	for _, cfg := range []inet.Config{small, large} {
		w := inet.Generate(cfg)
		d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), cfg.Seed))
		if err != nil {
			t.Fatal(err)
		}
		m := Build(d, ConfigFromScenario(scenario.Default(), cfg.Seed))
		failed, _ := randomFailures(rngutil.New(cfg.Seed), m)
		surge := map[traffic.HG]float64{traffic.Netflix: 1.5}
		if n := testing.AllocsPerRun(20, func() { m.Serve(1.0, nil, nil) }); n != 2 {
			t.Errorf("%d access ISPs: Serve allocates %v times per pass, want 2", cfg.AccessISPs, n)
		}
		if n := testing.AllocsPerRun(20, func() { m.ServeBurst(1.2, surge, failed) }); n != 2 {
			t.Errorf("%d access ISPs: ServeBurst with failures allocates %v times per pass, want 2", cfg.AccessISPs, n)
		}
		var buf Buffers
		if n := testing.AllocsPerRun(20, func() { m.ServeInto(&buf, 1.2, surge, failed, true) }); n != 0 {
			t.Errorf("%d access ISPs: ServeInto into warm buffers allocates %v times per pass, want 0", cfg.AccessISPs, n)
		}
	}
}

// TestFailedSharesSumInFacilityOrder guards the lost-capacity sum when
// every facility of a site fails. Shares of 1/6, 2/6 and 3/6 total exactly
// 1 in ascending facility order but 1-2⁻⁵³ in some other orders, so a sum
// in map iteration order leaves the dead site serving a run-dependent
// sliver of offnet traffic.
func TestFailedSharesSumInFacilityOrder(t *testing.T) {
	const as = inet.ASN(7)
	w := &inet.World{ISPs: map[inet.ASN]*inet.ISP{as: {ASN: as, Tier: inet.TierAccess, Users: 1e7}}}
	d := &hypergiant.Deployment{World: w}
	failed := make(map[inet.FacilityID]bool)
	for fid := inet.FacilityID(1); fid <= 3; fid++ {
		// Facility n hosts n of the site's six servers.
		for i := 0; i < int(fid); i++ {
			d.Servers = append(d.Servers, &hypergiant.Server{HG: traffic.Google, ISP: as, Facility: fid})
		}
		failed[fid] = true
	}
	d.Reindex()
	m := Build(d, ConfigFromScenario(scenario.Default(), 1))

	// The guard needs order-sensitive shares: descending order must not
	// reach exactly 1.
	shares := m.Sites[traffic.Google][as].Facilities
	if shares[3]+shares[2]+shares[1] == 1 {
		t.Fatal("facility shares are not order-sensitive; the guard proves nothing")
	}
	for i := 0; i < 100; i++ {
		flows := m.Serve(1.0, nil, failed)
		if len(flows) != 1 {
			t.Fatalf("%d flows, want 1", len(flows))
		}
		if f := flows[0]; f.Offnet != 0 || f.Demand <= 0 {
			t.Fatalf("pass %d: a site with every facility failed serves %v of %v Gbps offnet", i, f.Offnet, f.Demand)
		}
	}
}

// TestAllFacilitiesFailedServesZero: a multi-facility site, in-ISP or
// upstream, whose facilities all failed has exactly +0 capacity in both
// regimes. Its shares often sum to one ulp off 1, so scaling by 1-lost
// would leave a sliver of either sign.
func TestAllFacilitiesFailedServesZero(t *testing.T) {
	cases := 0
	for seed := int64(1); seed <= 30; seed++ {
		_, m := buildModel(t, seed)
		sites := make([]*planSite, 0, len(m.plan.flows)+len(m.plan.pools))
		for i := range m.plan.flows {
			sites = append(sites, &m.plan.flows[i].planSite)
		}
		for i := range m.plan.pools {
			sites = append(sites, &m.plan.pools[i].planSite)
		}
		for _, s := range sites {
			if len(s.shares) < 2 {
				continue
			}
			failed := make(map[inet.FacilityID]bool, len(s.shares))
			for _, fs := range s.shares {
				failed[fs.fid] = true
			}
			for _, burst := range []bool{false, true} {
				cases++
				if v := s.available(burst, failed); math.Float64bits(v) != 0 {
					t.Errorf("seed %d: site with %d facilities all failed (burst=%v) has capacity %g, want +0",
						seed, len(s.shares), burst, v)
				}
			}
		}
	}
	if cases == 0 {
		t.Fatal("no multi-facility site on tiny seeds 1-30; the rule is not exercised")
	}
}
