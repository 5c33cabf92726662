package capacity

import (
	"math"
	"math/rand"
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
// two facilities of any one site fail.
func legacyServe(m *Model, mult float64, scale map[traffic.HG]float64, failedFacilities map[inet.FacilityID]bool, burst bool) []Flow {
	var flows []Flow
	pool := make(map[traffic.HG]map[inet.ASN]float64)
	for _, hg := range traffic.All {
		pool[hg] = make(map[inet.ASN]float64, len(m.Upstream[hg]))
		for as, site := range m.Upstream[hg] {
			avail := site.NominalGbps
			if burst {
				avail = site.BurstGbps
			}
			if failedFacilities != nil {
				lost := 0.0
				for fid, share := range site.Facilities {
					if failedFacilities[fid] {
						lost += share
					}
				}
				avail *= 1 - lost
			}
			pool[hg][as] = avail
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
			avail := site.NominalGbps
			if burst {
				avail = site.BurstGbps
			}
			if failedFacilities != nil {
				lost := 0.0
				for fid, share := range site.Facilities {
					if failedFacilities[fid] {
						lost += share
					}
				}
				avail *= 1 - lost
			}
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
// failures of one or two facilities per site, Serve, ServeBurst, ServeHour
// and the WithCuts model's serve equal the map-walking legacy serve bit for
// bit.
func TestPlanMatchesLegacyServe(t *testing.T) {
	twoFailed := 0
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
			hour := r.Intn(72) - 24
			cut := m.WithCuts(randomCuts(r, d))
			for _, c := range []struct {
				name      string
				got, want []Flow
			}{
				{"Serve", m.Serve(mult, surge, failed), legacyServe(m, mult, surge, failed, false)},
				{"ServeBurst", m.ServeBurst(mult, surge, failed), legacyServe(m, mult, surge, failed, true)},
				{"ServeHour", m.ServeHour(hour, surge, failed, burst), legacyServe(m, Diurnal[((hour%24)+24)%24], surge, failed, burst)},
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

// TestServeAllocs guards the serving plan's cost model: a pass allocates
// its flows and its upstream pool balances and nothing per flow, so the
// count is the same on a world five times larger.
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
