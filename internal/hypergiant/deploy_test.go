package hypergiant

import (
	"testing"

	"offnetrisk/internal/inet"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

func deployTiny(t *testing.T, epoch Epoch, seed int64) *Deployment {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := Deploy(w, epoch, DeployConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeployBasics(t *testing.T) {
	d := deployTiny(t, Epoch2023, 1)
	if len(d.Servers) == 0 {
		t.Fatal("no servers deployed")
	}
	var accessServers, transitServers int
	for _, s := range d.Servers {
		isp, ok := d.World.ISPs[s.ISP]
		if !ok {
			t.Fatalf("server in unknown AS %d", s.ISP)
		}
		switch isp.Tier {
		case inet.TierAccess:
			accessServers++
		case inet.TierTransit:
			transitServers++
		default:
			t.Fatalf("server in %s AS %d", isp.Tier, s.ISP)
		}
		owner, ok := d.World.OwnerOf(s.Addr)
		if !ok || owner != s.ISP {
			t.Fatalf("server addr %s not owned by hosting ISP (owner=%d isp=%d)", s.Addr, owner, s.ISP)
		}
		f, ok := d.World.Facilities[s.Facility]
		if !ok {
			t.Fatalf("server in unknown facility %d", s.Facility)
		}
		if f.Owner != s.ISP {
			t.Fatalf("server facility %s not owned by hosting ISP", f.Name())
		}
		if s.Rack < 0 || s.Rack >= f.Racks {
			t.Fatalf("rack %d out of range [0,%d)", s.Rack, f.Racks)
		}
		if s.CapacityGbps <= 0 {
			t.Fatal("server without capacity")
		}
		if s.SiteTag == "" {
			t.Fatal("server without site tag")
		}
	}
}

func TestDeployIncludesTransitOffnets(t *testing.T) {
	// §3.1: offnets "can also serve users downstream from a transit
	// provider" — deployments must include transit-hosted caches.
	d := deployTiny(t, Epoch2023, 1)
	found := false
	for _, s := range d.Servers {
		if d.World.ISPs[s.ISP].Tier == inet.TierTransit {
			found = true
			break
		}
	}
	if !found {
		t.Error("no transit-hosted offnets deployed")
	}
}

func TestServerAddressesUnique(t *testing.T) {
	d := deployTiny(t, Epoch2023, 2)
	seen := make(map[string]bool)
	for _, s := range d.Servers {
		k := s.Addr.String()
		if seen[k] {
			t.Fatalf("duplicate server address %s", k)
		}
		seen[k] = true
	}
}

func TestDeployDeterministic(t *testing.T) {
	a := deployTiny(t, Epoch2023, 5)
	b := deployTiny(t, Epoch2023, 5)
	if len(a.Servers) != len(b.Servers) {
		t.Fatalf("server counts differ: %d vs %d", len(a.Servers), len(b.Servers))
	}
	for i := range a.Servers {
		if a.Servers[i].Addr != b.Servers[i].Addr || a.Servers[i].HG != b.Servers[i].HG ||
			a.Servers[i].Facility != b.Servers[i].Facility {
			t.Fatalf("server %d differs between identical runs", i)
		}
	}
	if len(a.Peerings) != len(b.Peerings) {
		t.Fatalf("peering counts differ: %d vs %d", len(a.Peerings), len(b.Peerings))
	}
}

func TestFootprintGrowthMatchesTable1(t *testing.T) {
	// Table 1: Google +23.2%, Netflix +37.4%, Meta +16.9%, Akamai +0.0%.
	// The synthetic world must reproduce ordering and growth within
	// tolerance, and 2023 must extend 2021.
	d21 := deployTiny(t, Epoch2021, 3)
	d23 := deployTiny(t, Epoch2023, 3)

	wantGrowth := map[traffic.HG]float64{
		traffic.Google:  1.232,
		traffic.Netflix: 1.374,
		traffic.Meta:    1.169,
		traffic.Akamai:  1.0,
	}
	for _, hg := range traffic.All {
		n21 := len(d21.HostISPs(hg))
		n23 := len(d23.HostISPs(hg))
		if n21 == 0 {
			t.Fatalf("%s: no hosts in 2021", hg)
		}
		growth := float64(n23) / float64(n21)
		if growth < wantGrowth[hg]-0.12 || growth > wantGrowth[hg]+0.12 {
			t.Errorf("%s growth = %.3f, want ≈%.3f (n21=%d n23=%d)", hg, growth, wantGrowth[hg], n21, n23)
		}
	}
	// Footprint ordering in 2023: Google > Netflix, Meta > Akamai.
	g, n, m, a := len(d23.HostISPs(traffic.Google)), len(d23.HostISPs(traffic.Netflix)),
		len(d23.HostISPs(traffic.Meta)), len(d23.HostISPs(traffic.Akamai))
	if !(g > n && g > m && n > a && m > a) {
		t.Errorf("footprint order violated: G=%d N=%d M=%d A=%d", g, n, m, a)
	}
}

func TestEpochsNested(t *testing.T) {
	d21 := deployTiny(t, Epoch2021, 3)
	d23 := deployTiny(t, Epoch2023, 3)
	for _, hg := range traffic.All {
		hosts23 := make(map[inet.ASN]bool)
		for _, as := range d23.HostISPs(hg) {
			hosts23[as] = true
		}
		for _, as := range d21.HostISPs(hg) {
			if !hosts23[as] {
				t.Fatalf("%s: 2021 host AS%d missing in 2023 (footprints must nest)", hg, as)
			}
		}
	}
}

func TestMultiHypergiantOverlap(t *testing.T) {
	// §3.1: "Of the 5516 ISPs that host an offnet for at least one ... 3382
	// host offnets for at least two, 1880 for at least three, and 505 host
	// offnets for all four" — i.e. ≥2 ≈ 61%, ≥3 ≈ 34%, =4 ≈ 9% of hosts.
	d := deployTiny(t, Epoch2023, 1)
	counts := make([]int, 5)
	for _, as := range d.HostingISPs() {
		counts[len(d.HGsIn(as))]++
	}
	total := 0
	for _, c := range counts[1:] {
		total += c
	}
	atLeast := func(k int) float64 {
		n := 0
		for i := k; i <= 4; i++ {
			n += counts[i]
		}
		return float64(n) / float64(total)
	}
	if f := atLeast(2); f < 0.40 || f > 0.85 {
		t.Errorf("≥2 hypergiants fraction = %.2f, want ≈0.61", f)
	}
	if f := atLeast(3); f < 0.15 || f > 0.60 {
		t.Errorf("≥3 hypergiants fraction = %.2f, want ≈0.34", f)
	}
	if f := atLeast(4); f < 0.02 || f > 0.35 {
		t.Errorf("=4 hypergiants fraction = %.2f, want ≈0.09", f)
	}
}

func TestCertificateConventions(t *testing.T) {
	d21 := deployTiny(t, Epoch2021, 4)
	d23 := deployTiny(t, Epoch2023, 4)

	find := func(d *Deployment, hg traffic.HG) *Server {
		for _, s := range d.Servers {
			if s.HG == hg {
				return s
			}
		}
		t.Fatalf("no %s server", hg)
		return nil
	}

	// Google 2021 carries the Organization entry; 2023 does not.
	if g := find(d21, traffic.Google); g.Cert.SubjectOrg != "Google LLC" {
		t.Errorf("2021 Google org = %q", g.Cert.SubjectOrg)
	}
	g23 := find(d23, traffic.Google)
	if g23.Cert.SubjectOrg != "" {
		t.Errorf("2023 Google org should be removed, got %q", g23.Cert.SubjectOrg)
	}
	if g23.Cert.SubjectCN != "*.googlevideo.com" {
		t.Errorf("2023 Google CN = %q", g23.Cert.SubjectCN)
	}

	// Meta 2021 uses onnet names; 2023 uses site-specific fna names.
	if m := find(d21, traffic.Meta); m.Cert.SubjectCN != "*.fbcdn.net" {
		t.Errorf("2021 Meta CN = %q", m.Cert.SubjectCN)
	}
	m23 := find(d23, traffic.Meta)
	if m23.Cert.SubjectCN == "*.fbcdn.net" {
		t.Error("2023 Meta should use site-specific names")
	}
	if !m23.Cert.AnyNameMatches([]string{"*.fbcdn.net"}) {
		t.Errorf("2023 Meta cert %q must still match *.fbcdn.net pattern", m23.Cert.SubjectCN)
	}

	// Netflix and Akamai are stable across epochs.
	if n := find(d23, traffic.Netflix); n.Cert.SubjectOrg != "Netflix, Inc." {
		t.Errorf("Netflix org = %q", n.Cert.SubjectOrg)
	}
	if a := find(d23, traffic.Akamai); a.Cert.SubjectCN != "a248.e.akamai.net" {
		t.Errorf("Akamai CN = %q", a.Cert.SubjectCN)
	}
}

func TestColocationGroundTruth(t *testing.T) {
	// Most multi-hypergiant ISPs must colocate at least some offnets
	// (§3.2: 81–95%), and Akamai should show the most partial colocation.
	d := deployTiny(t, Epoch2023, 1)
	w := d.World

	fullyColoc := 0
	someColoc := 0
	multiHG := 0
	for _, as := range d.HostingISPs() {
		if len(d.HGsIn(as)) < 2 {
			continue
		}
		multiHG++
		// Facility → set of HGs.
		facHGs := make(map[inet.FacilityID]map[traffic.HG]bool)
		for _, s := range d.ServersIn(as) {
			if facHGs[s.Facility] == nil {
				facHGs[s.Facility] = make(map[traffic.HG]bool)
			}
			facHGs[s.Facility][s.HG] = true
		}
		colocServers, totalServers := 0, 0
		for _, s := range d.ServersIn(as) {
			totalServers++
			if len(facHGs[s.Facility]) >= 2 {
				colocServers++
			}
		}
		if colocServers > 0 {
			someColoc++
		}
		if colocServers == totalServers {
			fullyColoc++
		}
	}
	if multiHG == 0 {
		t.Fatal("no multi-hypergiant ISPs")
	}
	if f := float64(someColoc) / float64(multiHG); f < 0.70 {
		t.Errorf("ISPs with some colocation = %.2f, want ≥0.70 (paper: 81–95%%)", f)
	}
	_ = w
}

func TestPeeringsSane(t *testing.T) {
	d := deployTiny(t, Epoch2023, 1)
	if len(d.Peerings) == 0 {
		t.Fatal("no peerings built")
	}
	for _, p := range d.Peerings {
		if p.CapacityGbps <= 0 {
			t.Errorf("peering %s↔AS%d has no capacity", p.HG, p.ISP)
		}
		if p.Kind == PeerIXP {
			hgAS := d.ContentAS[p.HG]
			if !d.World.MemberOf(hgAS, p.IXP) || !d.World.MemberOf(p.ISP, p.IXP) {
				t.Errorf("IXP peering %s↔AS%d at IXP %d without membership", p.HG, p.ISP, p.IXP)
			}
		}
		if p.Kind == PeerNone {
			t.Error("PeerNone should never be materialized")
		}
	}
	// Roughly half the Google hosts should have no peering (paper: 48.4%).
	hosts := d.HostISPs(traffic.Google)
	unpeered := 0
	for _, as := range hosts {
		if len(d.PeeringsOf(traffic.Google, as)) == 0 {
			unpeered++
		}
	}
	f := float64(unpeered) / float64(len(hosts))
	if f < 0.25 || f > 0.70 {
		t.Errorf("unpeered Google hosts = %.2f, want ≈0.48", f)
	}
}

func TestPNICapacityMixture(t *testing.T) {
	// §4.2.2: a meaningful fraction of PNIs must be under-provisioned, and
	// ≈10% severely (demand ≈ 2× capacity).
	d := deployTiny(t, Epoch2023, 1)
	cfg := DeployConfigFromScenario(scenario.Default(), 1)
	var under, severe, total int
	for _, p := range d.Peerings {
		if p.Kind != PeerPNI {
			continue
		}
		isp := d.World.ISPs[p.ISP]
		// PNIs carry the interdomain share of demand (offnets hold the
		// cacheable part); §4.2.2's deficits are relative to that load.
		demand := isp.Users * p.HG.Share() * cfg.PeakMbpsPerUser / 1000 * p.HG.SteadyInterdomainShare()
		if isp.Tier != inet.TierAccess {
			continue
		}
		total++
		if demand > p.CapacityGbps {
			under++
		}
		if demand >= 1.8*p.CapacityGbps {
			severe++
		}
	}
	if total == 0 {
		t.Fatal("no PNIs")
	}
	if f := float64(under) / float64(total); f < 0.25 || f > 0.75 {
		t.Errorf("under-provisioned PNI fraction = %.2f, want ≈0.4–0.5", f)
	}
	if f := float64(severe) / float64(total); f < 0.02 || f > 0.25 {
		t.Errorf("severely constrained PNI fraction = %.2f, want ≈0.10", f)
	}
}

func TestDeployRejectsBadEpoch(t *testing.T) {
	w := inet.Generate(inet.TinyConfig(1))
	if _, err := Deploy(w, Epoch(1999), DeployConfigFromScenario(scenario.Default(), 1)); err == nil {
		t.Error("unknown epoch should error")
	}
}

func TestHelpers(t *testing.T) {
	d := deployTiny(t, Epoch2023, 1)
	as := d.HostingISPs()[0]
	servers := d.ServersIn(as)
	if len(servers) == 0 {
		t.Fatal("hosting ISP without servers")
	}
	hg := servers[0].HG
	if len(d.ServersOf(hg, as)) == 0 {
		t.Error("ServersOf empty for known deployment")
	}
	if got := PeerPNI.String(); got != "pni" {
		t.Errorf("PeerPNI = %q", got)
	}
	if got := PeerIXP.String(); got != "ixp" {
		t.Errorf("PeerIXP = %q", got)
	}
	if got := PeerNone.String(); got != "none" {
		t.Errorf("PeerNone = %q", got)
	}
}

func TestHostCountDistributionTrend(t *testing.T) {
	// §3.1: multi-hypergiant hosting increases between epochs (2840→3382
	// ISPs with ≥2, 1690→1880 with ≥3, 430→505 with all four).
	d21 := deployTiny(t, Epoch2021, 1)
	d23 := deployTiny(t, Epoch2023, 1)
	c21 := d21.HostCountDistribution()
	c23 := d23.HostCountDistribution()
	atLeast := func(c [5]int, k int) int {
		n := 0
		for i := k; i <= 4; i++ {
			n += c[i]
		}
		return n
	}
	for k := 1; k <= 3; k++ {
		if atLeast(c23, k) < atLeast(c21, k) {
			t.Errorf("≥%d hypergiant hosting shrank between epochs: %d → %d",
				k, atLeast(c21, k), atLeast(c23, k))
		}
	}
	if atLeast(c23, 2) <= atLeast(c21, 2) {
		t.Errorf("multi-hypergiant hosting should grow: %d → %d", atLeast(c21, 2), atLeast(c23, 2))
	}
}
