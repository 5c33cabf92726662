package steer

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

func deployTiny(t *testing.T, seed int64) *hypergiant.Deployment {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDirectoriesCoverHostISPs(t *testing.T) {
	d := deployTiny(t, 1)
	dirs := BuildDirectories(d)
	for _, hg := range traffic.All {
		dir := dirs[hg]
		if dir.onnet == 0 {
			t.Fatalf("%s: no onnet front end", hg)
		}
		for _, as := range d.HostISPs(hg) {
			isp := d.World.ISPs[as]
			client := isp.Prefixes[0].First() + 200
			srv, offnet := dir.ServerFor(client)
			if !offnet {
				t.Errorf("%s: client in host ISP %d steered onnet", hg, as)
				continue
			}
			// The serving offnet must be one of the hypergiant's servers in
			// that ISP.
			found := false
			for _, s := range d.ServersOf(hg, as) {
				if s.Addr == srv {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: client steered to %s which is not a local server", hg, srv)
			}
		}
	}
}

func TestDirectoryFallsBackToOnnet(t *testing.T) {
	d := deployTiny(t, 1)
	dirs := BuildDirectories(d)
	dir := dirs[traffic.Akamai]
	// A client in an ISP without Akamai offnets steers onnet.
	for _, isp := range d.World.AccessISPs() {
		hosted := false
		for _, as := range d.HostISPs(traffic.Akamai) {
			if as == isp.ASN {
				hosted = true
			}
		}
		if hosted {
			continue
		}
		srv, offnet := dir.ServerFor(isp.Prefixes[0].First() + 9)
		if offnet {
			t.Fatalf("client in non-host ISP mapped to offnet %s", srv)
		}
		if srv != dir.onnet {
			t.Fatalf("fallback is not the onnet front end")
		}
		return
	}
	t.Skip("every ISP hosts Akamai in this world")
}

func TestEmbeddedHostnamesFollowConventions(t *testing.T) {
	d := deployTiny(t, 1)
	dirs := BuildDirectories(d)
	checks := map[traffic.HG]string{
		traffic.Google:  ".googlevideo.com",
		traffic.Netflix: ".oca.nflxvideo.net",
		traffic.Meta:    ".fna.fbcdn.net",
	}
	for hg, suffix := range checks {
		dir := dirs[hg]
		addrs := dir.OffnetAddrs()
		if len(addrs) == 0 {
			t.Fatalf("%s: no offnets in directory", hg)
		}
		h, ok := dir.Hostname(addrs[0])
		if !ok || !strings.HasSuffix(h, suffix) {
			t.Errorf("%s: hostname %q (ok=%v), want suffix %q", hg, h, ok, suffix)
		}
	}
}

func TestResolveModes(t *testing.T) {
	d := deployTiny(t, 1)
	dirs := BuildDirectories(d)
	dir := dirs[traffic.Google]
	hostISP := d.World.ISPs[d.HostISPs(traffic.Google)[0]]
	subnet := hostISP.Prefixes[0].Slash24s()[0]

	public := Resolver{Addr: netaddr.AddrFrom4(9, 9, 0, 9), SendsECS: true, Allowlisted: true}
	publicNoList := Resolver{Addr: netaddr.AddrFrom4(9, 9, 1, 9), SendsECS: true}

	// DNS2013: ECS steers to the client's offnet.
	if got := Resolve(dir, ModeDNS2013, public, &subnet); got == dir.onnet {
		t.Error("DNS2013 with ECS should steer offnet")
	}
	// EmbeddedURL: always onnet, ECS or not.
	if got := Resolve(dir, ModeEmbeddedURL, public, &subnet); got != dir.onnet {
		t.Error("EmbeddedURL must front onnet")
	}
	// ECSAllowlist: allowlisted resolver steers; non-allowlisted falls back
	// to resolver-address mapping (here: unrouted resolver → onnet).
	if got := Resolve(dir, ModeECSAllowlist, public, &subnet); got == dir.onnet {
		t.Error("allowlisted ECS should steer offnet")
	}
	if got := Resolve(dir, ModeECSAllowlist, publicNoList, &subnet); got != dir.onnet {
		t.Error("non-allowlisted resolver's ECS must be ignored")
	}
	// ISP resolver (no ECS) in a host ISP maps by its own address.
	ispResolver := Resolver{Addr: subnet.First() + 53, ISP: hostISP.ASN}
	if got := Resolve(dir, ModeECSAllowlist, ispResolver, nil); got == dir.onnet {
		t.Error("in-ISP resolver should steer to the local offnet")
	}
}

func TestMapUsers2013VsToday(t *testing.T) {
	// The headline §3.2 reproduction: the 2013 technique worked; today it
	// fails for Google/Netflix/Meta (embedded URLs) and degrades for Akamai
	// (ECS allowlist).
	d := deployTiny(t, 1)
	resolvers := Resolvers(d.World, 6, 1)

	then := MapUsers(d, Modes2013(), resolvers, 12, 1)
	now := MapUsers(d, Modes2023(), resolvers, 12, 1)

	byHG := func(rs []MappingResult, hg traffic.HG) MappingResult {
		for _, r := range rs {
			if r.HG == hg {
				return r
			}
		}
		t.Fatalf("no result for %s", hg)
		return MappingResult{}
	}

	// 2013: Google mapping works with high coverage of host-ISP prefixes
	// and high accuracy.
	g13 := byHG(then, traffic.Google)
	if g13.CoveragePct() < 20 {
		t.Errorf("2013 Google coverage = %.1f%%, should be substantial", g13.CoveragePct())
	}
	if g13.AccuracyPct() < 95 {
		t.Errorf("2013 Google accuracy = %.1f%%, should be near-perfect", g13.AccuracyPct())
	}
	if g13.DiscoveryPct() < 30 {
		t.Errorf("2013 Google discovery = %.1f%%, should surface many offnets", g13.DiscoveryPct())
	}

	// Today: zero for the embedded-URL hypergiants.
	for _, hg := range []traffic.HG{traffic.Google, traffic.Netflix, traffic.Meta} {
		r := byHG(now, hg)
		if r.OffnetMapped != 0 {
			t.Errorf("2023 %s: technique mapped %d prefixes, want 0 (embedded URLs)", hg, r.OffnetMapped)
		}
	}

	// Akamai: works through allowlisted resolvers — nonzero but it was
	// never the full story.
	a := byHG(now, traffic.Akamai)
	if a.OffnetMapped == 0 {
		t.Error("2023 Akamai: allowlisted ECS should still map something")
	}

	for _, r := range now {
		if r.String() == "" {
			t.Error("empty String()")
		}
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeDNS2013: "dns-2013", ModeECSAllowlist: "ecs-allowlist",
		ModeEmbeddedURL: "embedded-url", Mode(9): "mode(9)",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q want %q", int(m), m.String(), want)
		}
	}
}

func TestResolversPopulation(t *testing.T) {
	d := deployTiny(t, 1)
	rs := Resolvers(d.World, 6, 1)
	var public, ispRes, ecs, listed int
	for _, r := range rs {
		if r.ISP == 0 {
			public++
		} else {
			ispRes++
		}
		if r.SendsECS {
			ecs++
		}
		if r.Allowlisted {
			listed++
		}
	}
	if public != 6 {
		t.Errorf("public resolvers = %d, want 6", public)
	}
	if ispRes == 0 {
		t.Error("no ISP resolvers")
	}
	if listed == 0 || listed >= ecs {
		t.Errorf("allowlist (%d) should be a strict subset of ECS senders (%d)", listed, ecs)
	}
}

// refDirectory is Directory as it was before it answered /24s on demand:
// one map entry per host-ISP /24 and one hostname per assigned server.
type refDirectory struct {
	hg       traffic.HG
	by24     map[netaddr.Prefix]netaddr.Addr
	onnet    netaddr.Addr
	hostname map[netaddr.Addr]string
}

// referenceBuildDirectories is BuildDirectories as it was before it sized
// its maps and formatted one hostname per server, kept verbatim as the
// oracle: it formats a hostname for every /24 it assigns.
func referenceBuildDirectories(d *hypergiant.Deployment) map[traffic.HG]*refDirectory {
	w := d.World
	out := make(map[traffic.HG]*refDirectory, len(traffic.All))
	for _, hg := range traffic.All {
		dir := &refDirectory{
			hg:       hg,
			by24:     make(map[netaddr.Prefix]netaddr.Addr),
			hostname: make(map[netaddr.Addr]string),
		}
		// Onnet front end: first address of the content AS.
		if isp, ok := w.ISPs[d.ContentAS[hg]]; ok && len(isp.Prefixes) > 0 {
			dir.onnet = isp.Prefixes[0].First() + 10
		}
		for _, as := range d.HostISPs(hg) {
			servers := d.ServersOf(hg, as)
			if len(servers) == 0 {
				continue
			}
			isp := w.ISPs[as]
			i := 0
			for _, p := range isp.Prefixes {
				for _, s24 := range p.Slash24s() {
					srv := servers[i%len(servers)]
					dir.by24[s24] = srv.Addr
					dir.hostname[srv.Addr] = embeddedHostname(hg, srv)
					i++
				}
			}
		}
		out[hg] = dir
	}
	return out
}

// The reference's queries, verbatim from the map-backed Directory.

func (dir *refDirectory) ServerFor(client netaddr.Addr) (netaddr.Addr, bool) {
	if srv, ok := dir.by24[client.Slash24()]; ok {
		return srv, true
	}
	return dir.onnet, false
}

func (dir *refDirectory) Hostname(srv netaddr.Addr) (string, bool) {
	h, ok := dir.hostname[srv]
	return h, ok
}

func (dir *refDirectory) OffnetAddrs() []netaddr.Addr {
	seen := make(map[netaddr.Addr]bool)
	for _, a := range dir.by24 {
		seen[a] = true
	}
	out := make([]netaddr.Addr, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func referenceResolve(dir *refDirectory, mode Mode, res Resolver, clientSubnet *netaddr.Prefix) netaddr.Addr {
	switch mode {
	case ModeDNS2013:
		// Full ECS support; fall back to resolver-based mapping.
		if clientSubnet != nil && res.SendsECS {
			if srv, ok := dir.by24[clientSubnet.Addr.Slash24()]; ok {
				return srv
			}
			return dir.onnet
		}
		if srv, ok := dir.by24[res.Addr.Slash24()]; ok {
			return srv
		}
		return dir.onnet
	case ModeECSAllowlist:
		// ECS honoured only for allowlisted resolvers.
		if clientSubnet != nil && res.SendsECS && res.Allowlisted {
			if srv, ok := dir.by24[clientSubnet.Addr.Slash24()]; ok {
				return srv
			}
			return dir.onnet
		}
		if srv, ok := dir.by24[res.Addr.Slash24()]; ok {
			return srv
		}
		return dir.onnet
	case ModeEmbeddedURL:
		// The service hostname always fronts from onnet; offnets are only
		// reachable via per-session embedded names.
		return dir.onnet
	default:
		return dir.onnet
	}
}

// sameDirectories fails the test unless got and want answer every query
// alike: ServerFor for an address in every /24 of every ISP of the world
// (so a /24 either side maps and the other does not shows) and one outside
// them, Hostname for every server of the deployment (assigned or not),
// OffnetAddrs, and Resolve in every mode for a sample of resolvers and
// client subnets.
func sameDirectories(t *testing.T, d *hypergiant.Deployment, got map[traffic.HG]*Directory, want map[traffic.HG]*refDirectory) {
	t.Helper()
	resolvers := Resolvers(d.World, 6, 1)
	for _, hg := range traffic.All {
		g, w := got[hg], want[hg]
		if g.hg != w.hg || g.onnet != w.onnet {
			t.Fatalf("%s: directory of %s fronted by %s, reference %s fronted by %s", hg, g.hg, g.onnet, w.hg, w.onnet)
		}
		var subnets []netaddr.Prefix
		for _, isp := range d.World.ISPList() {
			for _, p := range isp.Prefixes {
				for _, s24 := range p.Slash24s() {
					client := s24.First() + 77
					gs, gok := g.ServerFor(client)
					ws, wok := w.ServerFor(client)
					if gs != ws || gok != wok {
						t.Fatalf("%s: ServerFor(%s) = %s, %v; reference %s, %v", hg, client, gs, gok, ws, wok)
					}
					if wok && len(subnets) < 64 {
						subnets = append(subnets, s24)
					}
				}
			}
		}
		if gs, gok := g.ServerFor(netaddr.AddrFrom4(9, 9, 9, 9)); gs != w.onnet || gok {
			t.Fatalf("%s: unmapped client steered to %s, %v", hg, gs, gok)
		}
		for _, s := range d.Servers {
			gh, gok := g.Hostname(s.Addr)
			wh, wok := w.Hostname(s.Addr)
			if gh != wh || gok != wok {
				t.Fatalf("%s: Hostname(%s) = %q, %v; reference %q, %v", hg, s.Addr, gh, gok, wh, wok)
			}
		}
		if ga, wa := g.OffnetAddrs(), w.OffnetAddrs(); !reflect.DeepEqual(ga, wa) {
			t.Fatalf("%s: %d offnet addresses differ from the reference's %d", hg, len(ga), len(wa))
		}
		for _, mode := range []Mode{ModeDNS2013, ModeECSAllowlist, ModeEmbeddedURL} {
			for _, res := range resolvers {
				if ga, wa := Resolve(g, mode, res, nil), referenceResolve(w, mode, res, nil); ga != wa {
					t.Fatalf("%s %s: resolver %s steers to %s, reference %s", hg, mode, res.Addr, ga, wa)
				}
				if res.ISP != 0 {
					continue
				}
				for _, s := range subnets {
					if ga, wa := Resolve(g, mode, res, &s), referenceResolve(w, mode, res, &s); ga != wa {
						t.Fatalf("%s %s: subnet %s via %s steers to %s, reference %s", hg, mode, s, res.Addr, ga, wa)
					}
				}
			}
		}
	}
}

// TestBuildDirectoriesMatchesReference checks the directory build against
// the per-/24 reference on the tiny world, on the tiny world with two
// host ISPs renumbered into prefixes longer than /24 (one /25; two /26s of
// one /24), so they host more servers than they have /24s, and on the
// default-scale world.
func TestBuildDirectoriesMatchesReference(t *testing.T) {
	d := deployTiny(t, 1)
	sameDirectories(t, d, BuildDirectories(d), referenceBuildDirectories(d))

	t.Run("more-servers-than-slash24s", func(t *testing.T) {
		d := deployTiny(t, 1)
		var crowded []inet.ASN
		for _, as := range d.HostISPs(traffic.Google) {
			if len(d.ServersOf(traffic.Google, as)) >= 3 {
				crowded = append(crowded, as)
			}
		}
		if len(crowded) < 2 {
			t.Fatalf("tiny world has %d Google host ISPs with ≥3 servers, want 2", len(crowded))
		}
		a, b := d.World.ISPs[crowded[0]], d.World.ISPs[crowded[1]]
		first := a.Prefixes[0].First()
		a.Prefixes = []netaddr.Prefix{{Addr: first + 128, Bits: 25}}
		first = b.Prefixes[0].First()
		b.Prefixes = []netaddr.Prefix{{Addr: first, Bits: 26}, {Addr: first + 64, Bits: 26}}
		got, want := BuildDirectories(d), referenceBuildDirectories(d)
		sameDirectories(t, d, got, want)
		// Only the servers the round-robin reached are named: one in a, two
		// in b.
		for as, named := range map[inet.ASN]int{a.ASN: 1, b.ASN: 2} {
			for i, s := range d.ServersOf(traffic.Google, as) {
				if _, ok := got[traffic.Google].Hostname(s.Addr); ok != (i < named) {
					t.Fatalf("ISP %d server %d: hostname %v, want %v", as, i, ok, i < named)
				}
			}
		}
	})

	t.Run("default-scale", func(t *testing.T) {
		if testing.Short() {
			t.Skip("default-scale world in -short mode")
		}
		w := inet.Generate(inet.ConfigFromScenario(scenario.Default(), 42))
		d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 42))
		if err != nil {
			t.Fatal(err)
		}
		sameDirectories(t, d, BuildDirectories(d), referenceBuildDirectories(d))
	})
}

// TestPaintMatchesLastWrite paints random overlapping runs over a small
// /24 space and checks every /24 against a map written run by run, /24 by
// /24: the runs must stay sorted and disjoint, and each /24 must answer
// with the last assignment.
func TestPaintMatchesLastWrite(t *testing.T) {
	servers := make([]*hypergiant.Server, 5)
	for i := range servers {
		servers[i] = &hypergiant.Server{Addr: netaddr.Addr(100 + i)}
	}
	r := rngutil.New(5)
	for trial := 0; trial < 200; trial++ {
		var runs []run
		last := map[uint32]netaddr.Addr{}
		for k := 0; k < 1+r.Intn(8); k++ {
			first := uint32(r.Intn(32))
			ru := run{first: first, end: first + 1 + uint32(r.Intn(12)), start: r.Intn(9), servers: servers[:1+r.Intn(len(servers))]}
			runs = paint(runs, ru)
			for s24 := ru.first; s24 < ru.end; s24++ {
				last[s24] = ru.server(s24)
			}
		}
		for i := 1; i < len(runs); i++ {
			if runs[i-1].end > runs[i].first || runs[i].first >= runs[i].end {
				t.Fatalf("trial %d: runs not sorted and disjoint: %+v", trial, runs)
			}
		}
		dir := &Directory{runs: runs}
		for s24 := uint32(0); s24 < 48; s24++ {
			got, gok := dir.lookup(netaddr.Addr(s24<<8 | 77))
			want, wok := last[s24]
			if got != want || gok != wok {
				t.Fatalf("trial %d: /24 %d answers %s, %v; last write %s, %v", trial, s24, got, gok, want, wok)
			}
		}
	}
}
