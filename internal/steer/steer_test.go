package steer

import (
	"strings"
	"testing"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/netaddr"
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
