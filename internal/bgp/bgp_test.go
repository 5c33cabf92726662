package bgp

import (
	"testing"
	"testing/quick"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

// chainGraph builds: bb1 ←prov← t1 ←prov← a1; bb2 ←prov← t2 ←prov← a2;
// bb1 ↔ bb2 peers; hg peers with bb1, bb2, and a1.
func chainGraph() (*Graph, map[string]inet.ASN) {
	as := map[string]inet.ASN{
		"bb1": 100, "bb2": 101, "t1": 1000, "t2": 1001,
		"a1": 10000, "a2": 10001, "hg": 90000,
	}
	g := NewGraph()
	g.AddProvider(as["t1"], as["bb1"])
	g.AddProvider(as["t2"], as["bb2"])
	g.AddProvider(as["a1"], as["t1"])
	g.AddProvider(as["a2"], as["t2"])
	g.AddPeer(as["bb1"], as["bb2"])
	g.AddPeer(as["hg"], as["bb1"])
	g.AddPeer(as["hg"], as["bb2"])
	g.AddPeer(as["hg"], as["a1"])
	return g, as
}

func TestPeeredPathIsDirect(t *testing.T) {
	g, as := chainGraph()
	rib := g.PathsTo(as["a1"])
	path := rib.Path(as["hg"])
	if len(path) != 2 || path[0] != as["hg"] || path[1] != as["a1"] {
		t.Fatalf("peered path = %v, want [hg a1]", path)
	}
	r, _ := rib.RouteOf(as["hg"])
	if r.Kind != RoutePeer {
		t.Errorf("route kind = %v, want peer", r.Kind)
	}
}

func TestUnpeeredPathClimbsHierarchy(t *testing.T) {
	g, as := chainGraph()
	rib := g.PathsTo(as["a2"])
	path := rib.Path(as["hg"])
	want := []inet.ASN{as["hg"], as["bb2"], as["t2"], as["a2"]}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if err := g.ValleyFree(path); err != nil {
		t.Errorf("path not valley-free: %v", err)
	}
}

func TestCustomerRoutePreferredOverPeer(t *testing.T) {
	// t1 reaches a1 as a customer (direct); even though other paths exist
	// via peers, the customer route must win.
	g, as := chainGraph()
	rib := g.PathsTo(as["a1"])
	r, ok := rib.RouteOf(as["t1"])
	if !ok || r.Kind != RouteCustomer || r.NextHop != as["a1"] {
		t.Errorf("t1 route = %+v (ok=%v), want direct customer", r, ok)
	}
	// a2 reaches a1 via its provider chain.
	r, ok = rib.RouteOf(as["a2"])
	if !ok || r.Kind != RouteProvider {
		t.Errorf("a2 route = %+v (ok=%v), want provider", r, ok)
	}
	if err := g.ValleyFree(rib.Path(as["a2"])); err != nil {
		t.Errorf("a2 path not valley-free: %v", err)
	}
}

func TestPeerRoutesNotExportedToPeers(t *testing.T) {
	// hg peers with a1. bb1 must NOT reach a1 through hg (peer route
	// through a peer = valley). bb1's route to a1 goes through its customer
	// chain t1.
	g, as := chainGraph()
	rib := g.PathsTo(as["a1"])
	r, ok := rib.RouteOf(as["bb1"])
	if !ok {
		t.Fatal("bb1 cannot reach a1")
	}
	if r.NextHop == as["hg"] {
		t.Error("bb1 routes via hg: peer route leaked to a peer")
	}
	if r.Kind != RouteCustomer || r.NextHop != as["t1"] {
		t.Errorf("bb1 route = %+v, want customer via t1", r)
	}
}

func TestUnreachableAndUnknown(t *testing.T) {
	g := NewGraph()
	g.AddProvider(10, 20)
	rib := g.PathsTo(99) // unknown destination
	if p := rib.Path(10); p != nil {
		t.Errorf("path to unknown dst = %v", p)
	}
	// Island AS (no edges to dst's component).
	g.AddPeer(30, 31)
	rib = g.PathsTo(20)
	if _, ok := rib.RouteOf(30); ok {
		t.Error("disconnected AS should have no route")
	}
}

func TestSelfRoute(t *testing.T) {
	g, as := chainGraph()
	rib := g.PathsTo(as["a1"])
	p := rib.Path(as["a1"])
	if len(p) != 1 || p[0] != as["a1"] {
		t.Errorf("self path = %v", p)
	}
}

func TestFromWorldFullReachabilityAndValleyFree(t *testing.T) {
	// Every AS must reach every access ISP, and every reconstructed path
	// must be valley-free — the global invariants of the routing substrate.
	w := inet.Generate(inet.TinyConfig(1))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 1))
	if err != nil {
		t.Fatal(err)
	}
	g := FromWorld(d)

	hgAS := d.ContentAS[traffic.Google]
	checked := 0
	for _, isp := range w.AccessISPs()[:20] {
		rib := g.PathsTo(isp.ASN)
		for _, src := range g.Nodes() {
			path := rib.Path(src)
			if path == nil {
				t.Fatalf("AS%d cannot reach %s", src, isp.Name)
			}
			if err := g.ValleyFree(path); err != nil {
				t.Fatalf("src AS%d → %s: %v (path %v)", src, isp.Name, err, path)
			}
			checked++
		}
		// Hypergiant adjacency appears iff a peering exists.
		path := rib.Path(hgAS)
		direct := len(path) == 2
		peered := g.HasPeer(hgAS, isp.ASN)
		if direct && !peered {
			t.Errorf("%s: direct path without peering", isp.Name)
		}
		if peered && !direct {
			t.Errorf("%s: peering exists but path %v is indirect", isp.Name, path)
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestPathsDeterministic(t *testing.T) {
	w := inet.Generate(inet.TinyConfig(2))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 2))
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := FromWorld(d), FromWorld(d)
	dst := w.AccessISPs()[0].ASN
	r1, r2 := g1.PathsTo(dst), g2.PathsTo(dst)
	for _, src := range g1.Nodes() {
		p1, p2 := r1.Path(src), r2.Path(src)
		if len(p1) != len(p2) {
			t.Fatalf("paths differ for AS%d: %v vs %v", src, p1, p2)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("paths differ for AS%d: %v vs %v", src, p1, p2)
			}
		}
	}
}

func TestRandomGraphsValleyFreeProperty(t *testing.T) {
	// Random hierarchies: all computed paths must satisfy valley-freeness.
	f := func(seed int64) bool {
		r := rngutil.New(seed)
		g := NewGraph()
		const nBB, nT, nA = 3, 6, 20
		for i := 0; i < nBB; i++ {
			for j := i + 1; j < nBB; j++ {
				g.AddPeer(inet.ASN(i), inet.ASN(j))
			}
		}
		for i := 0; i < nT; i++ {
			g.AddProvider(inet.ASN(100+i), inet.ASN(r.Intn(nBB)))
		}
		for i := 0; i < nA; i++ {
			g.AddProvider(inet.ASN(1000+i), inet.ASN(100+r.Intn(nT)))
			if r.Intn(3) == 0 { // occasional lateral peering between access nets
				g.AddPeer(inet.ASN(1000+i), inet.ASN(1000+r.Intn(nA)))
			}
		}
		for trial := 0; trial < 5; trial++ {
			dst := inet.ASN(1000 + r.Intn(nA))
			rib := g.PathsTo(dst)
			for _, src := range g.Nodes() {
				path := rib.Path(src)
				if path == nil {
					continue
				}
				if err := g.ValleyFree(path); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRouteKindStrings(t *testing.T) {
	for k, want := range map[RouteKind]string{
		RouteSelf: "self", RouteCustomer: "customer", RoutePeer: "peer",
		RouteProvider: "provider", RouteNone: "none",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}
