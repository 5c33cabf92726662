// Package bgp computes AS-level paths over the synthetic Internet under the
// standard Gao-Rexford policy model: customer-provider and peer-peer
// relationships, valley-free export (an AS exports its customers' routes to
// everyone but peer- and provider-learned routes only to customers), and
// the canonical preference order customer > peer > provider with shortest
// AS-path tie-breaking.
//
// The traceroute survey (§4.2.1) runs over these paths: a hypergiant's
// probes reach a peered ISP directly (one AS-level hop) and everything else
// through the transit hierarchy — which is exactly the structure the
// paper's peering inference keys on.
package bgp

import (
	"fmt"
	"sort"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
)

// RouteKind orders route preference: customer routes beat peer routes beat
// provider routes (Gao-Rexford).
type RouteKind int

// Route kinds in preference order.
const (
	RouteNone RouteKind = iota
	RouteProvider
	RoutePeer
	RouteCustomer
	RouteSelf
)

// String implements fmt.Stringer.
func (k RouteKind) String() string {
	switch k {
	case RouteSelf:
		return "self"
	case RouteCustomer:
		return "customer"
	case RoutePeer:
		return "peer"
	case RouteProvider:
		return "provider"
	default:
		return "none"
	}
}

// Graph is the AS relationship graph.
type Graph struct {
	// providers[a] lists a's transit providers (a pays them).
	providers map[inet.ASN][]inet.ASN
	// customers[a] lists a's customers.
	customers map[inet.ASN][]inet.ASN
	// peers[a] lists a's settlement-free peers.
	peers map[inet.ASN][]inet.ASN
	// nodes in deterministic order.
	nodes []inet.ASN
	seen  map[inet.ASN]bool
}

// NewGraph returns an empty relationship graph.
func NewGraph() *Graph {
	return &Graph{
		providers: make(map[inet.ASN][]inet.ASN),
		customers: make(map[inet.ASN][]inet.ASN),
		peers:     make(map[inet.ASN][]inet.ASN),
		seen:      make(map[inet.ASN]bool),
	}
}

func (g *Graph) addNode(as inet.ASN) {
	if !g.seen[as] {
		g.seen[as] = true
		g.nodes = append(g.nodes, as)
	}
}

// AddProvider records that cust buys transit from prov.
func (g *Graph) AddProvider(cust, prov inet.ASN) {
	g.addNode(cust)
	g.addNode(prov)
	g.providers[cust] = append(g.providers[cust], prov)
	g.customers[prov] = append(g.customers[prov], cust)
}

// AddPeer records a settlement-free peering between a and b.
func (g *Graph) AddPeer(a, b inet.ASN) {
	g.addNode(a)
	g.addNode(b)
	g.peers[a] = append(g.peers[a], b)
	g.peers[b] = append(g.peers[b], a)
}

// Nodes returns every AS in insertion order.
func (g *Graph) Nodes() []inet.ASN { return g.nodes }

// HasPeer reports whether a and b peer directly.
func (g *Graph) HasPeer(a, b inet.ASN) bool {
	for _, p := range g.peers[a] {
		if p == b {
			return true
		}
	}
	return false
}

// FromWorld derives the relationship graph from a deployed world:
// provider edges from every ISP's transit arrangements, a full backbone
// peer mesh, hypergiant↔backbone peerings (content networks are
// transit-free), and hypergiant↔ISP peerings from the deployment (both PNI
// and IXP count as peer edges — the relationship is the same, only the
// medium differs).
func FromWorld(d *hypergiant.Deployment) *Graph {
	w := d.World
	g := NewGraph()
	var backbones []inet.ASN
	for _, isp := range w.ISPList() {
		g.addNode(isp.ASN)
		for _, prov := range isp.Providers {
			g.AddProvider(isp.ASN, prov)
		}
		if isp.Tier == inet.TierBackbone {
			backbones = append(backbones, isp.ASN)
		}
	}
	for i := 0; i < len(backbones); i++ {
		for j := i + 1; j < len(backbones); j++ {
			g.AddPeer(backbones[i], backbones[j])
		}
	}
	for _, hgAS := range contentASNs(d) {
		for _, bb := range backbones {
			g.AddPeer(hgAS, bb)
		}
	}
	// Deployment peerings; deduplicate (a pair may have PNI and IXP).
	seen := make(map[[2]inet.ASN]bool)
	for _, p := range d.Peerings {
		hgAS := d.ContentAS[p.HG]
		key := [2]inet.ASN{hgAS, p.ISP}
		if seen[key] {
			continue
		}
		seen[key] = true
		g.AddPeer(hgAS, p.ISP)
	}
	return g
}

func contentASNs(d *hypergiant.Deployment) []inet.ASN {
	out := make([]inet.ASN, 0, len(d.ContentAS))
	for _, as := range d.ContentAS {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Route is one AS's best route toward a destination.
type Route struct {
	Kind RouteKind
	// NextHop is the neighbor the route was learned from (0 for self).
	NextHop inet.ASN
	// Hops is the AS-path length (0 for self).
	Hops int
}

// RIB holds every AS's best route toward one destination.
type RIB struct {
	Dst    inet.ASN
	routes map[inet.ASN]Route
}

// RouteOf returns the AS's best route, or ok=false when dst is unreachable.
func (t *RIB) RouteOf(as inet.ASN) (Route, bool) {
	r, ok := t.routes[as]
	return r, ok
}

// Path reconstructs the AS path from src to the destination (inclusive of
// both), or nil when unreachable.
func (t *RIB) Path(src inet.ASN) []inet.ASN {
	var out []inet.ASN
	cur := src
	for {
		r, ok := t.routes[cur]
		if !ok {
			return nil
		}
		out = append(out, cur)
		if r.Kind == RouteSelf {
			return out
		}
		if len(out) > len(t.routes)+1 {
			return nil // corrupt table; fail closed
		}
		cur = r.NextHop
	}
}

// better reports whether route a is preferred over b: higher kind, then
// fewer hops, then the lower next-hop ASN for determinism.
func better(a, b Route) bool {
	if a.Kind != b.Kind {
		return a.Kind > b.Kind
	}
	if a.Hops != b.Hops {
		return a.Hops < b.Hops
	}
	return a.NextHop < b.NextHop
}

// install keeps r as the AS's route if it beats the current one.
func (t *RIB) install(as inet.ASN, r Route) bool {
	cur, ok := t.routes[as]
	if !ok || better(r, cur) {
		t.routes[as] = r
		return true
	}
	return false
}

// PathsTo computes, Gao-Rexford style, every AS's best route to dst:
//
//  1. customer routes propagate "up" provider edges from dst (BFS, so
//     shortest);
//  2. peer routes: one peer edge crossing from an AS holding a customer
//     (or self) route;
//  3. provider routes propagate "down" customer edges from every AS that
//     has any route.
//
// Ties (same kind, same length) break toward the lowest next-hop ASN for
// determinism.
func (g *Graph) PathsTo(dst inet.ASN) *RIB {
	t := &RIB{Dst: dst, routes: make(map[inet.ASN]Route, len(g.nodes))}
	if !g.seen[dst] {
		return t
	}
	g.customerRoutes(t)

	// Stage 2: peer routes. Only ASes holding customer/self routes export
	// across peer edges.
	for _, as := range g.nodes {
		base, ok := t.routes[as]
		if !ok || (base.Kind != RouteCustomer && base.Kind != RouteSelf) {
			continue
		}
		for _, peer := range g.peers[as] {
			t.install(peer, Route{Kind: RoutePeer, NextHop: as, Hops: base.Hops + 1})
		}
	}

	// Stage 3: provider routes, BFS down customer edges from every routed
	// AS. A customer prefers the shortest provider-learned path; kinds
	// never downgrade an existing better route thanks to install().
	frontier := make([]inet.ASN, 0, len(t.routes))
	for as := range t.routes {
		frontier = append(frontier, as)
	}
	for len(frontier) > 0 {
		var next []inet.ASN
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		for _, as := range frontier {
			base := t.routes[as]
			for _, cust := range g.customers[as] {
				r := Route{Kind: RouteProvider, NextHop: as, Hops: base.Hops + 1}
				if t.install(cust, r) {
					next = append(next, cust)
				}
			}
		}
		frontier = next
	}
	return t
}

// customerRoutes is stage 1 of PathsTo: the self route at t.Dst, then
// customer routes by BFS up provider edges, which reaches exactly dst's
// provider cone. Stages 2 and 3 install only peer and provider routes,
// which never beat a customer route, so every route this leaves is final.
func (g *Graph) customerRoutes(t *RIB) {
	t.routes[t.Dst] = Route{Kind: RouteSelf}
	frontier := []inet.ASN{t.Dst}
	for len(frontier) > 0 {
		var next []inet.ASN
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		for _, as := range frontier {
			base := t.routes[as]
			for _, prov := range g.providers[as] {
				r := Route{Kind: RouteCustomer, NextHop: as, Hops: base.Hops + 1}
				if t.install(prov, r) {
					next = append(next, prov)
				}
			}
		}
		frontier = next
	}
}

// PathFrom returns PathsTo(dst).Path(src), computing only what that one
// path reads. Stage 1 runs over dst's provider cone, whose routes are final
// (see customerRoutes). If src holds one of them, its path follows them.
// Otherwise src's route in the full table is its best peer route when it
// has one, because stage 3's provider routes never replace a peer route;
// that route crosses to a peer holding a final customer or self route.
// Only a src with neither falls back to the full computation.
func (g *Graph) PathFrom(src, dst inet.ASN) []inet.ASN {
	if !g.seen[dst] {
		return nil
	}
	t := &RIB{Dst: dst, routes: make(map[inet.ASN]Route)}
	g.customerRoutes(t)
	if _, ok := t.routes[src]; ok {
		return t.Path(src)
	}
	var best Route
	for _, peer := range g.peers[src] {
		if base, ok := t.routes[peer]; ok {
			if r := (Route{Kind: RoutePeer, NextHop: peer, Hops: base.Hops + 1}); better(r, best) {
				best = r
			}
		}
	}
	if best.Kind == RoutePeer {
		return append([]inet.ASN{src}, t.Path(best.NextHop)...)
	}
	return g.PathsTo(dst).Path(src)
}

// ValleyFree checks the Gao-Rexford invariant on a path: once the path
// goes "down" (provider→customer) or "across" (peer), it never goes "up"
// (customer→provider) or across again. Exposed for property tests.
func (g *Graph) ValleyFree(path []inet.ASN) error {
	if len(path) < 2 {
		return nil
	}
	phase := 0 // 0 = climbing, 1 = crossed peer, 2 = descending
	for i := 0; i < len(path)-1; i++ {
		a, b := path[i], path[i+1]
		switch {
		case contains(g.providers[a], b): // up
			if phase != 0 {
				return fmt.Errorf("bgp: up edge %d→%d after phase %d", a, b, phase)
			}
		case g.HasPeer(a, b): // across
			if phase >= 1 {
				return fmt.Errorf("bgp: second lateral edge %d→%d", a, b)
			}
			phase = 1
		case contains(g.customers[a], b): // down
			phase = 2
		default:
			return fmt.Errorf("bgp: %d→%d is not an edge", a, b)
		}
	}
	return nil
}

func contains(xs []inet.ASN, v inet.ASN) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
