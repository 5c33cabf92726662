// Package steer models how hypergiants direct clients to offnet servers and
// why measuring that mapping from outside broke (§3.2):
//
//	"With existing methodologies, it is impossible to know which users are
//	served from which offnets. An earlier technique provided such results
//	for Google in 2013, but it only works if the hypergiant uses DNS to
//	direct users to specific offnet locations for a given hostname ...
//	Google no longer does so, and instead Google, Netflix, and Meta
//	generally direct users to a particular offnet for cached content by
//	embedding customized URLs into web pages returned to users ... Akamai
//	does use DNS to direct users to offnets, but it only accepts EDNS
//	Client Subnet queries from allow-listed DNS resolvers."
//
// The package implements all three steering regimes, the authoritative DNS
// behaviour each implies, and the Calder-2013-style mapping experiment that
// demonstrates where the technique still works (2013-era DNS steering),
// degrades (ECS allowlisting), and fails outright (embedded URLs).
package steer

import (
	"fmt"
	"slices"
	"sort"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/traffic"
)

// Mode is a hypergiant's client-steering regime.
type Mode int

// Steering regimes.
const (
	// ModeDNS2013: the hostname of the service itself (www.google.com)
	// resolves, per client subnet, to the offnet serving that client — the
	// regime the 2013 mapping technique exploited.
	ModeDNS2013 Mode = iota
	// ModeECSAllowlist: DNS steering, but EDNS Client Subnet is honoured
	// only for allow-listed resolvers; everyone else is mapped by resolver
	// address (Akamai's regime).
	ModeECSAllowlist
	// ModeEmbeddedURL: the service hostname resolves to onnet/cloud front
	// ends for everybody; offnet selection happens by embedding per-session
	// URLs (e.g. fhan14-4.fna.fbcdn.net) in returned pages (the modern
	// Google/Netflix/Meta regime).
	ModeEmbeddedURL
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDNS2013:
		return "dns-2013"
	case ModeECSAllowlist:
		return "ecs-allowlist"
	case ModeEmbeddedURL:
		return "embedded-url"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Modes2013 is the steering world of the early-2010s measurements: DNS
// steering everywhere.
func Modes2013() map[traffic.HG]Mode {
	return map[traffic.HG]Mode{
		traffic.Google:  ModeDNS2013,
		traffic.Netflix: ModeDNS2013,
		traffic.Meta:    ModeDNS2013,
		traffic.Akamai:  ModeECSAllowlist,
	}
}

// Modes2023 is today's regime per §3.2.
func Modes2023() map[traffic.HG]Mode {
	return map[traffic.HG]Mode{
		traffic.Google:  ModeEmbeddedURL,
		traffic.Netflix: ModeEmbeddedURL,
		traffic.Meta:    ModeEmbeddedURL,
		traffic.Akamai:  ModeECSAllowlist,
	}
}

// Directory is the ground-truth client→server mapping a hypergiant's
// steering system maintains: for each client /24, the offnet (or onnet
// fallback) that serves it. It is built from the BGP feeds ISPs give
// hypergiants ("The ISP provides the hypergiant with a BGP feed of IP
// prefixes it is willing to serve from the offnet").
type Directory struct {
	hg traffic.HG
	// runs answer a client /24 on demand: sorted by first /24, disjoint.
	runs []run
	// onnet is the fallback front end for unmapped clients.
	onnet netaddr.Addr
	// offnets are the addresses serving at least one /24, ascending.
	offnets []netaddr.Addr
	// named are the servers the round-robin reached, in assignment order;
	// each has an embedded-URL hostname.
	named []*hypergiant.Server
}

// run assigns a range of client /24s, numbered by address>>8, round-robin
// over one host ISP's servers: /24 first+k gets servers[(start+k) % n].
type run struct {
	first, end uint32 // half-open
	start      int
	servers    []*hypergiant.Server
}

func (r run) server(s24 uint32) netaddr.Addr {
	return r.servers[(r.start+int(s24-r.first))%len(r.servers)].Addr
}

// paint adds r to runs, which stay sorted and disjoint: where r overlaps
// earlier runs it replaces their /24s, so the last assignment of a /24
// wins. Runs added in address order append.
func paint(runs []run, r run) []run {
	// runs[i:j] overlap r.
	i := sort.Search(len(runs), func(k int) bool { return runs[k].end > r.first })
	if i == len(runs) {
		return append(runs, r)
	}
	j := i
	for j < len(runs) && runs[j].first < r.end {
		j++
	}
	pieces := make([]run, 0, 3)
	if i < j && runs[i].first < r.first {
		left := runs[i]
		left.end = r.first
		pieces = append(pieces, left)
	}
	pieces = append(pieces, r)
	if i < j && runs[j-1].end > r.end {
		right := runs[j-1]
		right.start += int(r.end - right.first)
		right.first = r.end
		pieces = append(pieces, right)
	}
	return slices.Replace(runs, i, j, pieces...)
}

// BuildDirectories derives each hypergiant's steering directory from the
// deployment: every /24 of an offnet-hosting ISP maps to one of the
// hypergiant's servers there (round-robin), everything else to onnet. A
// server gets a hostname when it serves at least one /24. The directory
// holds one run per host-ISP prefix.
func BuildDirectories(d *hypergiant.Deployment) map[traffic.HG]*Directory {
	w := d.World
	out := make(map[traffic.HG]*Directory, len(traffic.All))
	for _, hg := range traffic.All {
		dir := &Directory{hg: hg}
		// Onnet front end: first address of the content AS.
		if isp, ok := w.ISPs[d.ContentAS[hg]]; ok && len(isp.Prefixes) > 0 {
			dir.onnet = isp.Prefixes[0].First() + 10
		}
		for _, as := range d.HostISPs(hg) {
			servers := d.ServersOf(hg, as)
			if len(servers) == 0 {
				continue
			}
			i := 0
			for _, p := range w.ISPs[as].Prefixes {
				// A prefix longer than /24 assigns its covering /24.
				first := uint32(p.First() >> 8)
				n := p.NumSlash24s()
				dir.runs = paint(dir.runs, run{first: first, end: first + uint32(n), start: i, servers: servers})
				i += n
			}
			// The round-robin reached servers[:i], all of them once it
			// wrapped.
			dir.named = append(dir.named, servers[:min(i, len(servers))]...)
		}
		dir.offnets = offnetsOf(dir.runs)
		out[hg] = dir
	}
	return out
}

// offnetsOf lists the distinct servers the runs assign, ascending. A run
// spanning at least as many /24s as it has servers reaches all of them.
func offnetsOf(runs []run) []netaddr.Addr {
	var out []netaddr.Addr
	for _, r := range runs {
		if n := len(r.servers); int(r.end-r.first) >= n {
			for _, s := range r.servers {
				out = append(out, s.Addr)
			}
			continue
		}
		for s24 := r.first; s24 < r.end; s24++ {
			out = append(out, r.server(s24))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// embeddedHostname is the per-deployment content hostname a page would
// embed, following each hypergiant's convention.
func embeddedHostname(hg traffic.HG, s *hypergiant.Server) string {
	switch hg {
	case traffic.Google:
		return fmt.Sprintf("r3---sn-%s.googlevideo.com", s.SiteTag)
	case traffic.Netflix:
		return fmt.Sprintf("ipv4-c%03d-%s-isp.1.oca.nflxvideo.net", s.Rack+1, s.SiteTag)
	case traffic.Meta:
		return fmt.Sprintf("scontent.f%s-%d.fna.fbcdn.net", s.SiteTag, s.Rack%6+1)
	case traffic.Akamai:
		return "a248.e.akamai.net"
	default:
		return ""
	}
}

// lookup returns the offnet serving the client's /24, if any.
func (dir *Directory) lookup(client netaddr.Addr) (netaddr.Addr, bool) {
	s24 := uint32(client >> 8)
	i := sort.Search(len(dir.runs), func(k int) bool { return dir.runs[k].end > s24 })
	if i < len(dir.runs) && dir.runs[i].first <= s24 {
		return dir.runs[i].server(s24), true
	}
	return 0, false
}

// ServerFor returns the ground-truth serving address for a client.
func (dir *Directory) ServerFor(client netaddr.Addr) (netaddr.Addr, bool) {
	if srv, ok := dir.lookup(client); ok {
		return srv, true
	}
	return dir.onnet, false
}

// Hostname returns the embedded-URL hostname for a serving address, if it
// is an offnet the round-robin reached.
func (dir *Directory) Hostname(srv netaddr.Addr) (string, bool) {
	for i := len(dir.named) - 1; i >= 0; i-- {
		if s := dir.named[i]; s.Addr == srv {
			return embeddedHostname(dir.hg, s), true
		}
	}
	return "", false
}

// OffnetAddrs returns all serving offnet addresses, ascending.
func (dir *Directory) OffnetAddrs() []netaddr.Addr { return slices.Clone(dir.offnets) }

// Resolver is a recursive DNS resolver as the mapping experiment sees it.
type Resolver struct {
	Addr netaddr.Addr
	ISP  inet.ASN
	// SendsECS: the resolver attaches EDNS Client Subnet to upstream
	// queries (most big public resolvers do).
	SendsECS bool
	// Allowlisted: the hypergiant honours this resolver's ECS (Akamai's
	// allowlist).
	Allowlisted bool
}

// Resolvers synthesizes a resolver population: a handful of big public
// resolvers (ECS-sending, partially allowlisted) plus per-ISP resolvers
// (no ECS, mapped by their own address).
func Resolvers(w *inet.World, nPublic int, seed int64) []Resolver {
	r := rngutil.New(seed ^ 0xd45)
	var out []Resolver
	// Public resolvers live in content-ish space; use TEST-NET style fixed
	// addresses outside the routed synthetic space so they never collide.
	for i := 0; i < nPublic; i++ {
		out = append(out, Resolver{
			Addr:        netaddr.AddrFrom4(9, 9, byte(i), 9),
			SendsECS:    true,
			Allowlisted: i < nPublic/2, // half the public resolvers are allowlisted
		})
	}
	for _, isp := range w.AccessISPs() {
		if len(isp.Prefixes) == 0 {
			continue
		}
		out = append(out, Resolver{
			Addr:     isp.Prefixes[0].First() + 53,
			ISP:      isp.ASN,
			SendsECS: rngutil.Bernoulli(r, 0.1),
		})
	}
	return out
}

// Resolve answers a service-hostname query for the hypergiant under the
// given steering mode, as its authoritative DNS would: the address the
// resolver (and optionally its client subnet) is steered to.
func Resolve(dir *Directory, mode Mode, res Resolver, clientSubnet *netaddr.Prefix) netaddr.Addr {
	client := res.Addr
	switch mode {
	case ModeDNS2013:
		// Full ECS support; fall back to resolver-based mapping.
		if clientSubnet != nil && res.SendsECS {
			client = clientSubnet.Addr
		}
	case ModeECSAllowlist:
		// ECS honoured only for allowlisted resolvers.
		if clientSubnet != nil && res.SendsECS && res.Allowlisted {
			client = clientSubnet.Addr
		}
	default:
		// Embedded URLs: the service hostname always fronts from onnet;
		// offnets are only reachable via per-session embedded names.
		return dir.onnet
	}
	srv, _ := dir.ServerFor(client)
	return srv
}
