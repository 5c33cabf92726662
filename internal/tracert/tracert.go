// Package tracert reproduces the peering survey of §4.2.1: traceroutes
// issued from VMs in every region of a hypergiant's cloud toward one address
// per announced /24, hop-level IP-to-network mapping with IXP fabric
// addresses resolved Euro-IX-style, and the peering inference — "we inferred
// an ISP as a peer if any traceroute has a Google IP address directly
// followed by one mapped to the ISP", with "only unresponsive hops" between
// them counting as possible peering.
package tracert

import (
	"context"
	"fmt"

	"offnetrisk/internal/bgp"
	"offnetrisk/internal/chaos"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/par"
	"offnetrisk/internal/traffic"
)

var (
	mTracesRun = obs.NewCounter("tracert.traces_run",
		"traceroutes issued by the peering survey")
	mHopsMapped = obs.NewCounter("tracert.hops_mapped",
		"traceroute hops successfully mapped to a network during inference")
	mHopsPerTrace = obs.NewHistogram("tracert.hops_per_trace",
		"hop counts per traceroute", []float64{2, 4, 6, 8, 12, 16, 24})
)

// fHops accounts the hop-level IP-to-network mapping of §4.2.1: every hop of
// every trace enters the inference, unresponsive hops ('*' lines) and hops
// whose address maps to no announced prefix or fabric membership are dropped,
// the remainder are mapped. Out reconciles exactly with tracert.hops_mapped.
var (
	fHops             = obs.NewFunnel("tracert.hops", "traceroute hops entering the peering inference vs. mapped to a network")
	fHopsUnresponsive = fHops.Reason("unresponsive")
	fHopsUnmapped     = fHops.Reason("unmapped")
)

// fTraces accounts the survey's traceroutes: attempted vs. issued (Out
// reconciles with tracert.traces_run). Only fault injection drops any, as
// chaos_transient, a reason bound on chaos runs only.
var fTraces = obs.NewFunnel("tracert.traces",
	"traceroutes attempted vs. issued")

// Hop is one traceroute hop. Unresponsive hops appear with Responded=false
// and no address (the '*' lines of a real traceroute).
type Hop struct {
	Addr      netaddr.Addr
	Responded bool
	// Chaos marks hops perturbed by fault injection (forced silent, or
	// answered from unmapped noise space), so the hop funnel can attribute
	// their drops to chaos_* reasons instead of the natural ones.
	Chaos bool
}

// Trace is one traceroute: the probing VM, the target, and the hops.
type Trace struct {
	VM     int
	Target netaddr.Addr
	Hops   []Hop
}

// Config controls the survey.
type Config struct {
	Seed int64
	// VMs is the number of cloud regions probed from (112 in the paper).
	VMs int
	// TargetsPerISP caps the number of /24s probed per ISP; the paper
	// probes every /24 (21M traceroutes) — a cap keeps the simulation
	// laptop-sized without changing the inference, which only needs one
	// revealing path per ISP.
	TargetsPerISP int
	// SilentRouterFraction is the probability a given router interface
	// never answers traceroute probes (stable per address).
	SilentRouterFraction float64
	// Workers bounds the survey's fan-out across destination ISPs; <= 0
	// means GOMAXPROCS. Hop responsiveness is a pure per-address hash, so
	// traces are identical at any worker count.
	Workers int
	// Chaos injects deterministic faults (trace truncation, forced-silent
	// hops, unmapped-address noise, transient trace failures); nil runs
	// clean. All decisions are pure per-item hashes, so the survey stays
	// byte-identical at any worker count.
	Chaos *chaos.Injector
}

func (c Config) sanitized() Config {
	if c.VMs <= 0 {
		c.VMs = 112
	}
	if c.TargetsPerISP <= 0 {
		c.TargetsPerISP = 4
	}
	if c.SilentRouterFraction < 0 || c.SilentRouterFraction >= 1 {
		c.SilentRouterFraction = 0.15
	}
	return c
}

// SurveyContext issues traceroutes from the hypergiant's cloud toward every
// ISP and returns them grouped by destination ISP. Probes follow the AS paths
// the Gao-Rexford routing substrate computes over the relationship graph
// (valley-free, customer > peer > provider), so a peered ISP really is one
// AS-level hop from the hypergiant and everything else is reached through
// the transit hierarchy. The survey fans out one destination ISP per task
// on cfg.Workers goroutines. Every task runs its own BGP path computation
// over the shared (read-only) relationship graph and emits that ISP's
// traces; per-ISP trace slices are merged in ascending-ASN order, so the
// survey is byte-identical at any worker count.
func SurveyContext(ctx context.Context, d *hypergiant.Deployment, hg traffic.HG, cfg Config) (map[inet.ASN][]Trace, error) {
	cfg = cfg.sanitized()
	w := d.World
	hgAS := d.ContentAS[hg]
	hgISP := w.ISPs[hgAS]
	graph := bgp.FromWorld(d)

	// Pre-index peerings by ISP.
	pni := make(map[inet.ASN]bool)
	ixp := make(map[inet.ASN][]inet.IXPID)
	for _, p := range d.Peerings {
		if p.HG != hg {
			continue
		}
		switch p.Kind {
		case hypergiant.PeerPNI:
			pni[p.ISP] = true
		case hypergiant.PeerIXP:
			ixp[p.ISP] = append(ixp[p.ISP], p.IXP)
		}
	}

	var isps []*inet.ISP
	for _, isp := range w.ISPList() {
		if isp.Tier != inet.TierContent {
			isps = append(isps, isp)
		}
	}
	// Per-ISP task result: the traces plus the attempt accounting, merged
	// serially below so the traces funnel is fed in ascending-ASN order
	// regardless of worker schedule.
	type ispTraces struct {
		list                       []Trace
		attempted, lost, truncated int64
	}
	traces, err := par.Map(ctx, len(isps), par.Options{Workers: cfg.Workers, Name: "traceroutes"},
		func(_ context.Context, i int) (ispTraces, error) {
			isp := isps[i]
			path := graph.PathsTo(isp.ASN).Path(hgAS)
			targets := targetsOf(isp, cfg.TargetsPerISP)
			res := ispTraces{list: make([]Trace, 0, cfg.VMs*len(targets))}
			for vm := 0; vm < cfg.VMs; vm++ {
				for _, target := range targets {
					res.attempted++
					// A transiently-failed trace is retried per the chaos
					// policy and, if exhausted, never issued — so it counts
					// once as attempted, never in traces_run (attempts land
					// in chaos.retries_total inside Attempts).
					if _, ok := cfg.Chaos.Attempts(chaos.StageTrace, int64(vm), int64(target)); !ok {
						res.lost++
						continue
					}
					tr := trace(w, hgISP, path, vm, target, pni[isp.ASN], ixp[isp.ASN], cfg)
					if cut, ok := cfg.Chaos.TruncateAt(int64(vm), int64(target), len(tr.Hops)); ok {
						tr.Hops = tr.Hops[:cut]
						res.truncated++
					}
					mTracesRun.Inc()
					mHopsPerTrace.Observe(float64(len(tr.Hops)))
					res.list = append(res.list, tr)
				}
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	out := make(map[inet.ASN][]Trace, len(isps))
	var attempted, lost, truncated int64
	for i, res := range traces {
		if len(res.list) > 0 {
			out[isps[i].ASN] = res.list
		}
		attempted += res.attempted
		lost += res.lost
		truncated += res.truncated
	}
	fTraces.In(attempted)
	fTraces.Out(attempted - lost)
	if cfg.Chaos.Enabled() {
		fTraces.Reason("chaos_transient").Add(lost)
		cfg.Chaos.TracesTruncated.Add(truncated)
		// Hop perturbations are counted over the kept hops only, so the
		// counters equal the chaos_silent / chaos_unmapped funnel reasons
		// inference will report — truncated-away hops never count.
		var silenced, noised int64
		for _, trs := range out {
			for _, tr := range trs {
				for _, h := range tr.Hops {
					if !h.Chaos {
						continue
					}
					if h.Responded {
						noised++
					} else {
						silenced++
					}
				}
			}
		}
		cfg.Chaos.HopsSilenced.Add(silenced)
		cfg.Chaos.HopsNoised.Add(noised)
	}
	return out, nil
}

// targetsOf picks one address per /24 for up to n of the ISP's /24s.
func targetsOf(isp *inet.ISP, n int) []netaddr.Addr {
	var out []netaddr.Addr
	for _, p := range isp.Prefixes {
		for _, s := range p.Slash24s() {
			out = append(out, s.First()+1)
			if len(out) >= n {
				return out
			}
		}
	}
	return out
}

// trace emits the hop sequence for one probe along the BGP-selected AS
// path. Each AS contributes one or two router interfaces; when the
// hypergiant→ISP edge is an exchange peering, the entry hop is the ISP's
// fabric address, which the Euro-IX-style registry maps back to the ISP.
func trace(w *inet.World, hgISP *inet.ISP, path []inet.ASN, vm int, target netaddr.Addr, hasPNI bool, ixps []inet.IXPID, cfg Config) Trace {
	var hops []Hop
	add := func(a netaddr.Addr) {
		h := Hop{Addr: a, Responded: responds(a, cfg)}
		// Chaos perturbs naturally responsive interfaces only (a silent
		// router cannot get noisier), stable per address like the natural
		// silent fraction: noise makes the interface answer from unrouted
		// space the IP-to-AS mapping cannot resolve; silence forces a '*'.
		// Counted in the survey's serial merge, not here: truncation may
		// discard a perturbed tail hop, and the counters must reconcile
		// with the hops that actually reach inference.
		if h.Responded {
			switch {
			case cfg.Chaos.HopNoised(int64(a)):
				h = Hop{Addr: noiseAddr(cfg.Chaos, a), Responded: true, Chaos: true}
			case cfg.Chaos.HopSilenced(int64(a)):
				h = Hop{Addr: a, Responded: false, Chaos: true}
			}
		}
		hops = append(hops, h)
	}

	// Intra-cloud hops: addresses in the hypergiant's own space, varying by
	// VM region so paths differ across regions.
	hgBase := hgISP.Prefixes[0]
	add(hgBase.First() + netaddr.Addr(2+vm%64))
	add(hgBase.First() + netaddr.Addr(128+vm%32))

	if len(path) == 0 {
		// Unroutable destination: the probe dies in the cloud.
		return Trace{VM: vm, Target: target, Hops: hops}
	}

	for i := 1; i < len(path); i++ {
		as := path[i]
		isp, ok := w.ISPs[as]
		if !ok {
			continue
		}
		direct := i == 1 // edge crossing straight out of the hypergiant
		useIXP := direct && len(ixps) > 0 && (!hasPNI || vm%2 == 1)
		if useIXP {
			x := w.IXPs[ixps[vm%len(ixps)]]
			if fabricAddr, ok := x.MemberAddr[as]; ok {
				add(fabricAddr)
			} else {
				add(borderAddr(isp, 1))
			}
		} else {
			add(borderAddr(isp, 2+i))
		}
		// Interior interface for intermediate ASes, so silent borders do
		// not blind the mapping for long paths.
		if i != len(path)-1 {
			add(borderAddr(isp, 9+i))
		}
	}

	// Inside the destination ISP toward the target.
	add(target + 1) // a last-hop router interface in the target /24
	add(target)

	return Trace{VM: vm, Target: target, Hops: hops}
}

// borderAddr returns a stable router address inside the network's first
// prefix, offset by role so PNI/transit/IXP interfaces differ.
func borderAddr(isp *inet.ISP, role int) netaddr.Addr {
	if len(isp.Prefixes) == 0 {
		return 0
	}
	return isp.Prefixes[0].First() + netaddr.Addr(240+role)
}

// noiseAddr maps a perturbed hop into 203.0.113.0/24 (TEST-NET-3), which no
// synthetic network ever announces — the world allocates ISPs from
// 16.0.0.0/4, content from 8.0.0.0/9 and IXP fabrics from 198.32.0.0/13 —
// so the hop is guaranteed unmappable, like a real probe answered from
// unallocated or internal space.
func noiseAddr(in *chaos.Injector, a netaddr.Addr) netaddr.Addr {
	const testNet3 netaddr.Addr = 203<<24 | 0<<16 | 113<<8
	return testNet3 | netaddr.Addr(in.NoiseLow8(int64(a)))
}

// responds is the stable per-interface traceroute responsiveness: a hash of
// the address against the silent fraction.
func responds(a netaddr.Addr, cfg Config) bool {
	h := uint64(a) * 0x9e3779b97f4a7c15
	h ^= uint64(cfg.Seed)
	h *= 0xbf58476d1ce4e5b9
	return float64(h%1000)/1000.0 >= cfg.SilentRouterFraction
}

// PeeringClass is the §4.2.1 classification of an ISP.
type PeeringClass int

// Peering classes.
const (
	ClassNoEvidence PeeringClass = iota // "our traceroutes reveal no evidence of peering"
	ClassPossible                       // "only unresponsive hops separate Google and the ISP"
	ClassPeer                           // adjacency observed
)

// String implements fmt.Stringer.
func (c PeeringClass) String() string {
	switch c {
	case ClassPeer:
		return "peer"
	case ClassPossible:
		return "possible"
	default:
		return "no-evidence"
	}
}

// ISPInference is the inference outcome for one ISP.
type ISPInference struct {
	Class PeeringClass
	// ViaIXP: at least one adjacency went through an exchange fabric
	// address.
	ViaIXP bool
	// ViaPNI: at least one adjacency was a direct ISP address (private
	// interconnect).
	ViaPNI bool
}

// Infer classifies each ISP from its traceroutes. An adjacency requires a
// hop owned by the hypergiant directly followed by a responsive hop mapped
// to the ISP — either an address the ISP announces or its fabric address at
// an exchange. If the following hops are unresponsive until an ISP-mapped
// hop appears, the ISP is a possible peer.
func Infer(w *inet.World, hg traffic.HG, contentAS inet.ASN, traces map[inet.ASN][]Trace) map[inet.ASN]ISPInference {
	out := make(map[inet.ASN]ISPInference, len(traces))
	for as, list := range traces {
		inf := ISPInference{Class: ClassNoEvidence}
		for _, tr := range list {
			accountHops(w, as, tr)
			classifyTrace(w, contentAS, as, tr, &inf)
		}
		out[as] = inf
	}
	return out
}

// accountHops feeds the tracert.hops funnel and the hops_mapped counter for
// one trace, batched into single atomic adds per trace. Sampled hop records
// group by the trace's destination ISP.
// Hop responsiveness, chaos perturbation, and network mapping are all stable
// per address, so a hop's decision record is pure per (address, config) no
// matter which trace it appears in.
func accountHops(w *inet.World, dst inet.ASN, tr Trace) {
	lr := obs.ActiveLineage()
	hopRecord := func(h Hop, outcome, reason string, build func() []obs.LineageKV) {
		group := fmt.Sprintf("isp=%d", dst)
		if outcome == obs.LineageDropped {
			group += "|reason=" + reason
		}
		lr.Record(fHops.Name(), group, h.Addr.String(), outcome, reason, build)
	}
	var unresp, unmapped, mapped, chaosSilent, chaosNoise int64
	for _, h := range tr.Hops {
		switch {
		case !h.Responded:
			if h.Chaos {
				chaosSilent++
				if lr != nil {
					hopRecord(h, obs.LineageDropped, "chaos_silent", nil)
				}
			} else {
				unresp++
				if lr != nil {
					hopRecord(h, obs.LineageDropped, "unresponsive", nil)
				}
			}
		default:
			if owner, viaIXP, ok := mapHop(w, h); ok {
				mapped++
				if lr != nil {
					owner, viaIXP := owner, viaIXP
					hopRecord(h, obs.LineageKept, "mapped", func() []obs.LineageKV {
						return []obs.LineageKV{
							{K: "owner_as", V: fmt.Sprint(owner)},
							{K: "via_ixp", V: fmt.Sprint(viaIXP)},
							{K: "dst_isp", V: fmt.Sprint(dst)},
						}
					})
				}
			} else if h.Chaos {
				chaosNoise++
				if lr != nil {
					hopRecord(h, obs.LineageDropped, "chaos_unmapped", nil)
				}
			} else {
				unmapped++
				if lr != nil {
					hopRecord(h, obs.LineageDropped, "unmapped", nil)
				}
			}
		}
	}
	fHops.In(int64(len(tr.Hops)))
	fHops.Out(mapped)
	fHopsUnresponsive.Add(unresp)
	fHopsUnmapped.Add(unmapped)
	// Chaos reasons are bound lazily — only traces carrying perturbed hops
	// register them, so clean snapshots have no chaos_* rows.
	if chaosSilent > 0 {
		fHops.Reason("chaos_silent").Add(chaosSilent)
	}
	if chaosNoise > 0 {
		fHops.Reason("chaos_unmapped").Add(chaosNoise)
	}
	mHopsMapped.Add(mapped)
}

// mapHop resolves a responsive hop to its owning network: exchange fabric
// addresses map to the member ISP, everything else to the announcing AS.
func mapHop(w *inet.World, h Hop) (owner inet.ASN, viaIXP bool, ok bool) {
	if !h.Responded {
		return 0, false, false
	}
	if x, member, found := w.IXPOf(h.Addr); found && x != nil {
		return member, true, member != 0
	}
	as, found := w.OwnerOf(h.Addr)
	return as, false, found
}

func classifyTrace(w *inet.World, contentAS inet.ASN, target inet.ASN, tr Trace, inf *ISPInference) {
	for i := 0; i < len(tr.Hops)-1; i++ {
		h := tr.Hops[i]
		if !h.Responded {
			continue
		}
		owner, _, ok := mapHop(w, h)
		if !ok || owner != contentAS {
			continue
		}
		// Found a responsive hypergiant hop; look at what follows.
		j := i + 1
		sawGap := false
		for j < len(tr.Hops) {
			next := tr.Hops[j]
			if !next.Responded {
				sawGap = true
				j++
				continue
			}
			nOwner, viaIXP, nOK := mapHop(w, next)
			if !nOK {
				break
			}
			if nOwner == contentAS {
				// Still inside the hypergiant; continue from here.
				break
			}
			if nOwner == target {
				if sawGap {
					if inf.Class < ClassPossible {
						inf.Class = ClassPossible
					}
				} else {
					inf.Class = ClassPeer
					if viaIXP {
						inf.ViaIXP = true
					} else {
						inf.ViaPNI = true
					}
				}
			}
			break
		}
	}
}

// SurveyStats aggregates the §4.2.1 numbers.
type SurveyStats struct {
	HG traffic.HG
	// Over ISPs hosting the hypergiant's offnets:
	HostsTotal      int
	HostsPeer       int // 38.2% in the paper
	HostsPossible   int // 13.3%
	HostsNoEvidence int // 48.4%
	// Over all inferred peers (any ISP):
	PeersTotal   int
	PeersViaIXP  int // 62.2% peer via an IXP in ≥1 traceroute
	PeersOnlyIXP int // 42.5% only appear connected through an IXP
}

// Stats computes the survey statistics given the deployment ground truth
// for "ISPs with offnets".
func Stats(d *hypergiant.Deployment, hg traffic.HG, inf map[inet.ASN]ISPInference) SurveyStats {
	s := SurveyStats{HG: hg}
	hosts := make(map[inet.ASN]bool)
	for _, as := range d.HostISPs(hg) {
		hosts[as] = true
	}
	s.HostsTotal = len(hosts)
	for as := range hosts {
		switch inf[as].Class {
		case ClassPeer:
			s.HostsPeer++
		case ClassPossible:
			s.HostsPossible++
		default:
			s.HostsNoEvidence++
		}
	}
	for _, i := range inf {
		if i.Class != ClassPeer {
			continue
		}
		s.PeersTotal++
		if i.ViaIXP {
			s.PeersViaIXP++
		}
		if i.ViaIXP && !i.ViaPNI {
			s.PeersOnlyIXP++
		}
	}
	return s
}

// String renders the stats in the paper's phrasing.
func (s SurveyStats) String() string {
	pct := func(n, d int) float64 {
		if d == 0 {
			return 0
		}
		return 100 * float64(n) / float64(d)
	}
	return fmt.Sprintf(
		"%s: of %d ISPs with offnets, %d (%.1f%%) peer, %d (%.1f%%) possible, %d (%.1f%%) no evidence; "+
			"of %d peers, %d (%.1f%%) via IXP, %d (%.1f%%) IXP-only",
		s.HG, s.HostsTotal,
		s.HostsPeer, pct(s.HostsPeer, s.HostsTotal),
		s.HostsPossible, pct(s.HostsPossible, s.HostsTotal),
		s.HostsNoEvidence, pct(s.HostsNoEvidence, s.HostsTotal),
		s.PeersTotal,
		s.PeersViaIXP, pct(s.PeersViaIXP, s.PeersTotal),
		s.PeersOnlyIXP, pct(s.PeersOnlyIXP, s.PeersTotal))
}
