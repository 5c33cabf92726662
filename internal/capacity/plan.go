package capacity

import (
	"slices"
	"sort"

	"offnetrisk/internal/inet"
	"offnetrisk/internal/traffic"
)

// plan is a Model compiled for serving. Every lookup the map-based model
// description needs per flow is resolved once, at Build time, so a serving
// pass is one walk over two slices: the in-ISP flows in serve order
// (traffic.All, then ascending ASN) and the upstream pools those flows
// drain, in the same order. WithCuts scales a compiled plan rather than
// compiling its own.
type plan struct {
	flows []planFlow
	pools []planPool
	// sitesIn lists, per facility hosting offnets, the sites with a share
	// in it: i < len(flows) is flows[i]'s site, len(flows)+j is pools[j].
	// A failure recomputes only those sites' capacity. Every site has a
	// share: Build sizes a site from its servers' facilities.
	sitesIn map[inet.FacilityID][]int32
}

// planSite is one offnet site's capacity, with its facility shares in
// ascending facility order so a failure's lost share sums the same way on
// every run.
type planSite struct {
	nominal, burst float64
	shares         []facilityShare
}

// planPool is one upstream offnet site, hosted by transit network as.
type planPool struct {
	planSite
	hg traffic.HG
	as inet.ASN
}

type facilityShare struct {
	fid   inet.FacilityID
	share float64
}

// planFlow is one (hypergiant, access ISP) demand and everything that
// serves it.
type planFlow struct {
	planSite
	hg  traffic.HG
	isp inet.ASN
	// peak is PeakDemand(hg, isp); offnetFrac the cacheable share of it.
	peak, offnetFrac float64
	pni, ixp         float64
	// provs indexes plan.pools: the upstream sites of hg in the ISP's
	// providers, in provider order (a repeated provider repeats).
	provs []int
}

func compileSite(s *Site) planSite {
	ps := planSite{nominal: s.NominalGbps, burst: s.BurstGbps}
	ps.shares = make([]facilityShare, 0, len(s.Facilities))
	for fid, share := range s.Facilities {
		ps.shares = append(ps.shares, facilityShare{fid, share})
	}
	sort.Slice(ps.shares, func(i, j int) bool { return ps.shares[i].fid < ps.shares[j].fid })
	return ps
}

// available is the site's serving capacity in the regime with the failed
// facilities' shares removed. A site none of whose facilities survives
// serves exactly 0: its shares need not sum to exactly 1, so 1-lost could
// leave a sliver of either sign.
func (s *planSite) available(burst bool, failed map[inet.FacilityID]bool) float64 {
	avail := s.nominal
	if burst {
		avail = s.burst
	}
	if failed != nil {
		lost, survives := 0.0, false
		for _, fs := range s.shares {
			if failed[fs.fid] {
				lost += fs.share
			} else {
				survives = true
			}
		}
		if !survives {
			return 0
		}
		avail *= 1 - lost
	}
	return avail
}

// site is the plan's site i in sitesIn's numbering.
func (p *plan) site(i int32) *planSite {
	if n := int32(len(p.flows)); i >= n {
		return &p.pools[i-n].planSite
	}
	return &p.flows[i].planSite
}

// compile derives the serving plan from the model's maps.
func (m *Model) compile() plan {
	var p plan
	poolOf := make(map[traffic.HG]map[inet.ASN]int, len(traffic.All))
	for _, hg := range traffic.All {
		poolOf[hg] = make(map[inet.ASN]int, len(m.Upstream[hg]))
		for _, as := range inet.SortedASNs(m.Upstream[hg]) {
			poolOf[hg][as] = len(p.pools)
			p.pools = append(p.pools, planPool{planSite: compileSite(m.Upstream[hg][as]), hg: hg, as: as})
		}
	}
	for _, hg := range traffic.All {
		for _, as := range inet.SortedASNs(m.Sites[hg]) {
			f := planFlow{
				planSite:   compileSite(m.Sites[hg][as]),
				hg:         hg,
				isp:        as,
				peak:       m.PeakDemand(hg, as),
				offnetFrac: m.cfg.Mix.OffnetFraction(hg),
				pni:        m.PNIGbps[hg][as],
				ixp:        m.IXPPort[hg][as],
			}
			if isp, ok := m.dep.World.ISPs[as]; ok {
				for _, prov := range isp.Providers {
					if i, ok := poolOf[hg][prov]; ok {
						f.provs = append(f.provs, i)
					}
				}
			}
			p.flows = append(p.flows, f)
		}
	}
	return p
}

// scaled returns the plan of a cut model: each site's nominal and burst
// capacity multiplied by keep at the offnet layer (a pool's network is its
// transit host), and each flow's PNI and IXP caps by keep at their own
// layer, but only where pni or ixp lists the flow's (hypergiant, ISP): an
// absent cap compiles to 0 from the cut model's maps whatever keep says,
// even NaN. Cuts scale capacities, never facility shares, demand or
// providers, and keep every site, so the scaled plan numbers its sites as
// p does and shares p's facility shares, provider lists and facility
// index.
func (p *plan) scaled(keep func(traffic.HG, inet.ASN, Layer) float64, pni, ixp map[traffic.HG]map[inet.ASN]float64) plan {
	out := plan{
		flows:   slices.Clone(p.flows),
		pools:   slices.Clone(p.pools),
		sitesIn: p.sitesIn,
	}
	for i := range out.flows {
		f := &out.flows[i]
		f.scale(keep(f.hg, f.isp, LayerOffnet))
		if _, ok := pni[f.hg][f.isp]; ok {
			f.pni *= keep(f.hg, f.isp, LayerPNI)
		}
		if _, ok := ixp[f.hg][f.isp]; ok {
			f.ixp *= keep(f.hg, f.isp, LayerIXP)
		}
	}
	for j := range out.pools {
		pl := &out.pools[j]
		pl.scale(keep(pl.hg, pl.as, LayerOffnet))
	}
	return out
}

// scale multiplies the site's capacity in both regimes by k.
func (s *planSite) scale(k float64) {
	s.nominal *= k
	s.burst *= k
}

// indexFacilities builds the plan's sitesIn.
func (p *plan) indexFacilities() {
	p.sitesIn = make(map[inet.FacilityID][]int32)
	for i := range int32(len(p.flows) + len(p.pools)) {
		for _, fs := range p.site(i).shares {
			p.sitesIn[fs.fid] = append(p.sitesIn[fs.fid], i)
		}
	}
}

// serve runs one serving pass over the plan into flows and caps, sized to
// the plan: each flow fills its offnet up to the regime's capacity, then
// its PNI, then its IXP port, then drains its providers' upstream pools
// greedily in flow order; what is left travels transit.
func (p *plan) serve(flows []Flow, caps []float64, mult float64, scale map[traffic.HG]float64, failedFacilities map[inet.FacilityID]bool, burst bool) {
	for i := range p.flows {
		caps[i] = p.flows[i].nominal
		if burst {
			caps[i] = p.flows[i].burst
		}
	}
	pool := caps[len(p.flows):]
	for j := range p.pools {
		pool[j] = p.pools[j].nominal
		if burst {
			pool[j] = p.pools[j].burst
		}
	}
	if failedFacilities != nil {
		// A site with no share in a failed facility keeps avail*(1-0),
		// which is avail: only the sites a failure touches change.
		for fid := range failedFacilities {
			for _, i := range p.sitesIn[fid] {
				caps[i] = p.site(i).available(burst, failedFacilities)
			}
		}
	}
	var hgScale [traffic.NumHG]float64
	for _, hg := range traffic.All {
		hgScale[hg] = 1.0
		if v, ok := scale[hg]; ok {
			hgScale[hg] = v
		}
	}
	for i := range p.flows {
		pf := &p.flows[i]
		demand := pf.peak * mult * hgScale[pf.hg]
		// Offnets can serve at most the cacheable share of demand.
		offnet := min(demand*pf.offnetFrac, caps[i])
		rest := demand - offnet
		pni := min(rest, pf.pni)
		rest -= pni
		ixp := min(rest, pf.ixp)
		rest -= ixp
		// Remaining spill heads to the ISP's providers; offnets hosted
		// there absorb what their pools allow.
		var upstream float64
		for _, j := range pf.provs {
			if rest <= 0 {
				break
			}
			if pool[j] > 0 {
				take := min(rest, pool[j])
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
}
