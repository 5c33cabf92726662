package capacity

import (
	"math"
	"sort"

	"offnetrisk/internal/inet"
	"offnetrisk/internal/traffic"
)

// plan is a Model compiled for serving. Every lookup the map-based model
// description needs per flow is resolved once, at Build or WithCuts time,
// so a serving pass is one walk over two slices: the in-ISP flows in serve
// order (traffic.All, then ascending ASN) and the upstream pools those
// flows drain.
type plan struct {
	flows []planFlow
	pools []planSite
}

// planSite is one offnet site's capacity, with its facility shares in
// ascending facility order so a failure's lost share sums the same way on
// every run.
type planSite struct {
	nominal, burst float64
	shares         []facilityShare
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

// compile derives the serving plan from the model's maps.
func (m *Model) compile() plan {
	var p plan
	poolOf := make(map[traffic.HG]map[inet.ASN]int, len(traffic.All))
	for _, hg := range traffic.All {
		poolOf[hg] = make(map[inet.ASN]int, len(m.Upstream[hg]))
		for _, as := range inet.SortedASNs(m.Upstream[hg]) {
			poolOf[hg][as] = len(p.pools)
			p.pools = append(p.pools, compileSite(m.Upstream[hg][as]))
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

// serve runs one serving pass over the plan: each flow fills its offnet up
// to the regime's capacity, then its PNI, then its IXP port, then drains
// its providers' upstream pools greedily in flow order; what is left
// travels transit. It allocates the returned flows and the pool balances.
func (m *Model) serve(mult float64, scale map[traffic.HG]float64, failedFacilities map[inet.FacilityID]bool, burst bool) []Flow {
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
		// Offnets can serve at most the cacheable share of demand.
		offnet := math.Min(demand*pf.offnetFrac, pf.available(burst, failedFacilities))
		rest := demand - offnet
		pni := math.Min(rest, pf.pni)
		rest -= pni
		ixp := math.Min(rest, pf.ixp)
		rest -= ixp
		// Remaining spill heads to the ISP's providers; offnets hosted
		// there absorb what their pools allow.
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
	mFlowsServed.Add(int64(len(flows)))
	return flows
}
