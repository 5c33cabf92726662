package cascade

import (
	"sort"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/traffic"
)

// hgLoads is one shared link's load per hypergiant, indexed by traffic.HG.
type hgLoads [traffic.NumHG]float64

// hgSet is a set of hypergiants, one bit per traffic.HG.
type hgSet uint8

func (s hgSet) has(hg traffic.HG) bool { return s&(1<<hg) != 0 }

// Baseline is the no-failure serving state of one model at one demand
// multiplier, with everything assessing a scenario against it needs: the
// flows, their per-exchange and per-transit loads in total and per
// hypergiant, and which hypergiants have servers in each facility. A sweep
// builds one before it fans out and shares it read-only across workers, so
// each scenario costs one burst serve and one Assess.
type Baseline struct {
	m    *capacity.Model
	d    *hypergiant.Deployment
	mult float64
	// Flows is the no-failure serving split; read-only.
	Flows []capacity.Flow

	ixp       map[inet.IXPID]float64
	transit   map[inet.ASN]float64
	ixpHG     map[inet.IXPID]*hgLoads
	transitHG map[inet.ASN]*hgLoads
	// facHGs holds, for each facility hosting offnets, the hypergiants
	// with servers there.
	facHGs map[inet.FacilityID]hgSet
}

// NewBaseline serves m at the demand multiplier (<= 0 means peak, 1.0) with
// nothing failed and precomputes the baseline link loads and the
// deployment's facility index.
func NewBaseline(m *capacity.Model, d *hypergiant.Deployment, mult float64) *Baseline {
	return newBaseline(m, d, mult, hgsByFacility(d))
}

// At returns the baseline of the same model and deployment at another
// demand multiplier, sharing b's facility index.
func (b *Baseline) At(mult float64) *Baseline { return newBaseline(b.m, b.d, mult, b.facHGs) }

func newBaseline(m *capacity.Model, d *hypergiant.Deployment, mult float64, facHGs map[inet.FacilityID]hgSet) *Baseline {
	if mult <= 0 {
		mult = 1.0
	}
	flows := m.Serve(mult, nil, nil)
	return &Baseline{
		m: m, d: d, mult: mult, Flows: flows,
		ixp:       ixpLoads(m, flows),
		transit:   transitLoads(d.World, flows),
		ixpHG:     ixpLoadsByHG(m, flows),
		transitHG: transitLoadsByHG(d.World, flows),
		facHGs:    facHGs,
	}
}

func hgsByFacility(d *hypergiant.Deployment) map[inet.FacilityID]hgSet {
	out := make(map[inet.FacilityID]hgSet)
	for _, s := range d.Servers {
		out[s.Facility] |= 1 << s.HG
	}
	return out
}

// facilities lists the facilities hosting offnets, ascending.
func (b *Baseline) facilities() []inet.FacilityID {
	out := make([]inet.FacilityID, 0, len(b.facHGs))
	for id := range b.facHGs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Simulate runs the scenario against the baseline: the scenario's demand,
// at the baseline's multiplier, is served with surviving offnets pushed to
// burst (the failure/surge regime), then assessed.
func (b *Baseline) Simulate(sc Scenario) *Report {
	return b.Assess(sc, b.m.ServeBurst(b.mult, sc.Surge, sc.FailFacilities))
}

// Assess derives the full congestion report of serving splits the caller
// already computed from the baseline's model or a cut of it (the temporal
// engine serves once per clock step and hands the result here): shared-link
// loads, capacities sized from baseline×headroom, and the direct and
// collateral ISP sets. The scenario runs at the baseline's multiplier,
// whatever its DemandMult says. b.Simulate(sc) is exactly
// b.Assess(sc, m.ServeBurst(...)), so engine trajectories and closed-form
// sweeps agree bit-for-bit by construction.
func (b *Baseline) Assess(sc Scenario, flows []capacity.Flow) *Report {
	mScenariosSimulated.Inc()
	sc = sc.sanitized()
	sc.DemandMult = b.mult
	w := b.d.World
	rep := &Report{
		Scenario:       sc,
		Baseline:       b.Flows,
		Flows:          flows,
		DirectISPs:     make(map[inet.ASN]bool),
		CollateralISPs: make(map[inet.ASN]bool),
	}

	// Direct impact: ISPs owning a failed facility, and hypergiants with
	// servers there.
	var hit hgSet
	for fid, failed := range sc.FailFacilities {
		if f, ok := w.Facilities[fid]; ok {
			rep.DirectISPs[f.Owner] = true
		}
		if failed {
			hit |= b.facHGs[fid]
		}
	}
	for _, hg := range traffic.All {
		if hit.has(hg) {
			rep.HGsImpacted = append(rep.HGsImpacted, hg)
		}
	}

	rep.IXPLoad = b.ixpLinks(flows, sc.SharedHeadroom)
	rep.TransitLoad = b.transitLinks(flows, sc.SharedHeadroom)

	// Collateral: ISPs that did not fail but whose serving path crosses a
	// congested shared resource — via their IXP peering or any of their
	// transit providers.
	congIXP := make(map[inet.IXPID]bool)
	for _, id := range rep.CongestedIXPs() {
		congIXP[id] = true
	}
	congTr := make(map[inet.ASN]bool)
	for _, as := range rep.CongestedTransits() {
		congTr[as] = true
	}
	for _, f := range rep.Flows {
		if rep.DirectISPs[f.ISP] {
			continue
		}
		if f.IXP > 0 {
			if id, ok := b.m.IXPIDOf[f.HG][f.ISP]; ok && congIXP[id] {
				rep.CollateralISPs[f.ISP] = true
			}
		}
		if f.Transit+f.UpstreamOffnet > 0 {
			if isp, ok := w.ISPs[f.ISP]; ok {
				for _, prov := range isp.Providers {
					if congTr[prov] {
						rep.CollateralISPs[f.ISP] = true
					}
				}
			}
		}
	}
	return rep
}

// ixpLinks sizes each exchange from its baseline load and loads it with the
// flows. Capacity is baseline×headroom — exchanges are provisioned for
// their normal peak, not for failover surges — or, for an exchange with no
// baseline hypergiant load, the fabric's own capacity.
func (b *Baseline) ixpLinks(flows []capacity.Flow, headroom float64) map[inet.IXPID]LinkLoad {
	out := make(map[inet.IXPID]LinkLoad)
	load := ixpLoads(b.m, flows)
	for id, x := range b.d.World.IXPs {
		base := b.ixp[id]
		cap := base * headroom
		if cap <= 0 {
			cap = x.CapacityGbps
		}
		if l, ok := load[id]; ok || base > 0 {
			out[id] = LinkLoad{LoadGbps: l, CapacityGbps: cap}
		}
	}
	return out
}

// transitLinks loads each transit provider the flows reach, sized from its
// baseline load times headroom.
func (b *Baseline) transitLinks(flows []capacity.Flow, headroom float64) map[inet.ASN]LinkLoad {
	load := transitLoads(b.d.World, flows)
	out := make(map[inet.ASN]LinkLoad, len(load))
	for as, l := range load {
		cap := b.transit[as] * headroom
		if cap <= 0 {
			// A provider with no baseline hypergiant load still has some
			// capacity; size it from its customers' baseline interdomain
			// traffic floor.
			cap = 10
		}
		out[as] = LinkLoad{LoadGbps: l, CapacityGbps: cap}
	}
	return out
}

// ixpLoads sums the flows' exchange traffic per exchange, in flow order.
func ixpLoads(m *capacity.Model, flows []capacity.Flow) map[inet.IXPID]float64 {
	out := make(map[inet.IXPID]float64)
	for _, f := range flows {
		if f.IXP <= 0 {
			continue
		}
		if id, ok := m.IXPIDOf[f.HG][f.ISP]; ok {
			out[id] += f.IXP
		}
	}
	return out
}

// transitLoads sums the flows' transit-bound traffic per provider, in flow
// order: each flow's share splits evenly over its ISP's providers.
func transitLoads(w *inet.World, flows []capacity.Flow) map[inet.ASN]float64 {
	out := make(map[inet.ASN]float64)
	for _, f := range flows {
		load := f.Transit + f.UpstreamOffnet
		if load <= 0 {
			continue
		}
		isp, ok := w.ISPs[f.ISP]
		if !ok || len(isp.Providers) == 0 {
			continue
		}
		per := load / float64(len(isp.Providers))
		for _, prov := range isp.Providers {
			out[prov] += per
		}
	}
	return out
}

// ixpLoadsByHG is ixpLoads per hypergiant.
func ixpLoadsByHG(m *capacity.Model, flows []capacity.Flow) map[inet.IXPID]*hgLoads {
	out := make(map[inet.IXPID]*hgLoads)
	for _, f := range flows {
		if f.IXP <= 0 {
			continue
		}
		id, ok := m.IXPIDOf[f.HG][f.ISP]
		if !ok {
			continue
		}
		if out[id] == nil {
			out[id] = new(hgLoads)
		}
		out[id][f.HG] += f.IXP
	}
	return out
}

// transitLoadsByHG is transitLoads per hypergiant.
func transitLoadsByHG(w *inet.World, flows []capacity.Flow) map[inet.ASN]*hgLoads {
	out := make(map[inet.ASN]*hgLoads)
	for _, f := range flows {
		load := f.Transit + f.UpstreamOffnet
		if load <= 0 {
			continue
		}
		isp, ok := w.ISPs[f.ISP]
		if !ok || len(isp.Providers) == 0 {
			continue
		}
		per := load / float64(len(isp.Providers))
		for _, prov := range isp.Providers {
			if out[prov] == nil {
				out[prov] = new(hgLoads)
			}
			out[prov][f.HG] += per
		}
	}
	return out
}
