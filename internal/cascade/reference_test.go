package cascade

// The scenario kernel's oracle: Baseline, Assess and AssessIsolated as they
// were before the dense link index, verbatim but for the receiver's name.
// Link loads are maps built per scenario, every flow looks its exchange
// and providers up in the model's and the world's maps, and the congested
// sets come from the report's sorted lists.

import (
	"sort"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/traffic"
)

// SimulateIsolated runs the scenario twice over the same flows: once with
// the plain shared-fate model (the Report) and once with per-hypergiant
// capacity slices on every shared link. It is the one-shot isolation
// oracle of the sweep tests.
func SimulateIsolated(m *capacity.Model, d *hypergiant.Deployment, sc Scenario) *IsolatedReport {
	sc = sc.sanitized()
	b := NewBaseline(m, d, sc.DemandMult)
	return b.AssessIsolated(b.Simulate(sc))
}

// referenceBaseline is Baseline with its loads in maps keyed by exchange
// and provider.
type referenceBaseline struct {
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

// newReferenceBaseline is newBaseline as it was.
func newReferenceBaseline(m *capacity.Model, d *hypergiant.Deployment, mult float64, facHGs map[inet.FacilityID]hgSet) *referenceBaseline {
	if mult <= 0 {
		mult = 1.0
	}
	flows := m.Serve(mult, nil, nil)
	return &referenceBaseline{
		m: m, d: d, mult: mult, Flows: flows,
		ixp:       ixpLoads(m, flows),
		transit:   transitLoads(d.World, flows),
		ixpHG:     ixpLoadsByHG(m, flows),
		transitHG: transitLoadsByHG(d.World, flows),
		facHGs:    facHGs,
	}
}

// Simulate runs the scenario against the baseline: the scenario's demand,
// at the baseline's multiplier, is served with surviving offnets pushed to
// burst (the failure/surge regime), then assessed.
func (b *referenceBaseline) Simulate(sc Scenario) *Report {
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
func (b *referenceBaseline) Assess(sc Scenario, flows []capacity.Flow) *Report {
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

// AssessIsolated re-evaluates a report the baseline assessed under
// per-hypergiant capacity slices without re-serving the flows, so the
// temporal engine can toggle isolation mid-trajectory over the step it
// already assessed.
func (b *referenceBaseline) AssessIsolated(rep *Report) *IsolatedReport {
	out := &IsolatedReport{
		Report:                 rep,
		IsolatedCollateralISPs: make(map[inet.ASN]bool),
	}
	w := b.d.World

	// Per-(link, hypergiant) scenario loads; the baseline's are precomputed.
	ixpHG := ixpLoadsByHG(b.m, rep.Flows)
	trHG := transitLoadsByHG(w, rep.Flows)

	// Isolation is work-conserving: unused capacity is shareable, so a
	// hypergiant only offends when the link is actually congested AND its
	// own load exceeds its slice (baseline share × link capacity).
	var offend hgSet
	ixpOffenders := make(map[inet.IXPID]hgSet)
	for id, l := range rep.IXPLoad {
		if !l.Congested() {
			continue
		}
		if o := offenders(ixpHG[id], slicesOf(b.ixpHG[id], l.CapacityGbps)); o != 0 {
			offend |= o
			ixpOffenders[id] = o
		}
	}
	trOffenders := make(map[inet.ASN]hgSet)
	for as, l := range rep.TransitLoad {
		if !l.Congested() {
			continue
		}
		if o := offenders(trHG[as], slicesOf(b.transitHG[as], l.CapacityGbps)); o != 0 {
			offend |= o
			trOffenders[as] = o
		}
	}
	for _, hg := range traffic.All {
		if offend.has(hg) {
			out.OffendingHGs = append(out.OffendingHGs, hg)
		}
	}

	// Collateral under isolation: only flows of an offending hypergiant on
	// the link where it offends.
	for _, f := range rep.Flows {
		if rep.DirectISPs[f.ISP] {
			continue
		}
		if f.IXP > 0 {
			if id, ok := b.m.IXPIDOf[f.HG][f.ISP]; ok && ixpOffenders[id].has(f.HG) {
				out.IsolatedCollateralISPs[f.ISP] = true
			}
		}
		if f.Transit+f.UpstreamOffnet > 0 {
			if isp, ok := w.ISPs[f.ISP]; ok {
				for _, prov := range isp.Providers {
					if trOffenders[prov].has(f.HG) {
						out.IsolatedCollateralISPs[f.ISP] = true
					}
				}
			}
		}
	}
	return out
}

// ixpLinks sizes each exchange from its baseline load and loads it with the
// flows. Capacity is baseline×headroom — exchanges are provisioned for
// their normal peak, not for failover surges — or, for an exchange with no
// baseline hypergiant load, the fabric's own capacity.
func (b *referenceBaseline) ixpLinks(flows []capacity.Flow, headroom float64) map[inet.IXPID]LinkLoad {
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
func (b *referenceBaseline) transitLinks(flows []capacity.Flow, headroom float64) map[inet.ASN]LinkLoad {
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

// referenceTopFacility is TopFacility as it was, with a hypergiant map per
// facility.
func referenceTopFacility(d *hypergiant.Deployment, as inet.ASN) (inet.FacilityID, int) {
	type acc struct {
		hgs     map[traffic.HG]bool
		servers int
	}
	per := make(map[inet.FacilityID]*acc)
	for _, s := range d.ServersIn(as) {
		a := per[s.Facility]
		if a == nil {
			a = &acc{hgs: make(map[traffic.HG]bool)}
			per[s.Facility] = a
		}
		a.hgs[s.HG] = true
		a.servers++
	}
	var best inet.FacilityID
	bestHGs, bestServers := -1, -1
	ids := make([]inet.FacilityID, 0, len(per))
	for id := range per {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a := per[id]
		if len(a.hgs) > bestHGs || (len(a.hgs) == bestHGs && a.servers > bestServers) {
			best, bestHGs, bestServers = id, len(a.hgs), a.servers
		}
	}
	return best, bestHGs
}
