package cascade

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

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

func (s hgSet) count() int { return bits.OnesCount8(uint8(s)) }

// list returns the set's hypergiants in traffic.All order, nil when empty.
func (s hgSet) list() []traffic.HG {
	var out []traffic.HG
	for _, hg := range traffic.All {
		if s.has(hg) {
			out = append(out, hg)
		}
	}
	return out
}

// Baseline is the no-failure serving state of one model at one demand
// multiplier, with everything assessing a scenario against it needs: the
// flows, the dense link index of the model's flows, and the per-exchange
// and per-transit loads in total and per hypergiant. A sweep builds one
// before it fans out and shares it read-only across workers, so each
// scenario costs one burst serve and one pass of the scenario kernel.
type Baseline struct {
	m    *capacity.Model
	d    *hypergiant.Deployment
	mult float64
	// Flows is the no-failure serving split; read-only.
	Flows []capacity.Flow

	idx *linkIndex
	// The no-failure loads, indexed like idx.ixps and idx.transits.
	ixp, transit     []float64
	ixpHG, transitHG []hgLoads
}

// linkIndex numbers the exchanges, transit providers and ISPs a model's
// flows reach, so a scenario accumulates into slices rather than maps. It
// is compiled once per model and deployment, from the flows in serving
// order, and shared read-only by every baseline At derives and by every
// worker.
type linkIndex struct {
	// Per flow, in serving order: the flow's exchange, or -1 when the
	// flow has none in the world's IXPs (such load reaches no link), its
	// ISP, and its ISP's providers as transit links, in provider order
	// (a repeated provider repeats): provs[provStart[i]:provStart[i+1]].
	flowIXP   []int32
	flowISP   []int32
	provStart []int32
	provs     []int32

	// ixps is every exchange of the world, ascending, with its fabric
	// capacity; transits every provider of a flow's ISP, ascending; isps
	// every ISP of the world, ascending, with its users.
	ixps     []inet.IXPID
	fabric   []float64
	transits []inet.ASN
	isps     []inet.ASN
	users    []float64

	// facHGs holds, for each facility hosting offnets, the hypergiants
	// with servers there.
	facHGs map[inet.FacilityID]hgSet
}

func newLinkIndex(m *capacity.Model, d *hypergiant.Deployment, flows []capacity.Flow, facHGs map[inet.FacilityID]hgSet) *linkIndex {
	w := d.World
	idx := &linkIndex{facHGs: facHGs}

	for id := range w.IXPs {
		idx.ixps = append(idx.ixps, id)
	}
	slices.Sort(idx.ixps)
	ixpOf := make(map[inet.IXPID]int32, len(idx.ixps))
	for i, id := range idx.ixps {
		ixpOf[id] = int32(i)
		idx.fabric = append(idx.fabric, w.IXPs[id].CapacityGbps)
	}

	idx.isps = inet.SortedASNs(w.ISPs)
	ispOf := make(map[inet.ASN]int32, len(idx.isps))
	for i, as := range idx.isps {
		ispOf[as] = int32(i)
		idx.users = append(idx.users, w.ISPs[as].Users)
	}

	provSet := make(map[inet.ASN]bool)
	for _, f := range flows {
		for _, prov := range w.ISPs[f.ISP].Providers {
			provSet[prov] = true
		}
	}
	idx.transits = inet.SortedASNs(provSet)
	transitOf := make(map[inet.ASN]int32, len(idx.transits))
	for i, as := range idx.transits {
		transitOf[as] = int32(i)
	}

	// Every flow's ISP is a world ISP: capacity.Build reads each hosting
	// ISP's tier from the world.
	for _, f := range flows {
		x := int32(-1)
		if id, ok := m.IXPIDOf[f.HG][f.ISP]; ok {
			if i, ok := ixpOf[id]; ok {
				x = i
			}
		}
		idx.flowIXP = append(idx.flowIXP, x)
		idx.flowISP = append(idx.flowISP, ispOf[f.ISP])
		idx.provStart = append(idx.provStart, int32(len(idx.provs)))
		for _, prov := range w.ISPs[f.ISP].Providers {
			idx.provs = append(idx.provs, transitOf[prov])
		}
	}
	idx.provStart = append(idx.provStart, int32(len(idx.provs)))
	return idx
}

// providers returns flow i's transit links.
func (idx *linkIndex) providers(i int) []int32 {
	return idx.provs[idx.provStart[i]:idx.provStart[i+1]]
}

// isp returns the dense index of a world ISP.
func (idx *linkIndex) isp(as inet.ASN) (int, bool) {
	return slices.BinarySearch(idx.isps, as)
}

// NewBaseline serves m at the demand multiplier (<= 0 means peak, 1.0) with
// nothing failed, compiles its link index and precomputes the baseline
// link loads and the deployment's facility index.
func NewBaseline(m *capacity.Model, d *hypergiant.Deployment, mult float64) *Baseline {
	return newBaseline(m, d, mult, hgsByFacility(d))
}

// At returns the baseline of the same model and deployment at another
// demand multiplier, sharing b's link and facility index.
func (b *Baseline) At(mult float64) *Baseline {
	a := &Baseline{m: b.m, d: b.d, idx: b.idx}
	a.serve(mult)
	a.sumLoads()
	return a
}

func newBaseline(m *capacity.Model, d *hypergiant.Deployment, mult float64, facHGs map[inet.FacilityID]hgSet) *Baseline {
	b := &Baseline{m: m, d: d}
	b.serve(mult)
	b.idx = newLinkIndex(m, d, b.Flows, facHGs)
	b.sumLoads()
	return b
}

// serve sets the baseline's multiplier (<= 0 means peak) and serves its
// flows.
func (b *Baseline) serve(mult float64) {
	if mult <= 0 {
		mult = 1.0
	}
	b.mult = mult
	b.Flows = b.m.Serve(mult, nil, nil)
}

// sumLoads sums the baseline's link loads, in total and per hypergiant,
// through the scenario kernel's own accumulation.
func (b *Baseline) sumLoads() {
	var s Scratch
	s.size(b.idx)
	s.sumLoads(b.idx, b.Flows, true)
	b.ixp, b.transit = s.ixp.load, s.transit.load
	b.ixpHG, b.transitHG = s.ixp.hg, s.transit.hg
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
	out := make([]inet.FacilityID, 0, len(b.idx.facHGs))
	for id := range b.idx.facHGs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Scratch is one goroutine's memory for running scenarios against
// baselines: the served flows, each shared link's load, capacity and
// congestion, and each ISP's marks. A run overwrites everything it reads,
// so no outcome depends on what the scratch ran before; nothing a run
// returns refers into it, and no two goroutines share one. The zero
// Scratch is ready to use, and it resizes itself to each baseline's link
// index.
type Scratch struct {
	serve        capacity.Buffers
	ixp, transit links
	// isps holds the ispDirect, ispCollateral and ispIsolated marks per
	// dense ISP.
	isps []uint8
	// owners lists the owners of the failed facilities found in the
	// world, with repeats, whether or not they are world ISPs.
	owners []inet.ASN

	hit, offend     hgSet
	congested       bool
	collateral, iso int
}

// links is the state of one kind of shared link, indexed densely.
type links struct {
	load []float64
	hg   []hgLoads
	cap  []float64
	// seen marks links some flow put load on; congested those at or past
	// capacity; offenders the hypergiants over their slice of a congested
	// link.
	seen, congested []bool
	offenders       []hgSet
	// util is each link's utilization as the Report lists it; only
	// AssessInto fills it.
	util []float64
}

const (
	ispDirect uint8 = 1 << iota
	ispCollateral
	ispIsolated
)

func (l *links) size(n int) {
	if len(l.load) == n {
		return
	}
	l.load = make([]float64, n)
	l.hg = make([]hgLoads, n)
	l.cap = make([]float64, n)
	l.seen = make([]bool, n)
	l.congested = make([]bool, n)
	l.offenders = make([]hgSet, n)
	l.util = make([]float64, n)
}

func (l *links) reset() {
	clear(l.load)
	clear(l.hg)
	clear(l.seen)
	clear(l.congested)
	clear(l.offenders)
}

// count returns how many links some flow put load on.
func (l *links) count() int {
	n := 0
	for _, seen := range l.seen {
		if seen {
			n++
		}
	}
	return n
}

// add puts one flow's load on link i, in flow order.
func (l *links) add(i int32, hg traffic.HG, load float64, perHG bool) {
	l.load[i] += load
	l.seen[i] = true
	if perHG {
		l.hg[i][hg] += load
	}
}

// size fits the scratch to a link index and clears it.
func (s *Scratch) size(idx *linkIndex) {
	s.ixp.size(len(idx.ixps))
	s.transit.size(len(idx.transits))
	s.ixp.reset()
	s.transit.reset()
	if len(s.isps) != len(idx.isps) {
		s.isps = make([]uint8, len(idx.isps))
	}
	clear(s.isps)
	s.owners = s.owners[:0]
	s.hit, s.offend, s.congested, s.collateral, s.iso = 0, 0, false, 0, 0
}

// sumLoads puts the flows' exchange and transit-bound traffic on their
// links, in flow order: a flow's transit share splits evenly over its ISP's
// providers, by division. A load is skipped when it is <= 0, so a NaN
// load still reaches its links, as it did in the map-based sums.
func (s *Scratch) sumLoads(idx *linkIndex, flows []capacity.Flow, perHG bool) {
	for i := range flows {
		f := &flows[i]
		if x := idx.flowIXP[i]; x >= 0 && !(f.IXP <= 0) {
			s.ixp.add(x, f.HG, f.IXP, perHG)
		}
		if load := f.Transit + f.UpstreamOffnet; !(load <= 0) {
			if ps := idx.providers(i); len(ps) > 0 {
				per := load / float64(len(ps))
				for _, t := range ps {
					s.transit.add(t, f.HG, per, perHG)
				}
			}
		}
	}
}

// run is the scenario kernel: it assesses sc, already sanitized, over
// flows in the baseline's serving order into s — link loads, capacities
// sized from baseline×headroom, congestion, the hypergiants hit and the
// direct and collateral ISP marks, plus, when isolated, the offenders of
// every congested link and the isolated collateral marks.
func (b *Baseline) run(s *Scratch, sc Scenario, flows []capacity.Flow, isolated bool) {
	idx, w := b.idx, b.d.World
	s.size(idx)

	// Direct impact: ISPs owning a listed facility, even one mapped to
	// false, and hypergiants with servers in a failed one.
	for fid, failed := range sc.FailFacilities {
		if f, ok := w.Facilities[fid]; ok {
			s.owners = append(s.owners, f.Owner)
			if i, ok := idx.isp(f.Owner); ok {
				s.isps[i] |= ispDirect
			}
		}
		if failed {
			s.hit |= idx.facHGs[fid]
		}
	}

	s.sumLoads(idx, flows, isolated)

	// Exchanges are provisioned for their normal peak, not for failover
	// surges; one with no baseline load has its fabric's own capacity. A
	// provider with no baseline load gets a 10 Gbps floor.
	for x := range s.ixp.load {
		c := b.ixp[x] * sc.SharedHeadroom
		if c <= 0 {
			c = idx.fabric[x]
		}
		s.ixp.cap[x] = c
	}
	for t := range s.transit.load {
		c := b.transit[t] * sc.SharedHeadroom
		if c <= 0 {
			c = 10
		}
		s.transit.cap[t] = c
	}
	s.congest(&s.ixp, b.ixpHG, isolated)
	s.congest(&s.transit, b.transitHG, isolated)

	// Collateral: ISPs that did not fail but whose serving path crosses a
	// congested shared link — via their IXP peering or any of their
	// transit providers. Under isolation, only flows of a hypergiant that
	// offends on that link count; offenders need a congested link.
	if !s.congested {
		return
	}
	for i := range flows {
		f := &flows[i]
		mark := &s.isps[idx.flowISP[i]]
		if *mark&ispDirect != 0 {
			continue
		}
		var hit, isoHit bool
		if x := idx.flowIXP[i]; f.IXP > 0 && x >= 0 {
			hit = s.ixp.congested[x]
			isoHit = s.ixp.offenders[x].has(f.HG)
		}
		if f.Transit+f.UpstreamOffnet > 0 {
			for _, t := range idx.providers(i) {
				hit = hit || s.transit.congested[t]
				isoHit = isoHit || s.transit.offenders[t].has(f.HG)
			}
		}
		if hit && *mark&ispCollateral == 0 {
			*mark |= ispCollateral
			s.collateral++
		}
		if isoHit && *mark&ispIsolated == 0 {
			*mark |= ispIsolated
			s.iso++
		}
	}
}

// congest flags the links at or past capacity and, when isolated, finds
// each one's offenders: isolation is work-conserving, so a hypergiant only
// offends when the link is congested and its own load exceeds its slice
// (its baseline share of the capacity).
func (s *Scratch) congest(l *links, base []hgLoads, isolated bool) {
	for i, load := range l.load {
		if !(load > 0 && load >= l.cap[i]) {
			continue
		}
		l.congested[i] = true
		s.congested = true
		if isolated {
			l.offenders[i] = offenders(&l.hg[i], slicesOf(&base[i], l.cap[i]))
			s.offend |= l.offenders[i]
		}
	}
}

// users sums users in the directly and the collaterally affected ISPs,
// each in ascending-ASN order, as inet.World.UsersInISPs does.
func (s *Scratch) users(idx *linkIndex) (direct, collateral float64) {
	for i, mark := range s.isps {
		if mark&ispDirect != 0 {
			direct += idx.users[i]
		}
		if mark&ispCollateral != 0 {
			collateral += idx.users[i]
		}
	}
	return direct, collateral
}

// checkFlows panics unless flows are in the baseline's serving order, the
// order its link index was compiled for. Flows served by the baseline's
// model or by a capacity.Model.WithCuts of it always are, so a mismatch is
// a caller bug.
func (b *Baseline) checkFlows(flows []capacity.Flow) {
	if len(flows) > 0 && len(flows) == len(b.Flows) && &flows[0] == &b.Flows[0] {
		return // the baseline's own flows, as in a steady engine step
	}
	if len(flows) != len(b.Flows) {
		panic(fmt.Sprintf("cascade: %d flows assessed against a baseline of %d", len(flows), len(b.Flows)))
	}
	for i := range flows {
		if flows[i].HG != b.Flows[i].HG || flows[i].ISP != b.Flows[i].ISP {
			panic(fmt.Sprintf("cascade: flow %d is %s/AS%d, the baseline's is %s/AS%d",
				i, flows[i].HG, flows[i].ISP, b.Flows[i].HG, b.Flows[i].ISP))
		}
	}
}

// Simulate runs the scenario against the baseline: the scenario's demand,
// at the baseline's multiplier, is served with surviving offnets pushed to
// burst (the failure/surge regime), then assessed.
func (b *Baseline) Simulate(sc Scenario) *Report {
	return b.Assess(sc, b.m.ServeBurst(b.mult, sc.Surge, sc.FailFacilities))
}

// Assess derives the full congestion report of serving splits the caller
// already computed from the baseline's model or a cut of it: shared-link
// loads, capacities sized from baseline×headroom, and the direct and
// collateral ISP sets. The scenario runs at the baseline's multiplier,
// whatever its DemandMult says. b.Simulate(sc) is exactly
// b.Assess(sc, m.ServeBurst(...)), its production caller; the temporal
// engine reads the same kernel pass through AssessInto. Assess panics when
// flows are not in the baseline's serving order.
func (b *Baseline) Assess(sc Scenario, flows []capacity.Flow) *Report {
	mScenariosSimulated.Inc()
	sc = sc.sanitized()
	sc.DemandMult = b.mult
	b.checkFlows(flows)
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	b.run(s, sc, flows, false)

	idx, w := b.idx, b.d.World
	rep := &Report{
		Scenario:       sc,
		Baseline:       b.Flows,
		Flows:          flows,
		IXPLoad:        make(map[inet.IXPID]LinkLoad),
		TransitLoad:    make(map[inet.ASN]LinkLoad, s.transit.count()),
		DirectISPs:     make(map[inet.ASN]bool),
		CollateralISPs: make(map[inet.ASN]bool, s.collateral),
		HGsImpacted:    s.hit.list(),
	}
	for fid := range sc.FailFacilities {
		if f, ok := w.Facilities[fid]; ok {
			rep.DirectISPs[f.Owner] = true
		}
	}
	for x, id := range idx.ixps {
		if l, ok := b.ixpLink(s, x); ok {
			rep.IXPLoad[id] = l
		}
	}
	for t, as := range idx.transits {
		if l, ok := s.transitLink(t); ok {
			rep.TransitLoad[as] = l
		}
	}
	for i, mark := range s.isps {
		if mark&ispCollateral != 0 {
			rep.CollateralISPs[idx.isps[i]] = true
		}
	}
	return rep
}

// ixpLink is exchange x's load after the scratch's run, and whether the
// report lists it: every exchange a flow loaded or the baseline loads.
func (b *Baseline) ixpLink(s *Scratch, x int) (LinkLoad, bool) {
	if !s.ixp.seen[x] && !(b.ixp[x] > 0) {
		return LinkLoad{}, false
	}
	return LinkLoad{LoadGbps: s.ixp.load[x], CapacityGbps: s.ixp.cap[x]}, true
}

// transitLink is provider t's load after the scratch's run, and whether
// the report lists it: every provider a flow's load reached.
func (s *Scratch) transitLink(t int) (LinkLoad, bool) {
	if !s.transit.seen[t] {
		return LinkLoad{}, false
	}
	return LinkLoad{LoadGbps: s.transit.load[t], CapacityGbps: s.transit.cap[t]}, true
}

// scratchPool lends Assess and AssessIsolated a scratch for the length of
// one call; the report they build copies what it keeps out of it.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Tally is what a sweep or the temporal engine reads from one scenario:
// the counts and sums of the Report that Simulate or Assess would build,
// and of the IsolatedReport.
type Tally struct {
	// Congested reports whether any shared link is at or past capacity.
	Congested bool
	// HGsImpacted is len(Report.HGsImpacted); CollateralISPs is
	// len(Report.CollateralISPs).
	HGsImpacted, CollateralISPs int
	// DirectUsers and CollateralUsers are the Report's user sums.
	DirectUsers, CollateralUsers float64
	// DirectISPs is len(Report.DirectISPs): the distinct owners of the
	// listed facilities found in the world, world ISPs or not.
	DirectISPs int
	// CongestedIXPs and CongestedTransits are the lengths of the Report's
	// CongestedIXPs() and CongestedTransits().
	CongestedIXPs, CongestedTransits int
	// OverloadGbps sums load minus capacity over the congested exchanges,
	// ascending, then the congested providers, ascending.
	OverloadGbps float64
	// IsolatedCollateralISPs is len(IsolatedReport.IsolatedCollateralISPs)
	// after an isolated run, and 0 otherwise.
	IsolatedCollateralISPs int
}

// Tally runs the scenario as Simulate does, through s, and returns its
// counts without building the report: once s is warm it allocates
// nothing.
func (b *Baseline) Tally(s *Scratch, sc Scenario) Tally {
	b.simulateInto(s, sc, false)
	return b.tally(s)
}

// tally reads the counts of the scratch's run against the baseline.
func (b *Baseline) tally(s *Scratch) Tally {
	t := Tally{
		Congested:              s.congested,
		HGsImpacted:            s.hit.count(),
		CollateralISPs:         s.collateral,
		IsolatedCollateralISPs: s.iso,
	}
	t.DirectUsers, t.CollateralUsers = s.users(b.idx)
	slices.Sort(s.owners)
	t.DirectISPs = len(slices.Compact(s.owners))
	for x, congested := range s.ixp.congested {
		if congested {
			t.CongestedIXPs++
			t.OverloadGbps += s.ixp.load[x] - s.ixp.cap[x]
		}
	}
	for i, congested := range s.transit.congested {
		if congested {
			t.CongestedTransits++
			t.OverloadGbps += s.transit.load[i] - s.transit.cap[i]
		}
	}
	return t
}

// simulateInto serves the scenario into s as Simulate does and runs the
// kernel over the flows.
func (b *Baseline) simulateInto(s *Scratch, sc Scenario, isolated bool) {
	mScenariosSimulated.Inc()
	flows := b.m.ServeInto(&s.serve, b.mult, sc.Surge, sc.FailFacilities, true)
	b.run(s, sc.sanitized(), flows, isolated)
}

// LinkView is the shared links after a kernel run, each kind in the link
// index's ascending order: every exchange of the world by ID and every
// provider a flow's ISP has by ASN. Utilization is the LinkLoad the
// Report lists, through LinkLoad.Utilization, and 0 for a link the Report
// does not list, as a map miss gives. A view AssessInto returns aliases
// its scratch: it is read-only and holds until the scratch runs again.
type LinkView struct {
	IXPs                               []inet.IXPID
	Transits                           []inet.ASN
	IXPCongested, TransitCongested     []bool
	IXPUtilization, TransitUtilization []float64
}

// AssessInto is Assess through the caller's scratch, without the report:
// it returns the report's counts and its shared links. With isolated the
// same pass is also AssessIsolated's, so the tally adds the isolated
// collateral count while the loads, congested links and collateral count
// stay Assess's. As in Assess, the flows are the caller's, served from the
// baseline's model or a WithCuts model of it, the scenario runs at the
// baseline's multiplier, and flows out of the baseline's serving order
// panic. Once s is warm it allocates nothing.
func (b *Baseline) AssessInto(s *Scratch, sc Scenario, flows []capacity.Flow, isolated bool) (Tally, LinkView) {
	mScenariosSimulated.Inc()
	sc = sc.sanitized()
	sc.DemandMult = b.mult
	b.checkFlows(flows)
	b.run(s, sc, flows, isolated)
	for x := range s.ixp.util {
		l, _ := b.ixpLink(s, x)
		s.ixp.util[x] = l.Utilization()
	}
	for t := range s.transit.util {
		l, _ := s.transitLink(t)
		s.transit.util[t] = l.Utilization()
	}
	return b.tally(s), LinkView{
		IXPs:               b.idx.ixps,
		Transits:           b.idx.transits,
		IXPCongested:       s.ixp.congested,
		TransitCongested:   s.transit.congested,
		IXPUtilization:     s.ixp.util,
		TransitUtilization: s.transit.util,
	}
}
