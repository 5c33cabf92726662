// Package inet builds the synthetic Internet all experiments run against:
// countries with Internet-user populations, access and transit ISPs (ASes),
// colocation facilities in metros, IXPs with shared fabrics, a valley-free
// transit hierarchy, and IPv4 address assignments.
//
// It substitutes for the gated datasets the paper measures over (the routed
// IPv4 space Censys scans, the APNIC per-ISP user populations, PeeringDB /
// Euro-IX registries) while preserving the structural properties those
// pipelines depend on: ISPs announce prefixes, host facilities near their
// interconnection points, join IXPs, and buy transit from providers.
package inet

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"offnetrisk/internal/geo"
	"offnetrisk/internal/netaddr"
)

// ASN identifies an autonomous system.
type ASN uint32

// Tier classifies an AS's role in the transit hierarchy.
type Tier int

// Tiers, from the top of the hierarchy down.
const (
	TierBackbone Tier = iota // global transit-free carriers
	TierTransit              // regional transit providers
	TierAccess               // eyeball / access ISPs
	TierContent              // content providers (hypergiant onnet ASes)
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierBackbone:
		return "backbone"
	case TierTransit:
		return "transit"
	case TierAccess:
		return "access"
	case TierContent:
		return "content"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// FacilityID identifies a colocation facility.
type FacilityID int

// IXPID identifies an Internet exchange point.
type IXPID int

// Facility is a physical building in which an ISP hosts infrastructure —
// including, centrally for this paper, offnet servers from hypergiants.
type Facility struct {
	ID    FacilityID
	Owner ASN // hosting ISP
	Metro geo.Metro
	// Loc is the exact facility location; facilities of the same ISP in the
	// same metro are separated by a few km so latency clustering has real
	// work to do ("differentiating between multiple facilities in a city").
	Loc geo.Point
	// Racks is the number of rack positions available to third-party
	// (hypergiant) equipment.
	Racks int
}

// Name returns a stable human-readable facility name.
func (f *Facility) Name() string {
	return fmt.Sprintf("fac%d-as%d-%s", f.ID, f.Owner, f.Metro.Code)
}

// IXP is an Internet exchange point with a shared layer-2 fabric. Members get
// one address each on the fabric prefix; the paper's traceroute methodology
// maps those addresses back to members via Euro-IX/PeeringDB-style data.
type IXP struct {
	ID     IXPID
	Name   string
	Metro  geo.Metro
	Fabric netaddr.Prefix
	// MemberAddr maps each member AS to its fabric address.
	MemberAddr map[ASN]netaddr.Addr
	// members is MemberAddr inverted by fabric offset: members[k] uses
	// Fabric.First()+k+1, the address joinIXP hands the k-th member.
	members []ASN
	// CapacityGbps is the usable switching capacity of the fabric; §4.3
	// argues IXPs lack headroom for hypergiant spillover.
	CapacityGbps float64
}

// Members returns the member ASNs in ascending order.
func (x *IXP) Members() []ASN {
	out := make([]ASN, 0, len(x.MemberAddr))
	for as := range x.MemberAddr {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ISP is an autonomous system: an access network, a transit provider, or a
// backbone carrier.
type ISP struct {
	ASN     ASN
	Name    string
	Country string
	Tier    Tier
	// Users is the estimated Internet-user population (APNIC-style).
	Users float64
	// Metros this ISP operates in; access ISPs concentrate in one country.
	Metros []geo.Metro
	// Facilities owned by this ISP (indices into World.Facilities).
	Facilities []FacilityID
	// Prefixes announced to the global Internet.
	Prefixes []netaddr.Prefix
	// Providers are the ASes this ISP buys transit from.
	Providers []ASN
	// IXPs this ISP is a member of.
	IXPs []IXPID
}

// IsAccess reports whether the ISP is an eyeball/access network.
func (i *ISP) IsAccess() bool { return i.Tier == TierAccess }

// ownerSpan is one contiguous run of announced address space and its origin
// AS. The sorted span table is the interval-indexed form of the "IP-to-ISP
// mapping" role PeeringDB/Euro-IX + routing data play in the paper's
// traceroute methodology: at huge scale it replaces a per-/24 map (hundreds
// of thousands of entries) with one entry per contiguous announcement.
type ownerSpan struct {
	first, last netaddr.Addr
	as          ASN
}

// fabricSpan is the interval-index entry for one IXP fabric, so IXPOf is a
// binary search instead of a sorted scan over all exchanges per lookup.
type fabricSpan struct {
	first, last netaddr.Addr
	id          IXPID
}

// slab is a chunked arena of pointer-stable slots: Get never moves existing
// elements (growth allocates a fresh block rather than reallocating), so the
// World maps can point into it while generation keeps appending. It cuts
// entity allocation from one per ISP/facility to one per block.
type slab[T any] struct {
	block []T
	size  int
}

// Reserve sizes the next block for n upcoming slots (a hint, not a cap).
func (s *slab[T]) Reserve(n int) {
	if n > s.size {
		s.size = n
	}
}

// Get returns a zeroed, pointer-stable slot.
func (s *slab[T]) Get() *T {
	if len(s.block) == cap(s.block) {
		n := s.size
		if n < 256 {
			n = 256
		}
		s.block = make([]T, 0, n)
		s.size = 0
	}
	s.block = s.block[:len(s.block)+1]
	return &s.block[len(s.block)-1]
}

// World is the complete synthetic Internet.
type World struct {
	Seed       int64
	ISPs       map[ASN]*ISP
	Facilities map[FacilityID]*Facility
	IXPs       map[IXPID]*IXP

	// owners is the sorted interval index behind OwnerOf: every announced
	// prefix contributes one contiguous [first,last] span. Mutation paths
	// (generation, Restore, AddContentAS) append and then finalize; lookups
	// never sort, so concurrent measurement stages read race-free.
	owners []ownerSpan
	// fabrics is the sorted interval index behind IXPOf.
	fabrics []fabricSpan
	// downstream is the index behind DownstreamUsers: each AS's customer
	// user total.
	downstream map[ASN]float64

	// The ordered views behind ISPList, AccessISPs, FacilityList and
	// IXPList, ascending by ID, and the number of content ASes. Like the
	// interval indexes, they are written only on the mutation paths, so the
	// accessors never sort.
	ispList    []*ISP
	accessList []*ISP
	facList    []*Facility
	ixpList    []*IXP
	nContent   int

	// Entity slabs: ISPs and Facilities are values in chunked arenas; the
	// maps above hold pointers into them.
	isps slab[ISP]
	facs slab[Facility]

	// Allocation state, used after generation to place content (hypergiant)
	// ASes and to carve server addresses out of ISP space.
	ispPool     *netaddr.Pool
	contentPool *netaddr.Pool
	ixpPool     *netaddr.Pool
	hostNext    map[ASN]uint64
}

// registerOwner records one contiguous announcement for the interval index.
// finalize must run before lookups.
func (w *World) registerOwner(first, last netaddr.Addr, as ASN) {
	w.owners = append(w.owners, ownerSpan{first: first, last: last, as: as})
}

// finalize builds the ordered views, sorts the interval indexes and totals
// the downstream users. Every mutation path (Generate, ReadWorld, Reindex)
// calls it eagerly before returning, and AddContentAS updates what it
// changes in place, so OwnerOf, IXPOf, DownstreamUsers and the list
// accessors are pure reads — safe under the parallel measurement stages.
func (w *World) finalize() {
	w.ispList = w.sortedISPs()
	w.accessList, w.nContent = nil, 0
	for _, isp := range w.ispList {
		switch isp.Tier {
		case TierAccess:
			w.accessList = append(w.accessList, isp)
		case TierContent:
			w.nContent++
		}
	}
	w.facList = sortedBy(w.Facilities, func(f *Facility) FacilityID { return f.ID })
	w.ixpList = w.sortedIXPs()

	sort.Slice(w.owners, func(i, j int) bool { return w.owners[i].first < w.owners[j].first })
	w.fabrics = w.fabrics[:0]
	for _, x := range w.ixpList {
		w.fabrics = append(w.fabrics, fabricSpan{first: x.Fabric.First(), last: x.Fabric.Last(), id: x.ID})
	}
	sort.Slice(w.fabrics, func(i, j int) bool { return w.fabrics[i].first < w.fabrics[j].first })
	w.indexDownstream()
}

// Reindex rebuilds the ordered views and lookup indexes of a world whose
// maps were filled or edited outside Generate, ReadWorld and AddContentAS.
func (w *World) Reindex() { w.finalize() }

// sortedISPs returns every ISP in the map, ascending by ASN.
func (w *World) sortedISPs() []*ISP { return sortedBy(w.ISPs, func(x *ISP) ASN { return x.ASN }) }

// sortedIXPs returns every IXP in the map, ascending by ID.
func (w *World) sortedIXPs() []*IXP { return sortedBy(w.IXPs, func(x *IXP) IXPID { return x.ID }) }

// sortedBy returns the map's values ascending by id.
func sortedBy[K comparable, V any, I cmp.Ordered](m map[K]V, id func(V) I) []V {
	out := make([]V, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	slices.SortFunc(out, func(a, b V) int { return cmp.Compare(id(a), id(b)) })
	return out
}

// indexDownstream totals every AS's customer users. Customers add in
// ascending-ASN order, each counted once per provider however often it
// lists that provider: float accumulation over the ISPs map's iteration
// order differs in the last ulp from build to build, which is enough to
// break byte-identical replay digests downstream.
func (w *World) indexDownstream() {
	w.downstream = make(map[ASN]float64)
	for _, isp := range w.ispList {
		for i, prov := range isp.Providers {
			if !slices.Contains(isp.Providers[:i], prov) {
				w.downstream[prov] += isp.Users
			}
		}
	}
}

// ISPList returns all ISPs ordered by ASN for deterministic iteration. The
// slice is the caller's own.
func (w *World) ISPList() []*ISP { return slices.Clone(w.ispList) }

// AccessISPs returns the access ISPs ordered by ASN; the slice is the
// caller's own.
func (w *World) AccessISPs() []*ISP { return slices.Clone(w.accessList) }

// FacilityList returns all facilities ordered by ID; the slice is the
// caller's own.
func (w *World) FacilityList() []*Facility { return slices.Clone(w.facList) }

// IXPList returns all IXPs ordered by ID. The slice is the caller's own:
// Deploy re-sorts it by capacity.
func (w *World) IXPList() []*IXP { return slices.Clone(w.ixpList) }

// OwnerOf returns the AS announcing the address space containing addr, or
// false when the address is unrouted. IXP fabric addresses belong to no AS
// (they are deliberately absent, as in the real Internet where fabric space
// is not globally announced) and resolve via IXPOf instead. Lookup is a
// binary search over the sorted announcement spans.
func (w *World) OwnerOf(addr netaddr.Addr) (ASN, bool) {
	i := sort.Search(len(w.owners), func(i int) bool { return w.owners[i].last >= addr })
	if i < len(w.owners) && w.owners[i].first <= addr {
		return w.owners[i].as, true
	}
	return 0, false
}

// IXPOf returns the IXP whose fabric contains addr, and the member AS using
// that fabric address, if any. Fabric containment is a binary search over
// the sorted fabric spans; the member is the one at addr's fabric offset.
func (w *World) IXPOf(addr netaddr.Addr) (*IXP, ASN, bool) {
	i := sort.Search(len(w.fabrics), func(i int) bool { return w.fabrics[i].last >= addr })
	if i >= len(w.fabrics) || w.fabrics[i].first > addr {
		return nil, 0, false
	}
	x := w.IXPs[w.fabrics[i].id]
	if k := addr - x.Fabric.First(); k >= 1 && uint64(k) <= uint64(len(x.members)) && x.members[k-1] != 0 {
		return x, x.members[k-1], true
	}
	return x, 0, false
}

// SortedASNs returns the keys of an ASN-keyed map in ascending order. User
// totals sum in this order: float addition over map iteration order differs
// in the last bits from run to run (see indexDownstream).
func SortedASNs[V any](m map[ASN]V) []ASN {
	out := make([]ASN, 0, len(m))
	for as := range m {
		out = append(out, as)
	}
	sortASNs(out)
	return out
}

// UsersInISPs sums the user population of the given set of ASNs, in
// ascending-ASN order.
func (w *World) UsersInISPs(set map[ASN]bool) float64 {
	var total float64
	for _, as := range SortedASNs(set) {
		if !set[as] {
			continue
		}
		if isp, ok := w.ISPs[as]; ok {
			total += isp.Users
		}
	}
	return total
}

// TotalUsers sums the user population across all access ISPs, in
// ascending-ASN order.
func (w *World) TotalUsers() float64 {
	var total float64
	for _, isp := range w.accessList {
		total += isp.Users
	}
	return total
}

// CountryUsers returns the total access-ISP user population per country,
// each summed in ascending-ASN order.
func (w *World) CountryUsers() map[string]float64 {
	out := make(map[string]float64)
	for _, isp := range w.accessList {
		out[isp.Country] += isp.Users
	}
	return out
}
