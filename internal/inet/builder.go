package inet

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"offnetrisk/internal/geo"
	"offnetrisk/internal/netaddr"
)

// AddContentAS registers a content-provider (hypergiant) AS with its own
// onnet address space, drawn from the content pool. Hypergiant deployments
// are layered on top of the base world by the hypergiant package.
func (w *World) AddContentAS(name string, metros []geo.Metro, n24 int) (ASN, error) {
	as := ASN(asnContentBase + w.nContent)
	if _, exists := w.ISPs[as]; exists {
		return 0, fmt.Errorf("inet: ASN %d already exists", as)
	}
	isp := w.isps.Get()
	*isp = ISP{
		ASN:     as,
		Name:    name,
		Country: "US",
		Tier:    TierContent,
		Metros:  metros,
	}
	spans := len(w.owners)
	w.allocPrefixes(isp, n24, w.contentPool)
	if len(isp.Prefixes) == 0 {
		return 0, fmt.Errorf("inet: content pool exhausted for %s", name)
	}
	w.ISPs[as] = isp
	w.nContent++
	// Update the indexes in place: the new announcements go to their sorted
	// position (content space sits below ISP space, so this is not an
	// append), and the AS joins the ordered view. Fabrics are unchanged, and
	// so are the downstream totals: a content AS has no providers.
	w.insertOwners(spans)
	i, _ := slices.BinarySearchFunc(w.ispList, as, func(x *ISP, as ASN) int { return cmp.Compare(x.ASN, as) })
	w.ispList = slices.Insert(w.ispList, i, isp)
	return as, nil
}

// insertOwners moves the spans appended at owners[from:] into their sorted
// positions, leaving owners as finalize would sort it (starts are distinct).
func (w *World) insertOwners(from int) {
	for k := from; k < len(w.owners); k++ {
		s := w.owners[k]
		i := sort.Search(k, func(i int) bool { return w.owners[i].first > s.first })
		copy(w.owners[i+1:k+1], w.owners[i:k])
		w.owners[i] = s
	}
}

// AllocHostIn carves the next unused host address out of the ISP's announced
// space. Offnet servers live at such addresses: "If an IP address of an ISP
// other than a hypergiant hosts a certificate of the hypergiant, then the IP
// address corresponds to an offnet server of the hypergiant, hosted in the
// ISP."
func (w *World) AllocHostIn(as ASN) (netaddr.Addr, error) {
	isp, ok := w.ISPs[as]
	if !ok {
		return 0, fmt.Errorf("inet: unknown AS %d", as)
	}
	next := w.hostNext[as]
	var cum uint64
	for _, p := range isp.Prefixes {
		n := p.NumAddrs()
		if next < cum+n {
			off := next - cum
			w.hostNext[as] = next + 1
			return p.First() + netaddr.Addr(off), nil
		}
		cum += n
	}
	return 0, fmt.Errorf("inet: AS %d address space exhausted (%d hosts used)", as, next)
}

// JoinIXP adds the AS to the exchange, assigning a fabric address. It is
// exposed for the hypergiant layer, which joins exchanges where it peers.
func (w *World) JoinIXP(as ASN, id IXPID) error {
	isp, ok := w.ISPs[as]
	if !ok {
		return fmt.Errorf("inet: unknown AS %d", as)
	}
	x, ok := w.IXPs[id]
	if !ok {
		return fmt.Errorf("inet: unknown IXP %d", id)
	}
	w.joinIXP(isp, x)
	if _, member := x.MemberAddr[as]; !member {
		return fmt.Errorf("inet: IXP %d fabric full", id)
	}
	return nil
}

// SharedIXPs returns the exchanges where both ASes are members, in ID order.
// It walks b's memberships: joinIXP records a membership on the ISP and on
// the exchange together, and ReadWorld restores both.
func (w *World) SharedIXPs(a, b ASN) []IXPID {
	isp, ok := w.ISPs[b]
	if !ok {
		return nil
	}
	var out []IXPID
	for _, id := range isp.IXPs {
		if x, ok := w.IXPs[id]; ok {
			if _, member := x.MemberAddr[a]; member {
				out = append(out, id)
			}
		}
	}
	slices.Sort(out)
	return out
}

// FacilitiesOf returns the ISP's facilities ordered by ID.
func (w *World) FacilitiesOf(as ASN) []*Facility {
	isp, ok := w.ISPs[as]
	if !ok {
		return nil
	}
	out := make([]*Facility, 0, len(isp.Facilities))
	for _, id := range isp.Facilities {
		if f, ok := w.Facilities[id]; ok {
			out = append(out, f)
		}
	}
	return out
}

// DownstreamUsers sums the user populations of the AS's direct customers —
// the population a transit-hosted offnet can serve ("offnets ... can also
// serve users downstream from a transit provider"). The totals are indexed
// once per world mutation (see indexDownstream), so this is a lookup.
func (w *World) DownstreamUsers(as ASN) float64 { return w.downstream[as] }
