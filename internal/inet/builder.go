package inet

import (
	"fmt"

	"offnetrisk/internal/geo"
	"offnetrisk/internal/netaddr"
)

// AddContentAS registers a content-provider (hypergiant) AS with its own
// onnet address space, drawn from the content pool. Hypergiant deployments
// are layered on top of the base world by the hypergiant package.
func (w *World) AddContentAS(name string, metros []geo.Metro, n24 int) (ASN, error) {
	as := ASN(asnContentBase + len(w.contentASNs()))
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
	w.allocPrefixes(isp, n24, w.contentPool)
	if len(isp.Prefixes) == 0 {
		return 0, fmt.Errorf("inet: content pool exhausted for %s", name)
	}
	w.ISPs[as] = isp
	// Re-sort the announcement index so OwnerOf sees the new space; content
	// prefixes sort below ISP space, so this cannot be a plain append.
	w.finalize()
	return as, nil
}

// contentASNs returns the registered content ASes in ascending order.
func (w *World) contentASNs() []ASN {
	var out []ASN
	for _, isp := range w.ISPList() {
		if isp.Tier == TierContent {
			out = append(out, isp.ASN)
		}
	}
	return out
}

// ContentASes returns the registered content-provider ASes.
func (w *World) ContentASes() []*ISP {
	var out []*ISP
	for _, isp := range w.ISPList() {
		if isp.Tier == TierContent {
			out = append(out, isp)
		}
	}
	return out
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

// MemberOf reports whether the AS is a member of the IXP.
func (w *World) MemberOf(as ASN, id IXPID) bool {
	x, ok := w.IXPs[id]
	if !ok {
		return false
	}
	_, member := x.MemberAddr[as]
	return member
}

// SharedIXPs returns the exchanges where both ASes are members, in ID order.
func (w *World) SharedIXPs(a, b ASN) []IXPID {
	var out []IXPID
	for _, x := range w.IXPList() {
		if _, ok := x.MemberAddr[a]; !ok {
			continue
		}
		if _, ok := x.MemberAddr[b]; !ok {
			continue
		}
		out = append(out, x.ID)
	}
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
