// Package hypergiant layers the four hypergiants' offnet deployments onto a
// synthetic Internet: which ISPs host offnets at which epoch (§2.2), where
// inside each ISP the servers physically sit — facility and rack (§3.1–3.2),
// what TLS certificates they present (§2.2, including the 2021→2023 naming
// evasions), how big the boxes are (§4.1), and how each hypergiant
// interconnects with each ISP — PNI, IXP, or nothing (§4.2).
package hypergiant

import (
	"slices"

	"offnetrisk/internal/cert"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/traffic"
)

// Epoch selects a deployment snapshot; Table 1 compares the two.
type Epoch int

// The two measurement epochs.
const (
	Epoch2021 Epoch = 2021
	Epoch2023 Epoch = 2023
)

// Server is one offnet server: a hypergiant-owned box hosted at an address
// inside an ISP's announced space, racked in one of the ISP's facilities.
type Server struct {
	Addr     netaddr.Addr
	HG       traffic.HG
	ISP      inet.ASN
	Facility inet.FacilityID
	// Rack is the rack position within the facility; offnets of different
	// hypergiants sharing a rack is "super common" per the paper's operator
	// anecdote.
	Rack int
	// SiteTag names the deployment site the way Meta's certificates do
	// (e.g. "han14"): metro code plus site index within the ISP.
	SiteTag string
	// Cert is the TLS certificate the server presents on :443.
	Cert cert.Certificate
	// CapacityGbps is the server's peak serving capacity.
	CapacityGbps float64
	// Responsive is false for the small fraction of servers that drop
	// measurement probes (the paper discards 12K unresponsive of 261K).
	Responsive bool
	// Anycast marks addresses that are actually served from multiple
	// destinations, producing physically impossible latency combinations;
	// the paper discards 1.9K such addresses (Appendix A).
	Anycast bool
}

// PeeringKind distinguishes dedicated from shared interconnection.
type PeeringKind int

// Peering kinds. §4.2: "Outside of IXPs, peering uses private network
// interconnects."
const (
	PeerNone PeeringKind = iota
	PeerPNI              // dedicated private interconnect
	PeerIXP              // shared exchange fabric
)

// String implements fmt.Stringer.
func (k PeeringKind) String() string {
	switch k {
	case PeerPNI:
		return "pni"
	case PeerIXP:
		return "ixp"
	default:
		return "none"
	}
}

// Peering is one interconnection between a hypergiant and an ISP. A pair may
// have several (multiple PNIs, several exchanges).
type Peering struct {
	HG   traffic.HG
	ISP  inet.ASN
	Kind PeeringKind
	// IXP is set for PeerIXP.
	IXP inet.IXPID
	// CapacityGbps is the provisioned capacity of this interconnect. §4.2.2:
	// PNIs "frequently lack sufficient bandwidth even under normal
	// conditions".
	CapacityGbps float64
}

// Deployment is a full snapshot of all four hypergiants' offnets at an epoch.
type Deployment struct {
	Epoch   Epoch
	World   *inet.World
	Servers []*Server
	// ContentAS maps each hypergiant to its onnet AS in the world.
	ContentAS map[traffic.HG]inet.ASN
	// Peerings lists hypergiant↔ISP interconnections.
	Peerings []Peering

	byISP   map[inet.ASN][]*Server
	byHGISP map[hgISP][]*Server
	// hosting and hosts are the ordered views behind HostingISPs and
	// HostISPs, built with the maps in index.
	hosting []inet.ASN
	hosts   [traffic.NumHG][]inet.ASN
}

type hgISP struct {
	hg  traffic.HG
	isp inet.ASN
}

// index builds the server maps and the ordered host views. Deploy and
// Reindex call it, so HostISPs and HostingISPs never sort.
func (d *Deployment) index() {
	d.byISP = make(map[inet.ASN][]*Server)
	d.byHGISP = make(map[hgISP][]*Server)
	// Deploy places each (hypergiant, ISP) deployment's servers together,
	// so the maps grow by runs of servers rather than one server at a time;
	// each key still collects its servers in slice order.
	for start := 0; start < len(d.Servers); {
		s := d.Servers[start]
		end := start + 1
		for end < len(d.Servers) && d.Servers[end].HG == s.HG && d.Servers[end].ISP == s.ISP {
			end++
		}
		run := d.Servers[start:end]
		d.byISP[s.ISP] = append(d.byISP[s.ISP], run...)
		k := hgISP{s.HG, s.ISP}
		d.byHGISP[k] = append(d.byHGISP[k], run...)
		start = end
	}
	d.hosting = make([]inet.ASN, 0, len(d.byISP))
	for as := range d.byISP {
		d.hosting = append(d.hosting, as)
	}
	slices.Sort(d.hosting)
	d.hosts = [traffic.NumHG][]inet.ASN{}
	for _, as := range d.hosting {
		for hg := range d.hosts {
			if _, ok := d.byHGISP[hgISP{traffic.HG(hg), as}]; ok {
				d.hosts[hg] = append(d.hosts[hg], as)
			}
		}
	}
}

// ServersIn returns all offnet servers hosted by the ISP.
func (d *Deployment) ServersIn(as inet.ASN) []*Server { return d.byISP[as] }

// ServersOf returns the hypergiant's servers hosted by the ISP.
func (d *Deployment) ServersOf(hg traffic.HG, as inet.ASN) []*Server {
	return d.byHGISP[hgISP{hg, as}]
}

// HostISPs returns the ASNs hosting at least one offnet of the hypergiant,
// ascending. This is the ground truth Table 1's inference is validated
// against. The slice is the caller's own.
func (d *Deployment) HostISPs(hg traffic.HG) []inet.ASN {
	if hg < 0 || hg >= traffic.NumHG {
		return nil
	}
	return slices.Clone(d.hosts[hg])
}

// HostingISPs returns every ASN hosting at least one offnet of any
// hypergiant, ascending. The slice is the caller's own.
func (d *Deployment) HostingISPs() []inet.ASN {
	return append(make([]inet.ASN, 0, len(d.hosting)), d.hosting...)
}

// HGsIn returns the distinct hypergiants hosted by the ISP, in canonical
// order.
func (d *Deployment) HGsIn(as inet.ASN) []traffic.HG {
	var present [traffic.NumHG]bool
	for _, s := range d.byISP[as] {
		present[s.HG] = true
	}
	var out []traffic.HG
	for _, hg := range traffic.All {
		if present[hg] {
			out = append(out, hg)
		}
	}
	return out
}

// Reindex rebuilds the internal lookup tables after external construction
// or modification of the Servers slice (e.g. counterfactual deployments).
func (d *Deployment) Reindex() { d.index() }
