// Package capacity models how hypergiant traffic is actually served — local
// offnets first, spillover across interdomain links second — and reproduces
// the §4 evidence: offnets running near capacity (the COVID-lockdown Netflix
// replay and the diurnal distant-server effect, §4.1) and under-provisioned
// dedicated peering (the PNI census, §4.2.2).
//
// The serving order per (hypergiant, ISP) follows §4.1–4.3: offnet up to
// (burst) capacity, then the dedicated PNI, then shared IXP ports, then
// transit — each layer with finite capacity, each spill landing on a more
// shared resource.
package capacity

import (
	"math"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/traffic"
)

var (
	mModelsBuilt = obs.NewCounter("capacity.models_built",
		"capacity models derived from deployments")
	mFlowsServed = obs.NewCounter("capacity.flows_served",
		"per-(hypergiant,ISP) flows resolved by the serving model")
	mSitesTracked = obs.NewGauge("capacity.sites_tracked",
		"offnet sites in the most recently built capacity model")
)

// Config tunes the capacity model.
type Config struct {
	Seed int64
	// PeakMbpsPerUser matches the deployment's demand model.
	PeakMbpsPerUser float64
	// OffnetProvisioning is the ratio of offnet site capacity to the
	// offnet-servable peak demand. Near 1.0: "offnets are running near
	// capacity, with little ability to absorb sudden increases".
	OffnetProvisioning float64
	// BurstFactor is how far above nominal capacity an offnet can be pushed
	// briefly; the COVID data implies ≈1.2 (offnet traffic grew only 20%
	// under a 58% demand spike).
	BurstFactor float64
	// Mix is the traffic mix demand is computed against; the zero Mix means
	// the paper's published constants.
	Mix traffic.Mix
}

func (c Config) sanitized() Config {
	if c.PeakMbpsPerUser <= 0 {
		c.PeakMbpsPerUser = 0.3
	}
	if c.OffnetProvisioning <= 0 {
		c.OffnetProvisioning = traffic.SteadyOffnetProvisioning
	}
	if c.BurstFactor < 1 {
		c.BurstFactor = 1.2
	}
	c.Mix = c.Mix.Sanitized()
	return c
}

// Diurnal is a 24-hour demand multiplier profile: overnight trough, evening
// peak — the shape of residential access traffic.
var Diurnal = [24]float64{
	0.42, 0.36, 0.33, 0.32, 0.33, 0.37, 0.45, 0.55,
	0.62, 0.66, 0.68, 0.70, 0.72, 0.72, 0.73, 0.76,
	0.82, 0.90, 0.97, 1.00, 0.99, 0.92, 0.74, 0.55,
}

// Site is one hypergiant's offnet plant in one ISP (all its servers pooled),
// with nominal and burst serving capacity in Gbps.
type Site struct {
	HG          traffic.HG
	ISP         inet.ASN
	NominalGbps float64
	BurstGbps   float64
	// Facilities hosting the servers; losing all of them removes the site.
	Facilities map[inet.FacilityID]float64 // facility → share of capacity
}

// Model is the serving-capacity view of a deployment.
type Model struct {
	cfg Config
	dep *hypergiant.Deployment
	// Sites by (hg, isp): offnets inside access networks.
	Sites map[traffic.HG]map[inet.ASN]*Site
	// Upstream sites by (hg, transit AS): offnets hosted in transit
	// providers, absorbing their customers' spillover ("offnets ... can
	// also serve users downstream from a transit provider").
	Upstream map[traffic.HG]map[inet.ASN]*Site
	// PNIGbps and IXP peering capacity by (hg, isp).
	PNIGbps map[traffic.HG]map[inet.ASN]float64
	IXPPort map[traffic.HG]map[inet.ASN]float64
	// IXPOf maps (hg, isp) to the exchange carrying that peering.
	IXPIDOf map[traffic.HG]map[inet.ASN]inet.IXPID

	// plan is the flat serving plan compiled from the maps above by Build
	// and WithCuts; serving reads only the plan, so the maps are a
	// read-only description of the model once it is built.
	plan plan
}

// Build derives the capacity model from a deployment. Offnet site capacity
// is calibrated to the offnet-servable share of peak demand times the
// provisioning ratio, reproducing "offnets run near capacity".
func Build(d *hypergiant.Deployment, cfg Config) *Model {
	cfg = cfg.sanitized()
	m := &Model{
		cfg:      cfg,
		dep:      d,
		Sites:    make(map[traffic.HG]map[inet.ASN]*Site),
		Upstream: make(map[traffic.HG]map[inet.ASN]*Site),
		PNIGbps:  make(map[traffic.HG]map[inet.ASN]float64),
		IXPPort:  make(map[traffic.HG]map[inet.ASN]float64),
		IXPIDOf:  make(map[traffic.HG]map[inet.ASN]inet.IXPID),
	}
	for _, hg := range traffic.All {
		m.Sites[hg] = make(map[inet.ASN]*Site)
		m.Upstream[hg] = make(map[inet.ASN]*Site)
		m.PNIGbps[hg] = make(map[inet.ASN]float64)
		m.IXPPort[hg] = make(map[inet.ASN]float64)
		m.IXPIDOf[hg] = make(map[inet.ASN]inet.IXPID)
	}

	for _, hg := range traffic.All {
		for _, as := range d.HostISPs(hg) {
			isp := d.World.ISPs[as]
			r := rngutil.New(cfg.Seed ^ int64(as)*127 ^ int64(hg)*0x27220a95)
			var servable float64
			if isp.Tier == inet.TierTransit {
				// Transit-hosted offnets are sized against the spillover
				// their downstream customers generate in steady state.
				servable = d.World.DownstreamUsers(as) * cfg.Mix.Share(hg) *
					cfg.PeakMbpsPerUser / 1000 * cfg.Mix.SteadyInterdomainShare(hg)
			} else {
				servable = m.PeakDemand(hg, as) * cfg.Mix.OffnetFraction(hg)
			}
			nominal := servable * cfg.OffnetProvisioning * rngutil.Jitter(r, 1.0, 0.06)
			site := &Site{
				HG:          hg,
				ISP:         as,
				NominalGbps: nominal,
				BurstGbps:   nominal * cfg.BurstFactor,
				Facilities:  make(map[inet.FacilityID]float64),
			}
			servers := d.ServersOf(hg, as)
			for _, s := range servers {
				site.Facilities[s.Facility] += 1.0 / float64(len(servers))
			}
			if isp.Tier == inet.TierTransit {
				m.Upstream[hg][as] = site
			} else {
				m.Sites[hg][as] = site
			}
		}
	}
	for _, p := range d.Peerings {
		switch p.Kind {
		case hypergiant.PeerPNI:
			m.PNIGbps[p.HG][p.ISP] += p.CapacityGbps
		case hypergiant.PeerIXP:
			m.IXPPort[p.HG][p.ISP] += p.CapacityGbps
			m.IXPIDOf[p.HG][p.ISP] = p.IXP
		}
	}
	m.plan = m.compile()
	mModelsBuilt.Inc()
	sites := 0
	for _, hg := range traffic.All {
		sites += len(m.Sites[hg]) + len(m.Upstream[hg])
	}
	mSitesTracked.Set(float64(sites))
	return m
}

// PeakDemand is the hypergiant's peak-hour demand in the ISP, in Gbps.
func (m *Model) PeakDemand(hg traffic.HG, as inet.ASN) float64 {
	isp, ok := m.dep.World.ISPs[as]
	if !ok {
		return 0
	}
	return isp.Users * m.cfg.Mix.Share(hg) * m.cfg.PeakMbpsPerUser / 1000
}

// Flow is how one (hypergiant, ISP) demand was served, in Gbps.
type Flow struct {
	HG  traffic.HG
	ISP inet.ASN
	// Demand and its split across serving layers. UpstreamOffnet is spill
	// absorbed by an offnet hosted in one of the ISP's transit providers;
	// Transit is what travels beyond even those.
	Demand, Offnet, PNI, IXP, UpstreamOffnet, Transit float64
}

// Interdomain returns the traffic crossing an interdomain boundary.
func (f Flow) Interdomain() float64 { return f.PNI + f.IXP + f.UpstreamOffnet + f.Transit }

// SharedSpill returns the traffic landing on shared (IXP/transit)
// infrastructure — the collateral-damage currency of §4.3. Upstream-offnet
// traffic rides the shared customer↔provider link too.
func (f Flow) SharedSpill() float64 { return f.IXP + f.UpstreamOffnet + f.Transit }

// Serve computes the steady-state serving split for every (hypergiant, ISP)
// at the given demand multiplier: offnets serve up to their nominal
// capacity. failedFacilities removes the corresponding share of offnet
// capacity (nil for none). The split per layer follows the §4 spillover
// order.
func (m *Model) Serve(mult float64, scale map[traffic.HG]float64, failedFacilities map[inet.FacilityID]bool) []Flow {
	return m.serve(mult, scale, failedFacilities, false)
}

// ServeBurst is Serve with offnets pushed to their short-term burst ceiling
// — the regime of sudden spikes and failovers, where operators squeeze
// whatever the boxes will give (the COVID data shows ≈20%% above nominal).
func (m *Model) ServeBurst(mult float64, scale map[traffic.HG]float64, failedFacilities map[inet.FacilityID]bool) []Flow {
	return m.serve(mult, scale, failedFacilities, true)
}

// ServeHour is the diurnal replay entry point: it serves the given clock
// hour of the 24-hour demand curve, so a temporal-engine step at hour h is
// exactly Serve(Diurnal[h%24], ...) — the differential-oracle identity the
// engine's steady-state steps are tested against. burst selects the
// short-term ceiling regime, as in ServeBurst.
func (m *Model) ServeHour(hour int, scale map[traffic.HG]float64, failedFacilities map[inet.FacilityID]bool, burst bool) []Flow {
	h := ((hour % 24) + 24) % 24
	return m.serve(Diurnal[h], scale, failedFacilities, burst)
}

// Layer identifies one serving-capacity surface of the model for targeted
// cuts.
type Layer int

const (
	// LayerOffnet is in-ISP (and upstream transit-hosted) offnet plant.
	LayerOffnet Layer = iota
	// LayerPNI is dedicated private peering capacity.
	LayerPNI
	// LayerIXP is shared exchange port capacity.
	LayerIXP
)

// String names the layer as event schedules spell it.
func (l Layer) String() string {
	switch l {
	case LayerOffnet:
		return "offnet"
	case LayerPNI:
		return "pni"
	case LayerIXP:
		return "ixp"
	}
	return "unknown"
}

// Cut removes a fraction of one layer's capacity — the temporal engine's
// "a PNI port dies / an offnet rack drains / an IXP LAG degrades" primitive.
type Cut struct {
	Layer Layer
	// HG is the hypergiant the cut applies to; AllHGs widens it to all four.
	HG     traffic.HG
	AllHGs bool
	// ISP restricts the cut to one access (or transit, for offnet) network;
	// 0 means every network.
	ISP inet.ASN
	// Frac is the share of capacity removed, clamped to [0, 1].
	Frac float64
}

func (c Cut) hits(hg traffic.HG, as inet.ASN) bool {
	if !c.AllHGs && c.HG != hg {
		return false
	}
	return c.ISP == 0 || c.ISP == as
}

// WithCuts returns a model with the cuts applied multiplicatively; the
// receiver is never mutated (sites and capacity maps are deep-copied and the
// serving plan recompiled), so a temporal engine can re-derive the cut model
// whenever its active-cut set changes while the pristine baseline model
// stays untouched. An empty cut list returns the receiver itself, keeping
// uncut serving bit-identical.
func (m *Model) WithCuts(cuts []Cut) *Model {
	if len(cuts) == 0 {
		return m
	}
	out := &Model{
		cfg:      m.cfg,
		dep:      m.dep,
		Sites:    make(map[traffic.HG]map[inet.ASN]*Site),
		Upstream: make(map[traffic.HG]map[inet.ASN]*Site),
		PNIGbps:  make(map[traffic.HG]map[inet.ASN]float64),
		IXPPort:  make(map[traffic.HG]map[inet.ASN]float64),
		IXPIDOf:  m.IXPIDOf,
	}
	keep := func(hg traffic.HG, as inet.ASN, layer Layer) float64 {
		k := 1.0
		for _, c := range cuts {
			if c.Layer != layer || !c.hits(hg, as) {
				continue
			}
			f := math.Min(math.Max(c.Frac, 0), 1)
			k *= 1 - f
		}
		return k
	}
	cloneSites := func(src map[inet.ASN]*Site, hg traffic.HG) map[inet.ASN]*Site {
		dst := make(map[inet.ASN]*Site, len(src))
		for as, s := range src {
			cp := *s // Facilities map is read-only downstream; share it.
			k := keep(hg, as, LayerOffnet)
			cp.NominalGbps *= k
			cp.BurstGbps *= k
			dst[as] = &cp
		}
		return dst
	}
	for _, hg := range traffic.All {
		out.Sites[hg] = cloneSites(m.Sites[hg], hg)
		out.Upstream[hg] = cloneSites(m.Upstream[hg], hg)
		out.PNIGbps[hg] = make(map[inet.ASN]float64, len(m.PNIGbps[hg]))
		for as, v := range m.PNIGbps[hg] {
			out.PNIGbps[hg][as] = v * keep(hg, as, LayerPNI)
		}
		out.IXPPort[hg] = make(map[inet.ASN]float64, len(m.IXPPort[hg]))
		for as, v := range m.IXPPort[hg] {
			out.IXPPort[hg][as] = v * keep(hg, as, LayerIXP)
		}
	}
	out.plan = out.compile()
	return out
}
