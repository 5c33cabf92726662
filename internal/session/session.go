// Package session simulates user sessions fetching hypergiant content and
// scores the quality of experience they get — the user-facing consequence
// of §3.3's correlated failures: "As these applications often demand high
// availability and low latency, disruptions from traffic overloads or
// infrastructure failures can have severe consequences."
//
// A session picks a hypergiant by the user's traffic mix, is steered to a
// server (local offnet, hypergiant edge over PNI/IXP, or distant onnet via
// transit), and experiences latency from geography plus congestion penalty
// from the capacity model's link utilization under the scenario.
package session

import (
	"context"
	"math"
	"sort"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/cascade"
	"offnetrisk/internal/geo"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/par"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/traffic"
)

// Origin mirrors where a session's content was served from.
type Origin int

// Origins in increasing distance order.
const (
	FromOffnet Origin = iota
	FromPNI
	FromIXP
	FromUpstreamOffnet
	FromTransit
	FromUnserved // demand beyond every layer's capacity
)

// String implements fmt.Stringer.
func (o Origin) String() string {
	switch o {
	case FromOffnet:
		return "offnet"
	case FromPNI:
		return "pni"
	case FromIXP:
		return "ixp"
	case FromUpstreamOffnet:
		return "upstream-offnet"
	case FromTransit:
		return "transit"
	default:
		return "unserved"
	}
}

// Session is one simulated content fetch.
type Session struct {
	ISP     inet.ASN
	HG      traffic.HG
	Origin  Origin
	RTTms   float64
	Dropped bool
}

// QoE summarizes a batch of sessions.
type QoE struct {
	Sessions  int
	MedianRTT float64
	P95RTT    float64
	// OffnetShare is the fraction of sessions served by the local offnet.
	OffnetShare float64
	// DroppedShare is the fraction of sessions that found no capacity.
	DroppedShare float64
}

// Config sizes the simulation.
type Config struct {
	Seed        int64
	PerISP      int // sessions per host ISP
	CongestBase float64
	// CongestedRTTPenaltyMs is added per unit of over-utilization on a
	// congested shared link (bufferbloat/queueing under overload).
	CongestedRTTPenaltyMs float64
	// Workers bounds RunContext's fan-out across host ISPs; <= 0 means
	// GOMAXPROCS. Each ISP already draws from its own seed-derived RNG
	// stream, so sessions are identical at any worker count.
	Workers int
	// Mix is the traffic mix sessions are drawn against; the zero Mix means
	// the paper's published constants.
	Mix traffic.Mix
}

// RunContext simulates sessions for every access ISP hosting offnets, under
// the serving split and link state of a cascade report (use a no-failure
// scenario for the baseline). Each host ISP's sessions are one task on
// cfg.Workers goroutines, and the per-ISP session batches concatenate in
// ascending-ASN order.
func RunContext(ctx context.Context, m *capacity.Model, d *hypergiant.Deployment, rep *cascade.Report, cfg Config) ([]Session, error) {
	if cfg.PerISP <= 0 {
		cfg.PerISP = 40
	}
	if cfg.CongestedRTTPenaltyMs <= 0 {
		cfg.CongestedRTTPenaltyMs = 80
	}
	cfg.Mix = cfg.Mix.Sanitized()
	w := d.World

	// Index flows by (hg, isp).
	type key struct {
		hg traffic.HG
		as inet.ASN
	}
	flowOf := make(map[key]capacity.Flow, len(rep.Flows))
	for _, f := range rep.Flows {
		flowOf[key{f.HG, f.ISP}] = f
	}

	// Congestion state of shared links.
	congIXP := make(map[inet.IXPID]float64)
	for id, l := range rep.IXPLoad {
		if l.Congested() {
			congIXP[id] = l.Utilization() - 1
		}
	}
	congTr := make(map[inet.ASN]float64)
	for as, l := range rep.TransitLoad {
		if l.Congested() {
			congTr[as] = l.Utilization() - 1
		}
	}

	var asns []inet.ASN
	for _, as := range d.HostingISPs() {
		if w.ISPs[as].IsAccess() {
			asns = append(asns, as)
		}
	}
	batches, err := par.Map(ctx, len(asns), par.Options{Workers: cfg.Workers, Name: "sessions"},
		func(_ context.Context, idx int) ([]Session, error) {
			as := asns[idx]
			isp := w.ISPs[as]
			r := rngutil.New(cfg.Seed ^ int64(as)*0x9e3779b9)
			userLoc := isp.Metros[0].Loc
			batch := make([]Session, 0, cfg.PerISP)
			for i := 0; i < cfg.PerISP; i++ {
				hg := pickHG(r, cfg.Mix)
				f, ok := flowOf[key{hg, as}]
				if !ok || f.Demand <= 0 {
					// The hypergiant has no local deployment: served onnet via
					// transit.
					s := Session{ISP: as, HG: hg, Origin: FromTransit}
					s.RTTms = onnetRTT(userLoc, r)
					s.RTTms += transitPenalty(isp, congTr, cfg, r, &s)
					batch = append(batch, s)
					continue
				}
				origin := drawOrigin(r, f)
				s := Session{ISP: as, HG: hg, Origin: origin}
				switch origin {
				case FromOffnet:
					// Local: metro-scale RTT.
					s.RTTms = 2 + 8*r.Float64()
				case FromPNI:
					s.RTTms = edgeRTT(userLoc, r)
				case FromIXP:
					s.RTTms = edgeRTT(userLoc, r)
					if id, ok := m.IXPIDOf[hg][as]; ok {
						if over, bad := congIXP[id]; bad {
							s.RTTms += cfg.CongestedRTTPenaltyMs * (1 + over)
							s.Dropped = r.Float64() < math.Min(0.5, over)
						}
					}
				case FromUpstreamOffnet:
					s.RTTms = edgeRTT(userLoc, r) + 10
					s.RTTms += transitPenalty(isp, congTr, cfg, r, &s)
				default:
					s.RTTms = onnetRTT(userLoc, r)
					s.RTTms += transitPenalty(isp, congTr, cfg, r, &s)
				}
				batch = append(batch, s)
			}
			return batch, nil
		})
	if err != nil {
		return nil, err
	}
	var out []Session
	for _, batch := range batches {
		out = append(out, batch...)
	}
	return out, nil
}

// pickHG draws a hypergiant proportional to its traffic share under the
// mix.
func pickHG(r interface{ Float64() float64 }, mix traffic.Mix) traffic.HG {
	var total float64
	for _, hg := range traffic.All {
		total += mix.Share(hg)
	}
	x := r.Float64() * total
	for _, hg := range traffic.All {
		x -= mix.Share(hg)
		if x < 0 {
			return hg
		}
	}
	return traffic.Akamai
}

// drawOrigin samples the serving layer proportional to the flow's split.
func drawOrigin(r interface{ Float64() float64 }, f capacity.Flow) Origin {
	weights := []float64{f.Offnet, f.PNI, f.IXP, f.UpstreamOffnet, f.Transit}
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return FromUnserved
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return Origin(i)
		}
	}
	return FromTransit
}

// edgeRTT approximates reaching a hypergiant edge in the region.
func edgeRTT(_ geo.Point, r interface{ Float64() float64 }) float64 {
	return 12 + 18*r.Float64() // regional edge: 12–30 ms
}

// onnetRTT approximates fetching from a distant hypergiant data center.
func onnetRTT(user geo.Point, r interface{ Float64() float64 }) float64 {
	// Data centers cluster in the US in this world; distance drives RTT.
	dc := geo.Point{LatDeg: 39, LonDeg: -98}
	base := float64(geo.FiberRTT(user, dc, 1.3)) / 1e6
	return base + 5 + 15*r.Float64()
}

func transitPenalty(isp *inet.ISP, congTr map[inet.ASN]float64, cfg Config, r interface{ Float64() float64 }, s *Session) float64 {
	var worst float64
	for _, prov := range isp.Providers {
		if over, ok := congTr[prov]; ok && over > worst {
			worst = over
		}
	}
	if worst <= 0 {
		return 0
	}
	if r.Float64() < math.Min(0.5, worst) {
		s.Dropped = true
	}
	return cfg.CongestedRTTPenaltyMs * (1 + worst)
}

// Score reduces sessions to QoE statistics.
func Score(sessions []Session) QoE {
	q := QoE{Sessions: len(sessions)}
	if len(sessions) == 0 {
		return q
	}
	rtts := make([]float64, 0, len(sessions))
	var offnet, dropped int
	for _, s := range sessions {
		rtts = append(rtts, s.RTTms)
		if s.Origin == FromOffnet {
			offnet++
		}
		if s.Dropped {
			dropped++
		}
	}
	sort.Float64s(rtts)
	q.MedianRTT = rtts[len(rtts)/2]
	q.P95RTT = rtts[int(float64(len(rtts))*0.95)]
	q.OffnetShare = float64(offnet) / float64(len(sessions))
	q.DroppedShare = float64(dropped) / float64(len(sessions))
	return q
}
