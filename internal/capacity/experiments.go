package capacity

import (
	"context"

	"offnetrisk/internal/inet"
	"offnetrisk/internal/par"
	"offnetrisk/internal/traffic"
)

// CovidReport is the §4.1 lockdown replay: demand for one hypergiant spikes
// while everything else stays flat, and the offnet vs interdomain growth is
// compared. The paper's observation: Netflix demand +58% → offnet traffic
// +20%, interdomain Netflix traffic more than doubled.
type CovidReport struct {
	HG          traffic.HG
	SpikeFactor float64
	// Pre/post totals in Gbps across all host ISPs.
	OffnetPre, OffnetPost           float64
	InterdomainPre, InterdomainPost float64
	// OffnetShare is the pre-spike fraction of the hypergiant's traffic
	// served by offnets (the paper's pre-lockdown 63% figure for the
	// affected ISPs).
	OffnetSharePre float64
}

// OffnetGrowth returns the relative growth of offnet-served traffic.
func (r CovidReport) OffnetGrowth() float64 {
	if r.OffnetPre == 0 {
		return 0
	}
	return r.OffnetPost/r.OffnetPre - 1
}

// InterdomainGrowth returns the relative growth of interdomain traffic.
func (r CovidReport) InterdomainGrowth() float64 {
	if r.InterdomainPre == 0 {
		return 0
	}
	return r.InterdomainPost/r.InterdomainPre - 1
}

// CovidReplay runs the lockdown experiment at peak hour for one hypergiant.
func CovidReplay(m *Model, hg traffic.HG, spike float64) CovidReport {
	rep := CovidReport{HG: hg, SpikeFactor: spike}
	pre := m.Serve(1.0, nil, nil)
	post := m.ServeBurst(1.0, map[traffic.HG]float64{hg: spike}, nil)
	var demandPre float64
	for _, f := range pre {
		if f.HG != hg {
			continue
		}
		rep.OffnetPre += f.Offnet
		rep.InterdomainPre += f.Interdomain()
		demandPre += f.Demand
	}
	for _, f := range post {
		if f.HG != hg {
			continue
		}
		rep.OffnetPost += f.Offnet
		rep.InterdomainPost += f.Interdomain()
	}
	if demandPre > 0 {
		rep.OffnetSharePre = rep.OffnetPre / demandPre
	}
	return rep
}

// DiurnalPoint is one hour of the §4.1 residential observation: the share of
// traffic served from nearby (in-ISP offnet) versus distant servers.
type DiurnalPoint struct {
	Hour          int
	Demand        float64
	NearbyShare   float64 // offnet
	DistantShare  float64 // interdomain
	SharedSpill   float64 // Gbps landing on IXP/transit
	OffnetHeadGap float64 // unserved-by-offnet Gbps
}

// DiurnalSweepContext serves all 24 hours and reports the nearby/distant
// split — the 530-apartment observation: "During peak periods, a higher
// fraction of traffic from the same services instead comes from more
// distant servers." Each hour is an independent task (Serve is read-only on
// the model) and the points return in hour order.
func DiurnalSweepContext(ctx context.Context, m *Model, workers int) ([]DiurnalPoint, error) {
	return par.Map(ctx, 24, par.Options{Workers: workers, Name: "diurnal-sweep"},
		func(_ context.Context, h int) (DiurnalPoint, error) {
			flows := m.Serve(Diurnal[h], nil, nil)
			var demand, offnet, inter, spill float64
			for _, f := range flows {
				demand += f.Demand
				offnet += f.Offnet
				inter += f.Interdomain()
				spill += f.SharedSpill()
			}
			p := DiurnalPoint{Hour: h, Demand: demand, SharedSpill: spill}
			if demand > 0 {
				p.NearbyShare = offnet / demand
				p.DistantShare = inter / demand
			}
			return p, nil
		})
}

// PNICensus is the §4.2.2 reproduction: how dedicated interconnects compare
// to the demand they carry.
type PNICensus struct {
	HG    traffic.HG
	Total int
	// Deficit: peak demand routed at the PNI exceeds its capacity.
	Deficit int
	// MeanExcessPct is the average relative exceedance among deficit PNIs
	// (the paper: "demand during peak periods exceeded capacity by an
	// average of at least 13%").
	MeanExcessPct float64
	// SevereFraction is the share of PNIs whose demand reaches 2× capacity
	// ("10% of Meta PNI experienced periods in which traffic demand was
	// twice the capacity").
	SevereFraction float64
}

// CensusPNIs audits every PNI of a hypergiant against the interdomain
// demand offered to it when offnets are saturated at peak.
func CensusPNIs(m *Model, hg traffic.HG) PNICensus {
	c := PNICensus{HG: hg}
	// Normal peak conditions — §4.2.2's deficits occur "even under normal
	// conditions", no failure or spike needed.
	flows := m.Serve(1.0, nil, nil)
	byISP := make(map[inet.ASN]Flow, len(flows))
	for _, f := range flows {
		if f.HG == hg {
			byISP[f.ISP] = f
		}
	}
	// Ascending ASN, so the excess sum is the same on every run.
	pnis := m.PNIGbps[hg]
	var excessSum float64
	for _, as := range inet.SortedASNs(pnis) {
		cap := pnis[as]
		if cap <= 0 {
			continue
		}
		f, ok := byISP[as]
		if !ok {
			continue
		}
		offered := f.PNI + f.IXP + f.UpstreamOffnet + f.Transit // everything the local offnet could not hold
		c.Total++
		if offered > cap {
			c.Deficit++
			excessSum += (offered - cap) / cap
		}
		if offered >= 2*cap {
			c.SevereFraction++
		}
	}
	if c.Deficit > 0 {
		c.MeanExcessPct = 100 * excessSum / float64(c.Deficit)
	}
	if c.Total > 0 {
		c.SevereFraction /= float64(c.Total)
	}
	return c
}
