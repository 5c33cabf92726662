package offnetrisk

import (
	"context"
	"fmt"
	"strings"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/traffic"
)

// CovidRow is the §4.1 lockdown replay for one hypergiant.
type CovidRow struct {
	Hypergiant        string
	SpikePct          float64
	OffnetGrowthPct   float64 // paper: +20% for Netflix
	InterdomainGrowth float64 // multiplicative; paper: "more than doubled"
	OffnetSharePre    float64 // paper: 63%+
}

// DiurnalRow is one hour of the §4.1 residential diurnal sweep.
type DiurnalRow struct {
	Hour         int
	DemandGbps   float64
	NearbyPct    float64
	DistantPct   float64
	SpillToShare float64
}

// PNIRow is the §4.2.2 census for one hypergiant.
type PNIRow struct {
	Hypergiant     string
	Total, Deficit int
	MeanExcessPct  float64 // paper: ≥13%
	SeverePct      float64 // paper: ≈10% at 2× capacity
}

// PanelRow summarizes the §4.1 residential apartment panel.
type PanelRow struct {
	Apartments   int
	TroughNearby float64 // median nearby share at 03h
	PeakNearby   float64 // median nearby share at 19h
}

// CapacityResult bundles §4.1 and §4.2.2.
type CapacityResult struct {
	Covid   []CovidRow
	Diurnal []DiurnalRow
	PNI     []PNIRow
	// Panel is the 530-apartment study inside the largest all-four-
	// hypergiant access ISP.
	Panel PanelRow
}

// CapacityStudyContext runs the offnet/interconnect capacity experiments
// on the 2023 deployment. The diurnal sweep serves its 24 hours across
// p.Workers goroutines. The result is computed once per pipeline; later
// calls return it unchanged and must not modify it.
func (p *Pipeline) CapacityStudyContext(ctx context.Context) (*CapacityResult, error) {
	return cached(&p.memo, memoKey{"capacity-study", 0}, func() (*CapacityResult, error) { return p.capacityStudy(ctx) })
}

func (p *Pipeline) capacityStudy(ctx context.Context) (*CapacityResult, error) {
	root := p.span("capacity-study")
	defer root.End()
	_, d, err := p.deployment(hypergiant.Epoch2023)
	if err != nil {
		return nil, err
	}
	sp := p.span("capacity-study/build-model")
	m := capacity.Build(d, capacity.ConfigFromScenario(p.spec(), p.Seed))
	sp.End()
	out := &CapacityResult{}

	// COVID replay per hypergiant; the paper's evidence is the Netflix +58%
	// lockdown spike.
	sp = p.span("capacity-study/covid-replay")
	for _, hg := range traffic.All {
		rep := capacity.CovidReplay(m, hg, 1.58)
		out.Covid = append(out.Covid, CovidRow{
			Hypergiant:        hg.String(),
			SpikePct:          58,
			OffnetGrowthPct:   100 * rep.OffnetGrowth(),
			InterdomainGrowth: 1 + rep.InterdomainGrowth(),
			OffnetSharePre:    rep.OffnetSharePre,
		})
	}
	sp.End()

	sctx, sp := p.spanCtx(ctx, "capacity-study/diurnal-sweep")
	points, err := capacity.DiurnalSweepContext(sctx, m, p.Workers)
	if err != nil {
		sp.End()
		return nil, err
	}
	for _, pt := range points {
		out.Diurnal = append(out.Diurnal, DiurnalRow{
			Hour: pt.Hour, DemandGbps: pt.Demand,
			NearbyPct: 100 * pt.NearbyShare, DistantPct: 100 * pt.DistantShare,
			SpillToShare: pt.SharedSpill,
		})
	}
	sp.End()

	sp = p.span("capacity-study/pni-census")
	for _, hg := range traffic.All {
		c := capacity.CensusPNIs(m, hg)
		out.PNI = append(out.PNI, PNIRow{
			Hypergiant: hg.String(), Total: c.Total, Deficit: c.Deficit,
			MeanExcessPct: c.MeanExcessPct, SeverePct: 100 * c.SevereFraction,
		})
	}
	sp.End()

	// The 530-apartment panel: largest all-four access ISP, falling back to
	// the largest access host.
	sp = p.span("capacity-study/apartment-panel")
	defer sp.End()
	var panelISP inet.ASN
	var bestUsers float64
	for _, as := range d.HostingISPs() {
		isp := d.World.ISPs[as]
		if !isp.IsAccess() {
			continue
		}
		allFour := len(d.HGsIn(as)) == 4
		score := isp.Users
		if allFour {
			score *= 10
		}
		if score > bestUsers {
			bestUsers, panelISP = score, as
		}
	}
	if panelISP != 0 {
		apts := capacity.ApartmentsMix(530, panelISP, p.Seed, p.spec().Mix())
		summary := capacity.Summarize(capacity.ApartmentStudy(m, apts))
		out.Panel = PanelRow{
			Apartments:   summary.Apartments,
			TroughNearby: summary.TroughNearby,
			PeakNearby:   summary.PeakNearby,
		}
		sp.SetAttr("apartments", summary.Apartments)
	}
	return out, nil
}

// String renders the three §4 capacity experiments.
func (r *CapacityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4.1 lockdown replay (+58%% demand)\n")
	for _, c := range r.Covid {
		fmt.Fprintf(&b, "  %-8s offnet %+5.1f%%, interdomain ×%.2f (pre-spike offnet share %.0f%%)\n",
			c.Hypergiant, c.OffnetGrowthPct, c.InterdomainGrowth, 100*c.OffnetSharePre)
	}
	fmt.Fprintf(&b, "§4.1 diurnal distant-server effect\n")
	trough, peak := r.Diurnal[3], r.Diurnal[19]
	fmt.Fprintf(&b, "  03h: %.0f%% nearby / %.0f%% distant;  19h: %.0f%% nearby / %.0f%% distant\n",
		trough.NearbyPct, trough.DistantPct, peak.NearbyPct, peak.DistantPct)
	if r.Panel.Apartments > 0 {
		fmt.Fprintf(&b, "§4.1 apartment panel (%d homes): median nearby share %.0f%% at trough → %.0f%% at peak\n",
			r.Panel.Apartments, 100*r.Panel.TroughNearby, 100*r.Panel.PeakNearby)
	}
	fmt.Fprintf(&b, "§4.2.2 PNI census\n")
	for _, p := range r.PNI {
		fmt.Fprintf(&b, "  %-8s %3d PNIs, %3d in deficit (mean excess %.0f%%), %.0f%% at ≥2× capacity\n",
			p.Hypergiant, p.Total, p.Deficit, p.MeanExcessPct, p.SeverePct)
	}
	return b.String()
}
