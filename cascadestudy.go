package offnetrisk

import (
	"context"
	"fmt"
	"strings"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/cascade"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/session"
	"offnetrisk/internal/traffic"
)

// QoERow summarizes user-session quality under one serving state.
type QoERow struct {
	MedianRTTms  float64
	P95RTTms     float64
	OffnetPct    float64
	DroppedPct   float64
	SessionCount int
}

// CascadeResult reproduces the §3.3/§4.3 risk argument as a simulation: fail
// each ISP's most-colocated facility and watch the spillover.
type CascadeResult struct {
	// Sweep over all hosting ISPs.
	Scenarios          int
	MeanHGsPerFailure  float64 // >1 means colocation correlates failures
	CongestionFraction float64 // scenarios congesting a shared link
	MeanCollateralISPs float64

	// Worst single scenario (most collateral users).
	Worst CascadeScenario

	// User-experience view: session QoE at peak baseline vs under the
	// worst-case facility failure with minimal shared headroom.
	BaselineQoE, WorstQoE QoERow
}

// CascadeScenario is one concrete facility-failure story.
type CascadeScenario struct {
	ISP               string
	Facility          string
	HGsKnockedOut     []string
	DirectUsers       float64
	CollateralISPs    int
	CollateralUsers   float64
	CongestedIXPs     int
	CongestedTransits int
}

// CascadeStudy sweeps top-facility failures across every hosting ISP and
// reports the aggregate correlated-failure statistics plus the worst case.
func (p *Pipeline) CascadeStudy() (*CascadeResult, error) {
	return p.CascadeStudyContext(context.Background())
}

// CascadeStudyContext is CascadeStudy with cancellation; the facility sweep
// and the QoE session simulation fan out across p.Workers goroutines. The
// result is computed once per pipeline; later calls return it unchanged and
// must not modify it.
func (p *Pipeline) CascadeStudyContext(ctx context.Context) (*CascadeResult, error) {
	return cached(&p.memo, memoKey{"cascade-study", 0}, func() (*CascadeResult, error) { return p.cascadeStudy(ctx) })
}

func (p *Pipeline) cascadeStudy(ctx context.Context) (*CascadeResult, error) {
	root := p.span("cascade-study")
	defer root.End()
	w, d, err := p.deployment(hypergiant.Epoch2023)
	if err != nil {
		return nil, err
	}
	sp := p.span("cascade-study/build-model")
	m := capacity.Build(d, capacity.ConfigFromScenario(p.spec(), p.Seed))
	sp.End()
	hosts := d.HostingISPs()
	sctx, sp := p.spanCtx(ctx, "cascade-study/facility-sweep")
	st, err := cascade.SweepContext(sctx, m, d, hosts, p.Workers)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetAttr("scenarios", st.Scenarios)
	sp.End()
	out := &CascadeResult{
		Scenarios:          st.Scenarios,
		MeanHGsPerFailure:  st.MeanHGsPerFailure,
		CongestionFraction: st.CongestionFraction,
		MeanCollateralISPs: st.MeanCollateralISPs,
	}

	// Find the worst case: fail the facility hosting the most hypergiants
	// in the ISP with the most users among multi-hypergiant facilities.
	var worstAS inet.ASN
	var worstFID inet.FacilityID
	var worstScore float64
	for _, as := range hosts {
		fid, n := cascade.TopFacility(d, as)
		if n < 2 {
			continue
		}
		score := float64(n) * w.ISPs[as].Users
		if score > worstScore {
			worstScore, worstAS, worstFID = score, as, fid
		}
	}
	if worstScore > 0 {
		sctx, sp = p.spanCtx(ctx, "cascade-study/worst-case-qoe")
		defer sp.End()
		sc := cascade.DefaultScenario()
		sc.SharedHeadroom = 1.1
		sc.FailFacilities = map[inet.FacilityID]bool{worstFID: true}
		rep := cascade.Simulate(m, d, sc)

		// Session-level QoE: baseline vs this worst case.
		base := cascade.Simulate(m, d, cascade.DefaultScenario())
		scfg := session.ConfigFromScenario(p.spec(), p.Seed)
		scfg.Workers = p.Workers
		baseSessions, err := session.RunContext(sctx, m, d, base, scfg)
		if err != nil {
			return nil, err
		}
		worstSessions, err := session.RunContext(sctx, m, d, rep, scfg)
		if err != nil {
			return nil, err
		}
		out.BaselineQoE = qoeRow(session.Score(baseSessions))
		out.WorstQoE = qoeRow(session.Score(worstSessions))

		var hgs []string
		for _, hg := range rep.HGsImpacted {
			hgs = append(hgs, hg.String())
		}
		out.Worst = CascadeScenario{
			ISP:               w.ISPs[worstAS].Name,
			Facility:          w.Facilities[worstFID].Name(),
			HGsKnockedOut:     hgs,
			DirectUsers:       rep.DirectUsers(w),
			CollateralISPs:    len(rep.CollateralISPs),
			CollateralUsers:   rep.CollateralUsers(w),
			CongestedIXPs:     len(rep.CongestedIXPs()),
			CongestedTransits: len(rep.CongestedTransits()),
		}
		sp.SetAttr("collateral_isps", out.Worst.CollateralISPs)
	}
	return out, nil
}

func qoeRow(q session.QoE) QoERow {
	return QoERow{
		MedianRTTms:  q.MedianRTT,
		P95RTTms:     q.P95RTT,
		OffnetPct:    100 * q.OffnetShare,
		DroppedPct:   100 * q.DroppedShare,
		SessionCount: q.Sessions,
	}
}

// PerfectStorm runs the §4.3 worst case on demand: simultaneous surge on
// every hypergiant plus failure of the N most-colocated facilities.
func (p *Pipeline) PerfectStorm(failures int, surge float64) (*CascadeScenario, error) {
	return p.PerfectStormContext(context.Background(), failures, surge)
}

// PerfectStormContext is PerfectStorm with cancellation (the scenario is a
// single simulation, so the context only gates entry).
func (p *Pipeline) PerfectStormContext(ctx context.Context, failures int, surge float64) (*CascadeScenario, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	root := p.span("perfect-storm")
	root.SetAttr("failures", failures)
	root.SetAttr("surge", surge)
	defer root.End()
	w, d, err := p.deployment(hypergiant.Epoch2023)
	if err != nil {
		return nil, err
	}
	m := capacity.Build(d, capacity.ConfigFromScenario(p.spec(), p.Seed))
	sc := cascade.DefaultScenario()
	sc.Surge = map[traffic.HG]float64{
		traffic.Google: surge, traffic.Netflix: surge,
		traffic.Meta: surge, traffic.Akamai: surge,
	}
	sc.FailFacilities = make(map[inet.FacilityID]bool)
	for _, as := range d.HostingISPs() {
		if len(sc.FailFacilities) >= failures {
			break
		}
		if fid, n := cascade.TopFacility(d, as); n >= 2 {
			sc.FailFacilities[fid] = true
		}
	}
	rep := cascade.Simulate(m, d, sc)
	var hgs []string
	for _, hg := range rep.HGsImpacted {
		hgs = append(hgs, hg.String())
	}
	return &CascadeScenario{
		ISP:               fmt.Sprintf("%d ISPs", len(rep.DirectISPs)),
		Facility:          fmt.Sprintf("%d facilities", len(sc.FailFacilities)),
		HGsKnockedOut:     hgs,
		DirectUsers:       rep.DirectUsers(w),
		CollateralISPs:    len(rep.CollateralISPs),
		CollateralUsers:   rep.CollateralUsers(w),
		CongestedIXPs:     len(rep.CongestedIXPs()),
		CongestedTransits: len(rep.CongestedTransits()),
	}, nil
}

// String renders the study.
func (r *CascadeResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4.3 cascade sweep: %d top-facility failures simulated\n", r.Scenarios)
	fmt.Fprintf(&b, "  mean hypergiants knocked out per failure: %.2f\n", r.MeanHGsPerFailure)
	fmt.Fprintf(&b, "  scenarios congesting a shared link: %.0f%%\n", 100*r.CongestionFraction)
	fmt.Fprintf(&b, "  mean collateral ISPs per scenario: %.1f\n", r.MeanCollateralISPs)
	if r.BaselineQoE.SessionCount > 0 {
		fmt.Fprintf(&b, "  session QoE: median %.0f→%.0f ms, p95 %.0f→%.0f ms, dropped %.1f%%→%.1f%% (baseline→worst case)\n",
			r.BaselineQoE.MedianRTTms, r.WorstQoE.MedianRTTms,
			r.BaselineQoE.P95RTTms, r.WorstQoE.P95RTTms,
			r.BaselineQoE.DroppedPct, r.WorstQoE.DroppedPct)
	}
	if r.Worst.Facility != "" {
		fmt.Fprintf(&b, "  worst case: %s at %s knocks out %s; %.1fM direct users, %d collateral ISPs (%.1fM users), %d IXPs + %d transits congested\n",
			r.Worst.ISP, r.Worst.Facility, strings.Join(r.Worst.HGsKnockedOut, "+"),
			r.Worst.DirectUsers/1e6, r.Worst.CollateralISPs, r.Worst.CollateralUsers/1e6,
			r.Worst.CongestedIXPs, r.Worst.CongestedTransits)
	}
	return b.String()
}
