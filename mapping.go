package offnetrisk

import (
	"context"
	"fmt"
	"strings"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/cascade"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/steer"
)

// MappingRow is one hypergiant's outcome for the DNS-based user→offnet
// mapping technique at one steering era.
type MappingRow struct {
	Hypergiant  string
	Mode        string
	CoveragePct float64
	AccuracyPct float64
	// DiscoveryPct is the share of serving offnets the technique surfaced.
	DiscoveryPct float64
}

// MappingResult reproduces the §3.2 methodological point: the 2013 DNS
// technique recovered which users are served from which offnets; under
// today's steering it cannot.
type MappingResult struct {
	Era2013 []MappingRow
	Era2023 []MappingRow
}

// MappingStudyContext runs the Calder-2013 ECS mapping technique against
// both steering eras on the 2023 deployment. The ECS probes are cheap and
// serial, so the context only gates entry. The result is computed once per
// pipeline; later calls return it unchanged and must not modify it.
func (p *Pipeline) MappingStudyContext(ctx context.Context) (*MappingResult, error) {
	return cached(&p.memo, memoKey{"mapping-study", 0}, func() (*MappingResult, error) { return p.mappingStudy(ctx) })
}

func (p *Pipeline) mappingStudy(ctx context.Context) (*MappingResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	root := p.span("mapping-study")
	defer root.End()
	w, d, err := p.deployment(hypergiant.Epoch2023)
	if err != nil {
		return nil, err
	}
	resolvers := steer.Resolvers(w, 8, p.Seed)
	sample := 6
	if p.Scale == ScaleDefault {
		sample = 3
	}
	out := &MappingResult{}
	sp := p.span("mapping-study/era-2013")
	for _, r := range steer.MapUsers(d, steer.Modes2013(), resolvers, sample, p.Seed) {
		out.Era2013 = append(out.Era2013, mappingRow(r))
	}
	sp.End()
	sp = p.span("mapping-study/era-2023")
	for _, r := range steer.MapUsers(d, steer.Modes2023(), resolvers, sample, p.Seed) {
		out.Era2023 = append(out.Era2023, mappingRow(r))
	}
	sp.End()
	return out, nil
}

func mappingRow(r steer.MappingResult) MappingRow {
	return MappingRow{
		Hypergiant:   r.HG.String(),
		Mode:         r.Mode.String(),
		CoveragePct:  r.CoveragePct(),
		AccuracyPct:  r.AccuracyPct(),
		DiscoveryPct: r.DiscoveryPct(),
	}
}

// String renders the era comparison.
func (r *MappingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.2 user→offnet DNS mapping technique (Calder et al. 2013)\n")
	render := func(title string, rows []MappingRow) {
		fmt.Fprintf(&b, "%s\n", title)
		for _, row := range rows {
			fmt.Fprintf(&b, "  %-8s %-14s coverage %5.1f%%  accuracy %5.1f%%  offnets found %5.1f%%\n",
				row.Hypergiant, row.Mode, row.CoveragePct, row.AccuracyPct, row.DiscoveryPct)
		}
	}
	render("2013-era steering:", r.Era2013)
	render("2023 steering:", r.Era2023)
	return b.String()
}

// MitigationResult reproduces the §6 what-if: per-hypergiant capacity
// isolation on shared links versus today's shared fate.
type MitigationResult struct {
	Scenarios              int
	MeanCollateralShared   float64
	MeanCollateralIsolated float64
	FullyNeutralizedPct    float64
}

// MitigationStudyContext sweeps top-facility failures under both regimes.
// The shared-vs-isolated sweep fans out across p.Workers goroutines. The
// result is computed once per pipeline; later calls return it unchanged and
// must not modify it.
func (p *Pipeline) MitigationStudyContext(ctx context.Context) (*MitigationResult, error) {
	return cached(&p.memo, memoKey{"mitigation-study", 0}, func() (*MitigationResult, error) { return p.mitigationStudy(ctx) })
}

func (p *Pipeline) mitigationStudy(ctx context.Context) (*MitigationResult, error) {
	root := p.span("mitigation-study")
	defer root.End()
	_, d, err := p.deployment(hypergiant.Epoch2023)
	if err != nil {
		return nil, err
	}
	m := capacity.Build(d, capacity.ConfigFromScenario(p.spec(), p.Seed))
	sctx, sp := p.spanCtx(ctx, "mitigation-study/sweep")
	st, err := cascade.MitigationSweepContext(sctx, m, d, d.HostingISPs(), p.Workers)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetAttr("scenarios", st.Scenarios)
	sp.End()
	out := &MitigationResult{
		Scenarios:              st.Scenarios,
		MeanCollateralShared:   st.MeanCollateralShared,
		MeanCollateralIsolated: st.MeanCollateralIsolated,
	}
	if st.Scenarios > 0 {
		out.FullyNeutralizedPct = 100 * float64(st.ScenariosFullyNeutralized) / float64(st.Scenarios)
	}
	return out, nil
}

// String renders the mitigation comparison.
func (r *MitigationResult) String() string {
	return fmt.Sprintf(
		"§6 isolation what-if over %d facility failures: mean collateral ISPs %.2f (shared fate) → %.2f (per-HG slices); %.0f%% of damaging scenarios fully neutralized\n",
		r.Scenarios, r.MeanCollateralShared, r.MeanCollateralIsolated, r.FullyNeutralizedPct)
}
