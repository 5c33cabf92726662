package offnetrisk

import (
	"context"
	"fmt"
	"strings"

	"offnetrisk/internal/coloc"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/mlab"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/rdns"
	"offnetrisk/internal/stats"
	"offnetrisk/internal/traffic"
)

// Xis are the two steepness values the paper clusters with, "likely
// bounding the actual colocation".
var Xis = []float64{0.1, 0.9}

// Table2Row is one row of Table 2.
type Table2Row struct {
	Hypergiant string
	Xi         float64
	SolePct    float64
	// Bucket percentages over ISPs hosting the hypergiant:
	// {0%, (0,50)%, [50,100)%, 100%} of offnets colocated with another
	// hypergiant. SolePct + ΣBuckets ≈ 100.
	BucketPct [4]float64
}

// Figure2Point is one point of the Figure 2 CCDF.
type Figure2Point struct {
	Share float64 // estimated fraction of traffic from one facility
	Users float64 // fraction of users with at least this share
}

// CountryRow is one country of Figure 1.
type CountryRow struct {
	Country  string
	Users    float64
	AtLeast2 float64
	AtLeast3 float64
	AllFour  float64
}

// ValidationRow is one ξ of the §3.2 rDNS validation.
type ValidationRow struct {
	Xi              float64
	Evaluated       int
	SingleCity      int
	SingleMetroArea int
	MultipleCities  int
	Accuracy        float64
}

// ColocationResult bundles the §3 analyses: Table 2, Figures 1 and 2, the
// clustering validation, the single-site statistics of §4.1, and the §3.2
// headline user-share numbers.
type ColocationResult struct {
	Table2  []Table2Row
	Figure2 map[float64][]Figure2Point
	Figure1 []CountryRow
	// Global user shares (Figure 1 summary): fraction of all users in ISPs
	// hosting ≥1/≥2/≥3/4 hypergiants. Paper: 76% for ≥1.
	UsersAtLeast1, UsersAtLeast2, UsersAtLeast3, UsersAllFour float64
	// UsersAnalyzable is the fraction of users in ISPs that passed the
	// measurement gates (paper: 56%).
	UsersAnalyzable float64
	// UserShare25Pct is, per ξ, the fraction of analyzable users whose ISP
	// has one facility able to serve ≥25% of their traffic (paper: 71–82%).
	UserShare25Pct map[float64]float64
	// TrafficHHI is the user-weighted mean Herfindahl index of traffic
	// concentration across facilities, per ξ — §1's "concentration of
	// traffic" as a single number.
	TrafficHHI map[float64]float64
	// SingleSitePct is, per hypergiant per ξ, the share of host ISPs with
	// a single site (§4.1).
	SingleSitePct map[string]map[float64]float64
	Validation    []ValidationRow
	// Reachability is the OPTICS reachability plot (distances in processing
	// order) of the busiest analyzed ISP: the one with the most measured
	// offnets, lowest ASN on ties.
	Reachability []float64
	// Campaign accounting (Appendix A).
	Unresponsive, Impossible, MeasuredISPs int
}

// ColocationContext runs the full §3 pipeline on the 2023 deployment:
// latency campaign from 163 vantage points, per-ISP OPTICS clustering at
// both ξ, Table 2 bucketing, Figure 1/2 aggregation, and the rDNS
// validation. The ping campaign and the per-ISP OPTICS clustering fan out
// across p.Workers goroutines. The result is computed once per pipeline;
// later calls return it unchanged and must not modify it.
func (p *Pipeline) ColocationContext(ctx context.Context) (*ColocationResult, error) {
	return cached(&p.memo, memoKey{"colocation", 0}, func() (*ColocationResult, error) { return p.colocation(ctx) })
}

func (p *Pipeline) colocation(ctx context.Context) (*ColocationResult, error) {
	root := p.span("colocation")
	defer root.End()
	w, d, err := p.deployment(hypergiant.Epoch2023)
	if err != nil {
		return nil, err
	}
	sctx, sp := p.spanCtx(ctx, "colocation/ping-campaign")
	sites := mlab.Sites(p.spec().Measurement.PingSites, p.Seed)
	mcfg := mlab.ConfigFromScenario(p.spec(), p.Seed)
	mcfg.Workers = p.Workers
	mcfg.Chaos = p.Chaos
	campaign, err := mlab.MeasureContext(sctx, d, sites, mcfg)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetAttr("measured_isps", campaign.MeasuredISPs)
	sp.SetAttr("unresponsive", campaign.Unresponsive)
	sp.End()
	sctx, sp = p.spanCtx(ctx, "colocation/optics-cluster")
	analysis, err := coloc.AnalyzeMixContext(sctx, w, campaign, Xis, p.Workers, p.spec().Mix())
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetAttr("isps_clustered", len(analysis.PerISP))
	sp.End()

	sp = p.span("colocation/aggregate")
	out := &ColocationResult{
		Figure2:        make(map[float64][]Figure2Point),
		UserShare25Pct: make(map[float64]float64),
		TrafficHHI:     make(map[float64]float64),
		SingleSitePct:  make(map[string]map[float64]float64),
		Unresponsive:   campaign.Unresponsive,
		Impossible:     campaign.Impossible,
		MeasuredISPs:   campaign.MeasuredISPs,
		Reachability:   analysis.BusiestReach,
	}

	for _, row := range analysis.Table2() {
		r := Table2Row{Hypergiant: row.HG.String(), Xi: row.Xi, SolePct: 100 * row.SoleFrac}
		for b := stats.BucketZero; b < stats.NumBuckets; b++ {
			r.BucketPct[int(b)] = 100 * row.BucketFrac[b]
		}
		out.Table2 = append(out.Table2, r)
	}

	for _, xi := range Xis {
		for _, pt := range analysis.Figure2(xi) {
			out.Figure2[xi] = append(out.Figure2[xi], Figure2Point{Share: pt.X, Users: pt.Frac})
		}
		out.UserShare25Pct[xi] = analysis.UserShareAtLeast(xi, 0.25)
		out.TrafficHHI[xi] = analysis.MeanTrafficHHI(xi)
	}

	hosting := make(map[inet.ASN][]traffic.HG)
	for _, as := range d.HostingISPs() {
		hosting[as] = d.HGsIn(as)
	}
	for _, row := range coloc.Figure1(w, hosting) {
		out.Figure1 = append(out.Figure1, CountryRow{
			Country: row.Country, Users: row.Users,
			AtLeast2: row.AtLeast2, AtLeast3: row.AtLeast3, AllFour: row.AllFour,
		})
	}
	out.UsersAtLeast1, out.UsersAtLeast2, out.UsersAtLeast3, out.UsersAllFour =
		coloc.GlobalUserShares(w, hosting)

	var analyzableUsers float64
	for _, as := range inet.SortedASNs(campaign.ByISP) {
		if isp, ok := w.ISPs[as]; ok {
			analyzableUsers += isp.Users
		}
	}
	if total := w.TotalUsers(); total > 0 {
		out.UsersAnalyzable = analyzableUsers / total
	}

	for _, hg := range traffic.All {
		out.SingleSitePct[hg.String()] = make(map[float64]float64)
		for _, xi := range Xis {
			out.SingleSitePct[hg.String()][xi] = 100 * analysis.SingleSiteFrac(hg, xi)
		}
	}

	sp.SetAttr("countries", len(out.Figure1))
	sp.End()

	// §3.2 validation against synthesized PTR records.
	sp = p.span("colocation/rdns-validate")
	defer sp.End()
	ptrs := rdns.Synthesize(d, rdns.ConfigFromScenario(p.spec(), p.Seed))
	for _, xi := range Xis {
		clusters := make(map[string][][]netaddr.Addr)
		for as, isp := range analysis.PerISP {
			ms := campaign.ByISP[as]
			byLabel := make(map[int][]netaddr.Addr)
			for i, l := range isp.PerXi[xi].Labels {
				if l < 0 {
					continue
				}
				byLabel[l] = append(byLabel[l], ms[i].Target.Addr)
			}
			var list [][]netaddr.Addr
			for _, members := range byLabel {
				list = append(list, members)
			}
			clusters[fmt.Sprint(as)] = list
		}
		rep := rdns.Validate(ptrs, clusters, xi)
		out.Validation = append(out.Validation, ValidationRow{
			Xi: xi, Evaluated: rep.ClustersEvaluated,
			SingleCity: rep.SingleCity, SingleMetroArea: rep.SingleMetroArea,
			MultipleCities: rep.MultipleCities, Accuracy: rep.Accuracy(),
		})
	}
	return out, nil
}

// String renders Table 2 plus the headline numbers.
func (r *ColocationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: %% of host ISPs by colocation bucket\n")
	fmt.Fprintf(&b, "%-8s %4s %6s %8s %10s %12s %7s\n",
		"HG", "xi", "sole", "0%", "(0,50)%", "[50,100)%", "100%")
	for _, row := range r.Table2 {
		fmt.Fprintf(&b, "%-8s %4.1f %5.0f%% %7.0f%% %9.0f%% %11.0f%% %6.0f%%\n",
			row.Hypergiant, row.Xi, row.SolePct,
			row.BucketPct[0], row.BucketPct[1], row.BucketPct[2], row.BucketPct[3])
	}
	fmt.Fprintf(&b, "\nusers in ISPs hosting ≥1/≥2/≥3/4 hypergiants: %.0f%% / %.0f%% / %.0f%% / %.0f%%\n",
		100*r.UsersAtLeast1, 100*r.UsersAtLeast2, 100*r.UsersAtLeast3, 100*r.UsersAllFour)
	for _, xi := range Xis {
		fmt.Fprintf(&b, "ξ=%.1f: users with a ≥25%%-of-traffic facility: %.0f%%; traffic concentration HHI %.2f\n",
			xi, 100*r.UserShare25Pct[xi], r.TrafficHHI[xi])
	}
	for _, v := range r.Validation {
		fmt.Fprintf(&b, "validation ξ=%.1f: %d clusters evaluated, %d single-city, %d metro, %d multi-city (%.0f%% consistent)\n",
			v.Xi, v.Evaluated, v.SingleCity, v.SingleMetroArea, v.MultipleCities, 100*v.Accuracy)
	}
	return b.String()
}
