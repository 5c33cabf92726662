// Package coloc performs the paper's colocation analysis (§3.2, Appendix A):
// per-ISP OPTICS clustering of offnet latency vectors into facility-level
// sites, the Table 2 colocation bucketing, the Figure 1 per-country
// aggregation, the Figure 2 traffic-share CCDF, and the §4.1 single-site
// statistics.
package coloc

import (
	"context"
	"fmt"
	"math"
	"sort"

	"offnetrisk/internal/inet"
	"offnetrisk/internal/mlab"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/optics"
	"offnetrisk/internal/par"
	"offnetrisk/internal/stats"
	"offnetrisk/internal/traffic"
)

var (
	mISPsAnalyzed = obs.NewCounter("coloc.isps_analyzed",
		"ISPs put through the per-ISP OPTICS clustering")
	mDistancesComputed = obs.NewCounter("coloc.distances_computed",
		"pairwise latency-vector distances computed")
)

// fPairs accounts per-site samples flowing through the pair-distance kernel:
// in = sites considered per pair, dropped = NaN-sided samples plus the 20%
// largest-discrepancy exclusion (Appendix A), out = samples actually summed.
// The hot path batches these in PairScratch and flushes per pair-block, so
// the kernel stays allocation-free; atomic integer adds commute, so the
// snapshot is identical at any worker count.
var (
	fPairs           = obs.NewFunnel("coloc.pairs", "per-site latency samples entering the pair-distance kernel vs. summed")
	fPairsNaN        = fPairs.Reason("nan_rtt")
	fPairsDiscrepant = fPairs.Reason("discrepant_20pct")
)

// fCluster accounts OPTICS cluster membership per ξ: servers entering label
// extraction vs. assigned to a cluster (noise = "not colocated").
var (
	fCluster      = obs.NewFunnel("coloc.cluster", "offnet servers entering OPTICS label extraction vs. assigned to a cluster")
	fClusterNoise = fCluster.Reason("noise")
)

// MeanTrafficHHI returns the user-weighted mean facility-traffic
// concentration index at the given ξ, summed in ascending-ASN order.
func (a *Analysis) MeanTrafficHHI(xi float64) float64 {
	var weighted, users float64
	for _, as := range inet.SortedASNs(a.PerISP) {
		isp := a.PerISP[as]
		x, ok := isp.PerXi[xi]
		if !ok {
			continue
		}
		weighted += x.TrafficHHI * isp.Users
		users += isp.Users
	}
	if users <= 0 {
		return 0
	}
	return weighted / users
}

// DiscrepancyExclusion is the fraction of vantage sites dropped per pair:
// "excluding measurements from the 20% of M-Lab sites that have the largest
// latency discrepancy between the two addresses" (Appendix A).
const DiscrepancyExclusion = 0.20

// XiResult is the clustering outcome for one ISP at one ξ.
type XiResult struct {
	// Labels aligns with the ISP's measurement slice; -1 is noise (an
	// offnet "not colocated" with anything).
	Labels []int
	// ColocFrac is, per hypergiant present, the fraction of its offnets
	// whose cluster also contains another hypergiant's offnet.
	ColocFrac map[traffic.HG]float64
	// SiteCount is the number of distinct sites per hypergiant: clusters
	// containing the hypergiant plus one site per noise server.
	SiteCount map[traffic.HG]int
	// BestHGs is the hypergiant set of the cluster hosting the most
	// distinct hypergiants (the "facility hosting the most hypergiants").
	BestHGs []traffic.HG
	// BestShare is the combined facility traffic share of that cluster.
	BestShare float64
	// TrafficHHI is the Herfindahl index of a user's traffic across the
	// ISP's facilities (clusters) plus the diffuse remainder — the
	// "concentration of traffic" of §1, as a number.
	TrafficHHI float64
}

// ISPResult is one ISP's analysis across ξ values.
type ISPResult struct {
	ASN   inet.ASN
	Users float64
	// HGs hosted by the ISP (from measured servers).
	HGs   []traffic.HG
	PerXi map[float64]*XiResult
}

// Analysis is the full colocation analysis of a measured deployment.
type Analysis struct {
	Xis    []float64
	PerISP map[inet.ASN]*ISPResult
	// BusiestReach holds the OPTICS reachability distances, in processing
	// order, of the analyzed ISP with the most measured offnets (lowest ASN
	// on ties): the raw material the ξ extraction works on.
	BusiestReach []float64
}

// ispScratch is the per-worker reusable state of the per-ISP clustering
// task: the distance matrix storage and the OPTICS working arrays. With it,
// the steady-state analysis loop performs no per-pair and no per-run
// allocations — buffers grow to the largest ISP seen and stay.
type ispScratch struct {
	dm  DistMatrix
	opt optics.Scratch
}

// AnalyzeMixContext clusters every usable ISP at each ξ, with MinPts fixed
// at the paper's n_min = 2, fanned out one ISP per task (ascending ASN):
// each task builds its own distance matrix and OPTICS ordering, touching
// nothing shared, so the per-ISP results are identical at any worker count.
// The distance matrix and the OPTICS reachability ordering depend only on
// the sites and the exclusion — not on ξ — so both are computed once per
// ISP and the per-ξ work is just the steepness extraction over the shared
// ordering. Facility traffic shares come from the given mix, so scenario
// worlds report shares consistent with their own traffic section.
func AnalyzeMixContext(ctx context.Context, w *inet.World, c *mlab.Campaign, xis []float64, workers int, mix traffic.Mix) (*Analysis, error) {
	mix = mix.Sanitized()
	a := &Analysis{Xis: xis, PerISP: make(map[inet.ASN]*ISPResult)}
	mISPsAnalyzed.Add(int64(len(c.ByISP)))
	asns := make([]inet.ASN, 0, len(c.ByISP))
	for as := range c.ByISP {
		asns = append(asns, as)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	var busiest inet.ASN
	for _, as := range asns {
		if len(c.ByISP[as]) > len(c.ByISP[busiest]) {
			busiest = as
		}
	}

	results, err := par.MapLocal(ctx, len(asns), par.Options{Workers: workers, Name: "optics-cluster"},
		func() *ispScratch { return &ispScratch{} },
		func(_ context.Context, i int, sc *ispScratch) (*ISPResult, error) {
			as := asns[i]
			ms := c.ByISP[as]
			sites := c.GoodSites[as]
			if err := DistanceMatrixInto(ctx, &sc.dm, ms, sites, DiscrepancyExclusion, 1); err != nil {
				return nil, err
			}

			res := &ISPResult{ASN: as, PerXi: make(map[float64]*XiResult)}
			if isp, ok := w.ISPs[as]; ok {
				res.Users = isp.Users
			}
			res.HGs = hostedHGs(ms)
			ord := sc.opt.Run(len(ms), sc.dm.At, 2, math.Inf(1))
			if as == busiest {
				// One task writes it; MapLocal returns after every task.
				a.BusiestReach = append([]float64(nil), ord.Reach...)
			}
			for _, xi := range xis {
				labels := ord.Labels(ord.ExtractXi(xi, 2))
				res.PerXi[xi] = summarize(ms, labels, mix)
				accountClusters(as, xi, ms, labels)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		a.PerISP[asns[i]] = res
	}
	return a, nil
}

// accountClusters feeds the coloc.cluster funnel for one ISP at one ξ and,
// under lineage, samples each member's decision. Each (ISP, ξ) is handled by
// exactly one worker task, so no two workers ever offer the same decision
// identity.
func accountClusters(as inet.ASN, xi float64, ms []*mlab.Measurement, labels []int) {
	var kept int64
	for i := range ms {
		if labels[i] >= 0 {
			kept++
		}
	}
	n := int64(len(ms))
	fCluster.In(n)
	fCluster.Out(kept)
	fClusterNoise.Add(n - kept)

	lr := obs.ActiveLineage()
	if lr == nil {
		return
	}
	group := fmt.Sprintf("isp=%d|xi=%g", as, xi)
	for i, m := range ms {
		l, m := labels[i], m
		outcome, reason := obs.LineageKept, "clustered"
		if l < 0 {
			outcome, reason = obs.LineageDropped, "noise"
		}
		lr.Record(fCluster.Name(), group, m.Target.Addr.String(), outcome, reason,
			func() []obs.LineageKV {
				return []obs.LineageKV{
					{K: "xi", V: fmt.Sprintf("%g", xi)},
					{K: "cluster", V: fmt.Sprint(l)},
					{K: "hg", V: m.Target.HG.String()},
				}
			})
	}
}

// hostedHGs lists the distinct hypergiants among measurements, in canonical
// order.
func hostedHGs(ms []*mlab.Measurement) []traffic.HG {
	var present [traffic.NumHG]bool
	for _, m := range ms {
		present[m.Target.HG] = true
	}
	var out []traffic.HG
	for _, hg := range traffic.All {
		if present[hg] {
			out = append(out, hg)
		}
	}
	return out
}

// summarize derives the per-ξ statistics from flat cluster labels.
func summarize(ms []*mlab.Measurement, labels []int, mix traffic.Mix) *XiResult {
	r := &XiResult{
		Labels:    labels,
		ColocFrac: make(map[traffic.HG]float64),
		SiteCount: make(map[traffic.HG]int),
	}

	// Cluster → hypergiant set.
	clusterHGs := make(map[int]map[traffic.HG]bool)
	for i, m := range ms {
		l := labels[i]
		if l < 0 {
			continue
		}
		if clusterHGs[l] == nil {
			clusterHGs[l] = make(map[traffic.HG]bool)
		}
		clusterHGs[l][m.Target.HG] = true
	}

	// Colocated fraction per hypergiant.
	total := make(map[traffic.HG]int)
	coloc := make(map[traffic.HG]int)
	for i, m := range ms {
		hg := m.Target.HG
		total[hg]++
		if l := labels[i]; l >= 0 && len(clusterHGs[l]) >= 2 {
			coloc[hg]++
		}
	}
	for hg, n := range total {
		r.ColocFrac[hg] = float64(coloc[hg]) / float64(n)
	}

	// Site counts: distinct clusters containing the hypergiant plus one
	// site per noise server of that hypergiant.
	seen := make(map[traffic.HG]map[int]bool)
	for i, m := range ms {
		hg := m.Target.HG
		if labels[i] < 0 {
			r.SiteCount[hg]++
			continue
		}
		if seen[hg] == nil {
			seen[hg] = make(map[int]bool)
		}
		if !seen[hg][labels[i]] {
			seen[hg][labels[i]] = true
			r.SiteCount[hg]++
		}
	}

	// Best cluster: most distinct hypergiants; ties by combined share.
	for _, hgs := range clusterHGs {
		var list []traffic.HG
		for _, hg := range traffic.All {
			if hgs[hg] {
				list = append(list, hg)
			}
		}
		share := mix.CombinedFacilityShare(list)
		if len(list) > len(r.BestHGs) || (len(list) == len(r.BestHGs) && share > r.BestShare) {
			r.BestHGs = list
			r.BestShare = share
		}
	}
	// An ISP whose servers are all noise still serves each hypergiant from
	// somewhere; its best "facility" is a single-hypergiant site.
	if r.BestHGs == nil && len(ms) > 0 {
		best := ms[0].Target.HG
		r.BestHGs = []traffic.HG{best}
		r.BestShare = mix.CombinedFacilityShare(r.BestHGs)
	}

	// Traffic concentration: one share per cluster (what its hypergiants
	// can serve of a user's traffic) plus the diffuse remainder from
	// everywhere else.
	var shares []float64
	var sum float64
	clusterIDs := make([]int, 0, len(clusterHGs))
	for l := range clusterHGs {
		clusterIDs = append(clusterIDs, l)
	}
	sort.Ints(clusterIDs)
	for _, l := range clusterIDs {
		var list []traffic.HG
		for _, hg := range traffic.All {
			if clusterHGs[l][hg] {
				list = append(list, hg)
			}
		}
		share := mix.CombinedFacilityShare(list)
		shares = append(shares, share)
		sum += share
	}
	if rest := 1 - sum; rest > 0 {
		shares = append(shares, rest)
	}
	r.TrafficHHI = stats.HHI(shares)
	return r
}

// Table2Row is one row of Table 2: a hypergiant at one ξ.
type Table2Row struct {
	HG traffic.HG
	Xi float64
	// SoleFrac is the fraction of the hypergiant's host ISPs hosting no
	// other hypergiant.
	SoleFrac float64
	// BucketFrac buckets multi-hypergiant hosts by the colocated share of
	// this hypergiant's offnets. SoleFrac + ΣBucketFrac = 1.
	BucketFrac [stats.NumBuckets]float64
}

// Table2 computes the colocation table over the analyzed ISPs.
func (a *Analysis) Table2() []Table2Row {
	var rows []Table2Row
	for _, hg := range traffic.All {
		for _, xi := range a.Xis {
			row := Table2Row{HG: hg, Xi: xi}
			var hosts, sole int
			var hist stats.Histogram
			for _, isp := range a.PerISP {
				if !hasHG(isp.HGs, hg) {
					continue
				}
				hosts++
				if len(isp.HGs) == 1 {
					sole++
					continue
				}
				hist.Add(stats.BucketOf(isp.PerXi[xi].ColocFrac[hg]))
			}
			if hosts == 0 {
				rows = append(rows, row)
				continue
			}
			row.SoleFrac = float64(sole) / float64(hosts)
			multi := float64(hosts - sole)
			for b := stats.BucketZero; b < stats.NumBuckets; b++ {
				if multi > 0 {
					row.BucketFrac[b] = float64(hist.Counts[b]) / float64(hosts)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func hasHG(hgs []traffic.HG, hg traffic.HG) bool {
	for _, h := range hgs {
		if h == hg {
			return true
		}
	}
	return false
}

// Figure2 returns the user-weighted CCDF of the estimated traffic fraction
// one facility can serve, at the given ξ, its weights taken in ascending-ASN
// order.
func (a *Analysis) Figure2(xi float64) []stats.CCDFPoint {
	var pts []stats.WeightedPoint
	for _, as := range inet.SortedASNs(a.PerISP) {
		isp := a.PerISP[as]
		x, ok := isp.PerXi[xi]
		if !ok {
			continue
		}
		pts = append(pts, stats.WeightedPoint{Value: x.BestShare, Weight: isp.Users})
	}
	return stats.WeightedCCDF(pts)
}

// SingleSiteFrac returns the fraction of the hypergiant's host ISPs with
// exactly one site at the given ξ (§4.1: e.g. "75.3%–91.2% of ISPs have only
// a single Netflix site").
func (a *Analysis) SingleSiteFrac(hg traffic.HG, xi float64) float64 {
	var hosts, single int
	for _, isp := range a.PerISP {
		x, ok := isp.PerXi[xi]
		if !ok {
			continue
		}
		n, hosted := x.SiteCount[hg]
		if !hosted {
			continue
		}
		hosts++
		if n == 1 {
			single++
		}
	}
	if hosts == 0 {
		return 0
	}
	return float64(single) / float64(hosts)
}

// UserShareAtLeast returns the fraction of analyzed users whose ISP has a
// facility able to serve at least the given traffic share (§3.2: "71%–82%
// are in an ISP with a facility ... capable of delivering at least 25% of
// their traffic"), summed in ascending-ASN order.
func (a *Analysis) UserShareAtLeast(xi, share float64) float64 {
	var total, qualifying float64
	for _, as := range inet.SortedASNs(a.PerISP) {
		isp := a.PerISP[as]
		x, ok := isp.PerXi[xi]
		if !ok {
			continue
		}
		total += isp.Users
		if x.BestShare >= share {
			qualifying += isp.Users
		}
	}
	if total == 0 {
		return 0
	}
	return qualifying / total
}
