package coloc

import (
	"context"
	"fmt"
	"math"
	"testing"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/mlab"
	"offnetrisk/internal/optics"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/stats"
	"offnetrisk/internal/traffic"
)

// fullPipeline builds world → deployment → campaign → analysis.
func fullPipeline(t *testing.T, seed int64) (*hypergiant.Deployment, *mlab.Campaign, *Analysis) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := mlab.MeasureContext(ctx, d, mlab.Sites(163, seed), mlab.ConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeMixContext(ctx, w, c, []float64{0.1, 0.9}, 1, traffic.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	return d, c, a
}

// distanceMatrix builds a one-worker distance matrix at the paper's
// discrepancy exclusion, failing the test on error.
func distanceMatrix(t *testing.T, ms []*mlab.Measurement, sites []int) *DistMatrix {
	t.Helper()
	m, err := DistanceMatrixContext(context.Background(), ms, sites, DiscrepancyExclusion, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPairDistance(t *testing.T) {
	a := []float64{1, 2, 3, 4, 100}
	b := []float64{1, 2, 3, 4, 0}
	sites := []int{0, 1, 2, 3, 4}
	// With 20% exclusion the discrepant site 4 is dropped: distance 0.
	if d := PairDistance(a, b, sites, 0.2); d != 0 {
		t.Errorf("distance with exclusion = %v, want 0", d)
	}
	// Without exclusion the 100ms discrepancy dominates: 100/5 = 20.
	if d := PairDistance(a, b, sites, 0); math.Abs(d-20) > 1e-9 {
		t.Errorf("distance without exclusion = %v, want 20", d)
	}
	// NaN sites are skipped.
	c := []float64{1, math.NaN(), 3, 4, 0}
	if d := PairDistance(a, c, sites, 0); math.IsNaN(d) {
		t.Error("NaN leaked into distance")
	}
	// All-NaN → +Inf.
	nan := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	if d := PairDistance(a, nan, sites, 0.2); !math.IsInf(d, 1) {
		t.Errorf("all-NaN distance = %v, want +Inf", d)
	}
}

func TestDistanceMatrixSymmetricZeroDiag(t *testing.T) {
	_, c, _ := fullPipeline(t, 1)
	for as, ms := range c.ByISP {
		if len(ms) < 2 {
			continue
		}
		dm := distanceMatrix(t, ms, c.GoodSites[as])
		if dm.N() != len(ms) {
			t.Fatalf("N = %d, want %d", dm.N(), len(ms))
		}
		for i := 0; i < dm.N(); i++ {
			if dm.At(i, i) != 0 {
				t.Fatalf("diagonal not zero: %v", dm.At(i, i))
			}
			for j := 0; j < dm.N(); j++ {
				if dm.At(i, j) != dm.At(j, i) {
					t.Fatalf("matrix asymmetric at %d,%d", i, j)
				}
				if dm.At(i, j) < 0 {
					t.Fatalf("negative distance at %d,%d", i, j)
				}
				if i != j {
					if want := PairDistance(ms[i].RTTms, ms[j].RTTms, c.GoodSites[as], DiscrepancyExclusion); dm.At(i, j) != want {
						t.Fatalf("cell %d,%d = %v, want PairDistance %v", i, j, dm.At(i, j), want)
					}
				}
			}
		}
		break
	}
}

func TestClusteringRecoversGroundTruth(t *testing.T) {
	// Ground truth check at both ξ bounds. The latency model has rack-level
	// structure (per-rack sub-ms route detours), so the conservative ξ=0.1
	// recovers rack groups — same-rack pairs must co-cluster — while the
	// permissive ξ=0.9 merges racks back into facilities — same-facility
	// pairs must co-cluster. Different metros must stay separate at both.
	d, c, a := fullPipeline(t, 1)
	w := d.World

	check := func(xi float64, sameGroup func(a, b *mlab.Measurement) bool, label string, wantFrac, wantMetroSep float64) {
		var total, ok int
		var diffMetroTotal, diffMetroSplit int
		for as, isp := range a.PerISP {
			if host, ok := w.ISPs[as]; !ok || !host.IsAccess() {
				// Transit POP facilities sit in metros chosen independently;
				// the rack/facility ground-truth assertions target access
				// networks, as the paper's validation does.
				continue
			}
			ms := c.ByISP[as]
			labels := isp.PerXi[xi].Labels
			for i := 0; i < len(ms); i++ {
				for j := i + 1; j < len(ms); j++ {
					fi := w.Facilities[ms[i].Target.Facility]
					fj := w.Facilities[ms[j].Target.Facility]
					if fi.Metro.Code != fj.Metro.Code {
						diffMetroTotal++
						if labels[i] != labels[j] || labels[i] < 0 {
							diffMetroSplit++
						}
						continue
					}
					if !sameGroup(ms[i], ms[j]) {
						continue
					}
					total++
					if labels[i] == labels[j] && labels[i] >= 0 {
						ok++
					}
				}
			}
		}
		if total == 0 {
			t.Fatalf("ξ=%v: no %s pairs to validate", xi, label)
		}
		if f := float64(ok) / float64(total); f < wantFrac {
			t.Errorf("ξ=%v: %s pairs clustered together: %.2f, want ≥%.2f", xi, label, f, wantFrac)
		}
		if diffMetroTotal > 0 {
			if f := float64(diffMetroSplit) / float64(diffMetroTotal); f < wantMetroSep {
				t.Errorf("ξ=%v: different-metro pairs separated: %.2f, want ≥%.2f", xi, f, wantMetroSep)
			}
		}
	}

	sameRack := func(a, b *mlab.Measurement) bool {
		return a.Target.Facility == b.Target.Facility && a.Target.Rack == b.Target.Rack
	}
	sameFacility := func(a, b *mlab.Measurement) bool {
		return a.Target.Facility == b.Target.Facility
	}
	check(0.1, sameRack, "same-rack", 0.9, 0.9)
	// The permissive ξ=0.9 occasionally merges latency-close metros in one
	// country — the paper's own validation sees this too (2 of 34 clusters
	// spanned cities in the same country).
	// Pair-level separation at ξ=0.9 is weak by construction: a handful of
	// big merged clusters in latency-close metros contribute many pairs
	// (cluster-level validation in internal/rdns stays ≈93% single-city,
	// matching the paper's 30/34).
	check(0.9, sameFacility, "same-facility", 0.85, 0.6)
}

func TestTable2Shape(t *testing.T) {
	_, _, a := fullPipeline(t, 1)
	rows := a.Table2()
	if len(rows) != 8 { // 4 HGs × 2 ξ
		t.Fatalf("Table2 rows = %d, want 8", len(rows))
	}
	for _, row := range rows {
		sum := row.SoleFrac
		for b := stats.BucketZero; b < stats.NumBuckets; b++ {
			if row.BucketFrac[b] < 0 || row.BucketFrac[b] > 1 {
				t.Errorf("%s ξ=%v bucket %v out of range: %v", row.HG, row.Xi, b, row.BucketFrac[b])
			}
			sum += row.BucketFrac[b]
		}
		if math.Abs(sum-1) > 1e-9 && sum != 0 {
			t.Errorf("%s ξ=%v row sums to %v", row.HG, row.Xi, sum)
		}
	}
	// Direction: at ξ=0.9 the fully-colocated bucket must not shrink
	// relative to ξ=0.1 for the same hypergiant (Table 2's dominant trend,
	// e.g. Meta 32%→84%, Google 33%→62%).
	byKey := make(map[string]Table2Row)
	for _, row := range rows {
		key := row.HG.String()
		if row.Xi == 0.1 {
			byKey[key+"-lo"] = row
		} else {
			byKey[key+"-hi"] = row
		}
	}
	regressions := 0
	for _, hg := range traffic.All {
		lo := byKey[hg.String()+"-lo"]
		hi := byKey[hg.String()+"-hi"]
		if hi.BucketFrac[stats.BucketFull] < lo.BucketFrac[stats.BucketFull]-0.05 {
			regressions++
			t.Logf("%s: full-colocation at ξ=0.9 (%.2f) < ξ=0.1 (%.2f)",
				hg, hi.BucketFrac[stats.BucketFull], lo.BucketFrac[stats.BucketFull])
		}
	}
	if regressions > 1 {
		t.Errorf("ξ=0.9 shrank full colocation for %d hypergiants", regressions)
	}
	// Sole fraction is ξ-independent.
	for _, hg := range traffic.All {
		lo, hi := byKey[hg.String()+"-lo"], byKey[hg.String()+"-hi"]
		if math.Abs(lo.SoleFrac-hi.SoleFrac) > 1e-9 {
			t.Errorf("%s sole fraction differs across ξ", hg)
		}
	}
}

func TestColocationIsCommon(t *testing.T) {
	// The paper's core claim: most multi-HG ISPs colocate at least some
	// offnets (81–95%). Check at ξ=0.1 (conservative).
	_, _, a := fullPipeline(t, 1)
	rows := a.Table2()
	for _, row := range rows {
		if row.Xi != 0.1 {
			continue
		}
		multi := 1 - row.SoleFrac
		if multi <= 0 {
			continue
		}
		noColoc := row.BucketFrac[stats.BucketZero]
		someColoc := (multi - noColoc) / multi
		if someColoc < 0.55 {
			t.Errorf("%s: only %.2f of multi-HG hosts colocate (paper: 0.81–0.95)", row.HG, someColoc)
		}
	}
}

func TestFigure2CCDF(t *testing.T) {
	_, _, a := fullPipeline(t, 1)
	for _, xi := range []float64{0.1, 0.9} {
		ccdf := a.Figure2(xi)
		if len(ccdf) == 0 {
			t.Fatalf("empty CCDF at ξ=%v", xi)
		}
		if ccdf[0].Frac != 1 {
			t.Errorf("CCDF must start at 1, got %v", ccdf[0].Frac)
		}
		// Max possible single-facility share is the all-four sum ≈ 0.52.
		for _, p := range ccdf {
			if p.X > traffic.CombinedFacilityShare(traffic.All)+1e-9 {
				t.Errorf("facility share %v exceeds the four-HG maximum", p.X)
			}
		}
		// A meaningful share of users must sit at ≥25% (paper: 71–82% of
		// analyzable users).
		if got := stats.CCDFAt(ccdf, 0.25); got < 0.3 {
			t.Errorf("ξ=%v: users with ≥25%% single-facility share = %.2f, want substantial", xi, got)
		}
	}
}

func TestSingleSiteFractions(t *testing.T) {
	// §4.1: Netflix has the most single-site deployments (75.3–91.2%);
	// every hypergiant has a majority of single-site host ISPs somewhere in
	// the ξ bounds.
	_, _, a := fullPipeline(t, 1)
	for _, hg := range traffic.All {
		lo := a.SingleSiteFrac(hg, 0.1)
		hi := a.SingleSiteFrac(hg, 0.9)
		if lo <= 0 && hi <= 0 {
			t.Errorf("%s: zero single-site fraction at both ξ", hg)
		}
		if lo > 1 || hi > 1 {
			t.Errorf("%s: fraction out of range (%v, %v)", hg, lo, hi)
		}
	}
	nf01 := a.SingleSiteFrac(traffic.Netflix, 0.1)
	g01 := a.SingleSiteFrac(traffic.Google, 0.1)
	if nf01 < g01-0.25 {
		t.Errorf("Netflix single-site (%.2f) should not be far below Google (%.2f)", nf01, g01)
	}
}

func TestUserShareAtLeast(t *testing.T) {
	_, _, a := fullPipeline(t, 1)
	// Monotone in the threshold.
	prev := 1.1
	for _, share := range []float64{0.0, 0.1, 0.25, 0.4, 0.52} {
		got := a.UserShareAtLeast(0.1, share)
		if got < 0 || got > 1 {
			t.Fatalf("share %v: fraction %v out of range", share, got)
		}
		if got > prev+1e-9 {
			t.Fatalf("UserShareAtLeast not monotone at %v", share)
		}
		prev = got
	}
}

func TestFigure1(t *testing.T) {
	d, _, _ := fullPipeline(t, 1)
	w := d.World
	hosting := make(map[inet.ASN][]traffic.HG)
	for _, as := range d.HostingISPs() {
		hosting[as] = d.HGsIn(as)
	}
	rows := Figure1(w, hosting)
	if len(rows) == 0 {
		t.Fatal("no country rows")
	}
	for _, row := range rows {
		if row.AtLeast2 > row.AtLeastOne+1e-9 || row.AtLeast3 > row.AtLeast2+1e-9 || row.AllFour > row.AtLeast3+1e-9 {
			t.Errorf("%s: non-monotone shares %+v", row.Country, row)
		}
		for _, v := range []float64{row.AtLeastOne, row.AtLeast2, row.AtLeast3, row.AllFour} {
			if v < 0 || v > 1+1e-9 {
				t.Errorf("%s: share out of range: %+v", row.Country, row)
			}
		}
	}
	one, two, three, four := GlobalUserShares(w, hosting)
	if !(one >= two && two >= three && three >= four) {
		t.Errorf("global shares non-monotone: %v %v %v %v", one, two, three, four)
	}
	if one < 0.5 {
		t.Errorf("global ≥1 share = %.2f, want majority of users (paper: 0.76)", one)
	}
	if four <= 0 {
		t.Error("no users in all-four ISPs; Figure 1c would be empty")
	}
}

func TestAnalysisDeterministic(t *testing.T) {
	_, _, a1 := fullPipeline(t, 6)
	_, _, a2 := fullPipeline(t, 6)
	if len(a1.PerISP) != len(a2.PerISP) {
		t.Fatal("analysis not deterministic")
	}
	for as, r1 := range a1.PerISP {
		r2 := a2.PerISP[as]
		if r2 == nil {
			t.Fatal("ISP missing in repeat run")
		}
		for _, xi := range []float64{0.1, 0.9} {
			for i := range r1.PerXi[xi].Labels {
				if r1.PerXi[xi].Labels[i] != r2.PerXi[xi].Labels[i] {
					t.Fatal("labels differ across identical runs")
				}
			}
		}
	}
}

func TestPairScoreArithmetic(t *testing.T) {
	s := PairScore{TruePos: 8, FalsePos: 2, FalseNeg: 2}
	if p := s.Precision(); math.Abs(p-0.8) > 1e-9 {
		t.Errorf("precision = %v", p)
	}
	if r := s.Recall(); math.Abs(r-0.8) > 1e-9 {
		t.Errorf("recall = %v", r)
	}
	if f := s.F1(); math.Abs(f-0.8) > 1e-9 {
		t.Errorf("f1 = %v", f)
	}
	var zero PairScore
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Error("zero score must not divide by zero")
	}
}

func TestGroundTruthScoring(t *testing.T) {
	// The simulation-only capability: exact clustering accuracy. ξ=0.1
	// must recover rack structure nearly perfectly; ξ=0.9 must recover
	// facility structure with high recall.
	d, c, a := fullPipeline(t, 1)
	w := d.World

	rack01 := a.ScoreAnalysis(w, c, 0.1, ByRack)
	if f := rack01.F1(); f < 0.9 {
		t.Errorf("ξ=0.1 rack F1 = %.3f, want ≥0.9", f)
	}
	fac09 := a.ScoreAnalysis(w, c, 0.9, ByFacility)
	if r := fac09.Recall(); r < 0.85 {
		t.Errorf("ξ=0.9 facility recall = %.3f, want ≥0.85", r)
	}
	// ξ=0.1 deliberately under-merges at facility granularity (it sees
	// racks); recall must therefore be lower than at ξ=0.9.
	fac01 := a.ScoreAnalysis(w, c, 0.1, ByFacility)
	if fac01.Recall() >= fac09.Recall() {
		t.Errorf("facility recall should rise with ξ: %.3f vs %.3f",
			fac01.Recall(), fac09.Recall())
	}
}

func TestTrafficConcentration(t *testing.T) {
	_, _, a := fullPipeline(t, 1)
	for _, xi := range []float64{0.1, 0.9} {
		hhi := a.MeanTrafficHHI(xi)
		// A facility can serve at most ~52% of traffic (all four HGs), so
		// HHI sits between the diffuse floor and full concentration.
		if hhi <= 0.1 || hhi >= 1 {
			t.Errorf("ξ=%v: mean traffic HHI = %.3f out of plausible range", xi, hhi)
		}
	}
	// Per-ISP values are valid HHIs.
	for _, isp := range a.PerISP {
		for _, xi := range []float64{0.1, 0.9} {
			if h := isp.PerXi[xi].TrafficHHI; h < 0 || h > 1 {
				t.Fatalf("HHI out of range: %v", h)
			}
		}
	}
	// Merging clusters (ξ=0.9) concentrates traffic: user-weighted HHI must
	// not decrease relative to ξ=0.1.
	if a.MeanTrafficHHI(0.9) < a.MeanTrafficHHI(0.1)-1e-9 {
		t.Errorf("HHI fell with merging: %.3f → %.3f", a.MeanTrafficHHI(0.1), a.MeanTrafficHHI(0.9))
	}
}

// TestUserWeightedSumsAscendingASN guards the user-weighted aggregates
// against float sums in map iteration order: eight one-user ISPs and one
// 1e16-user ISP sum exactly only when the ones come first, as they do in
// ascending-ASN order (each 1 added to 1e16 is lost; its ulp is 2).
func TestUserWeightedSumsAscendingASN(t *testing.T) {
	w := &inet.World{ISPs: make(map[inet.ASN]*inet.ISP)}
	hosting := make(map[inet.ASN][]traffic.HG)
	a := &Analysis{PerISP: make(map[inet.ASN]*ISPResult)}
	for as := inet.ASN(1); as <= 9; as++ {
		users, hhi, share := 1.0, 1.0, 0.5
		if as == 9 {
			users, hhi, share = 1e16, 0.5, 0.1
		}
		w.ISPs[as] = &inet.ISP{ASN: as, Country: "US", Tier: inet.TierAccess, Users: users}
		hosting[as] = []traffic.HG{traffic.Google, traffic.Netflix}
		a.PerISP[as] = &ISPResult{ASN: as, Users: users,
			PerXi: map[float64]*XiResult{0.1: {TrafficHHI: hhi, BestShare: share}}}
	}
	total, big := 1e16+8.0, 5e15+8.0
	for i := 0; i < 50; i++ {
		if one, two, _, _ := GlobalUserShares(w, hosting); one != 1 || two != 1 {
			t.Fatalf("GlobalUserShares ≥1/≥2 = %v/%v, want 1/1", one, two)
		}
		if rows := Figure1(w, hosting); len(rows) != 1 || rows[0].AtLeast2 != 1 {
			t.Fatalf("Figure1 = %+v, want one country with AtLeast2 1", rows)
		}
		if got := a.MeanTrafficHHI(0.1); got != big/total {
			t.Fatalf("MeanTrafficHHI = %v, want %v", got, big/total)
		}
		if got := a.UserShareAtLeast(0.1, 0.25); got != 8/total {
			t.Fatalf("UserShareAtLeast = %v, want %v", got, 8/total)
		}
	}
}

// TestBusiestReachMatchesStandaloneRun: the reachability the analysis keeps
// is the one a standalone OPTICS run over the busiest ISP's distance matrix
// computes — the ISP with the most measured offnets, lowest ASN on ties.
func TestBusiestReachMatchesStandaloneRun(t *testing.T) {
	_, c, a := fullPipeline(t, 42)
	var busiest inet.ASN
	for as, ms := range c.ByISP {
		if n := len(c.ByISP[busiest]); len(ms) > n || (len(ms) == n && as < busiest) {
			busiest = as
		}
	}
	ms := c.ByISP[busiest]
	want := optics.Run(len(ms), distanceMatrix(t, ms, c.GoodSites[busiest]).At, 2, math.Inf(1)).Reach
	if len(want) < 2 || fmt.Sprint(a.BusiestReach) != fmt.Sprint(want) {
		t.Fatalf("BusiestReach (%d values) differs from the standalone run over ISP %d (%d values)",
			len(a.BusiestReach), busiest, len(want))
	}
}
