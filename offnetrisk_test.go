package offnetrisk

import (
	"strings"
	"testing"

	"offnetrisk/internal/traffic"
)

func tinyPipeline(seed int64) *Pipeline { return NewPipeline(seed, ScaleTiny) }

func TestPipelineTable1(t *testing.T) {
	p := tinyPipeline(1)
	res, err := p.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if _, ok := hgByName(row.Hypergiant); !ok {
			t.Errorf("unknown hypergiant %q", row.Hypergiant)
		}
		// Inference must match deployment ground truth exactly in the
		// simulation (the paper cannot check this; we can).
		if row.ISPs2021 != row.Truth2021 || row.ISPs2023 != row.Truth2023 {
			t.Errorf("%s: inference (%d/%d) != truth (%d/%d)",
				row.Hypergiant, row.ISPs2021, row.ISPs2023, row.Truth2021, row.Truth2023)
		}
		if row.OffnetAddrs == 0 {
			t.Errorf("%s: no offnet addresses", row.Hypergiant)
		}
	}
	// Stale-rule ablation: Google and Meta vanish.
	if res.StaleRuleISPs2023["Google"] != 0 || res.StaleRuleISPs2023["Meta"] != 0 {
		t.Errorf("stale rules should find 0 Google/Meta ISPs: %+v", res.StaleRuleISPs2023)
	}
	if res.StaleRuleISPs2023["Netflix"] == 0 {
		t.Error("stale rules should still find Netflix")
	}
	if !strings.Contains(res.String(), "Table 1") {
		t.Error("String() missing header")
	}
}

func TestPipelineColocation(t *testing.T) {
	p := tinyPipeline(1)
	res, err := p.Colocation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table2) != 8 {
		t.Fatalf("Table2 rows = %d, want 8", len(res.Table2))
	}
	for _, row := range res.Table2 {
		sum := row.SolePct
		for _, v := range row.BucketPct {
			sum += v
		}
		if sum < 99 || sum > 101 {
			t.Errorf("%s ξ=%v row sums to %.1f%%", row.Hypergiant, row.Xi, sum)
		}
	}
	for _, xi := range Xis {
		if len(res.Figure2[xi]) == 0 {
			t.Errorf("no Figure 2 points at ξ=%v", xi)
		}
		if res.UserShare25Pct[xi] <= 0 {
			t.Errorf("no users above 25%% facility share at ξ=%v", xi)
		}
	}
	if len(res.Figure1) == 0 {
		t.Error("no Figure 1 rows")
	}
	if res.UsersAtLeast1 < res.UsersAtLeast2 {
		t.Error("global user shares non-monotone")
	}
	if res.UsersAnalyzable <= 0 || res.UsersAnalyzable > 1 {
		t.Errorf("analyzable users = %v", res.UsersAnalyzable)
	}
	if len(res.Validation) != 2 {
		t.Fatalf("validation rows = %d", len(res.Validation))
	}
	for _, v := range res.Validation {
		if v.Evaluated > 0 && v.Accuracy < 0.8 {
			t.Errorf("validation accuracy %.2f at ξ=%v", v.Accuracy, v.Xi)
		}
	}
	if !strings.Contains(res.String(), "Table 2") {
		t.Error("String() missing header")
	}
}

func TestPipelinePeeringSurvey(t *testing.T) {
	p := tinyPipeline(1)
	res, err := p.PeeringSurvey()
	if err != nil {
		t.Fatal(err)
	}
	if res.Hypergiant != "Google" {
		t.Errorf("default survey should be Google, got %s", res.Hypergiant)
	}
	if res.HostsTotal == 0 || res.Traceroutes == 0 {
		t.Fatal("empty survey")
	}
	if res.HostsPeer+res.HostsPossible+res.HostsNoEvidence != res.HostsTotal {
		t.Error("host classes do not partition")
	}
	if res.PeerPct()+res.PossiblePct()+res.NoEvidencePct() < 99 {
		t.Error("percentages do not sum to 100")
	}
	if !strings.Contains(res.String(), "peering survey") {
		t.Error("String() missing header")
	}
	// The simulation can do what the paper could not: survey other HGs.
	n, err := p.PeeringSurveyFor(traffic.Netflix)
	if err != nil {
		t.Fatal(err)
	}
	if n.Hypergiant != "Netflix" || n.HostsTotal == 0 {
		t.Errorf("Netflix survey empty: %+v", n)
	}
}

func TestPipelineCapacityStudy(t *testing.T) {
	p := tinyPipeline(1)
	res, err := p.CapacityStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Covid) != 4 || len(res.PNI) != 4 || len(res.Diurnal) != 24 {
		t.Fatalf("unexpected result sizes: %d/%d/%d", len(res.Covid), len(res.PNI), len(res.Diurnal))
	}
	for _, c := range res.Covid {
		if c.InterdomainGrowth < 1.5 {
			t.Errorf("%s: interdomain growth ×%.2f, want large", c.Hypergiant, c.InterdomainGrowth)
		}
		if c.OffnetGrowthPct > 35 {
			t.Errorf("%s: offnet growth %.1f%%, want capped near burst", c.Hypergiant, c.OffnetGrowthPct)
		}
	}
	if res.Diurnal[19].DistantPct <= res.Diurnal[3].DistantPct {
		t.Error("peak distant share should exceed trough")
	}
	if !strings.Contains(res.String(), "lockdown replay") {
		t.Error("String() missing header")
	}
}

func TestPipelineCascadeStudy(t *testing.T) {
	p := tinyPipeline(1)
	res, err := p.CascadeStudy()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios == 0 {
		t.Fatal("no scenarios")
	}
	if res.MeanHGsPerFailure < 1.3 {
		t.Errorf("mean HGs per failure = %.2f; colocation should correlate failures", res.MeanHGsPerFailure)
	}
	if res.Worst.Facility == "" || len(res.Worst.HGsKnockedOut) < 2 {
		t.Errorf("worst case should knock out multiple hypergiants: %+v", res.Worst)
	}
	if !strings.Contains(res.String(), "cascade sweep") {
		t.Error("String() missing header")
	}
}

func TestPipelinePerfectStorm(t *testing.T) {
	p := tinyPipeline(1)
	sc, err := p.PerfectStorm(8, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.HGsKnockedOut) < 2 {
		t.Errorf("perfect storm should hit multiple hypergiants: %+v", sc)
	}
	if sc.CongestedIXPs+sc.CongestedTransits == 0 {
		t.Error("perfect storm congested nothing")
	}
}

func TestPipelineCachesDeployments(t *testing.T) {
	p := tinyPipeline(1)
	w1, d1, err := p.World2023()
	if err != nil {
		t.Fatal(err)
	}
	w2, d2, err := p.World2023()
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 || d1 != d2 {
		t.Error("deployments should be cached per epoch")
	}
	w21, _, err := p.World2021()
	if err != nil {
		t.Fatal(err)
	}
	if w21 == w1 {
		t.Error("epochs must use distinct worlds")
	}
}

func TestPipelineDeterministic(t *testing.T) {
	a, err := tinyPipeline(9).Table1()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinyPipeline(9).Table1()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d differs across identical pipelines", i)
		}
	}
}

func TestPipelineMappingStudy(t *testing.T) {
	p := tinyPipeline(1)
	res, err := p.MappingStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Era2013) != 4 || len(res.Era2023) != 4 {
		t.Fatalf("rows: %d/%d", len(res.Era2013), len(res.Era2023))
	}
	byName := func(rows []MappingRow, name string) MappingRow {
		for _, r := range rows {
			if r.Hypergiant == name {
				return r
			}
		}
		t.Fatalf("missing %s", name)
		return MappingRow{}
	}
	if g := byName(res.Era2013, "Google"); g.CoveragePct <= 0 {
		t.Error("2013 Google mapping should work")
	}
	for _, name := range []string{"Google", "Netflix", "Meta"} {
		if r := byName(res.Era2023, name); r.CoveragePct != 0 {
			t.Errorf("2023 %s coverage = %.1f, want 0 (embedded URLs)", name, r.CoveragePct)
		}
	}
	if a := byName(res.Era2023, "Akamai"); a.CoveragePct <= 0 {
		t.Error("2023 Akamai should retain partial coverage (allowlisted ECS)")
	}
	if !strings.Contains(res.String(), "2013-era steering") {
		t.Error("String() missing era header")
	}
}

func TestPipelineMitigationStudy(t *testing.T) {
	p := tinyPipeline(1)
	res, err := p.MitigationStudy()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios == 0 {
		t.Fatal("no scenarios")
	}
	if res.MeanCollateralIsolated > res.MeanCollateralShared {
		t.Errorf("isolation worse than shared fate: %.2f > %.2f",
			res.MeanCollateralIsolated, res.MeanCollateralShared)
	}
	if !strings.Contains(res.String(), "isolation") {
		t.Error("String() missing header")
	}
}

func TestPipelineConformance(t *testing.T) {
	p := tinyPipeline(1)
	suite, err := p.Conformance()
	if err != nil {
		t.Fatal(err)
	}
	// One check per paper claim: a check that vanishes (a sweep that failed
	// quietly, say) or appears unannounced changes this count.
	if len(suite.Checks) != 29 {
		t.Fatalf("%d checks, want 29: one per table, figure and claim", len(suite.Checks))
	}
	for _, c := range suite.Failed() {
		t.Errorf("conformance check failed: %s (paper %s, measured %.2f%s, band [%.1f, %.1f])",
			c.ID, c.Paper, c.Got, c.Unit, c.Lo, c.Hi)
	}
	if !strings.Contains(suite.Markdown(), "checks passed") {
		t.Error("markdown missing summary")
	}
}
