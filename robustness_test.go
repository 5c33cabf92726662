package offnetrisk

import (
	"context"
	"testing"

	"offnetrisk/internal/stats"
)

// TestShapeInvariantsAcrossSeeds re-runs the headline experiments across
// several world seeds and asserts the paper's qualitative claims hold in
// every one — the reproduction must not hinge on a lucky seed.
func TestShapeInvariantsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep skipped in -short mode")
	}
	for _, seed := range []int64{11, 23, 37, 51} {
		seed := seed
		t.Run(fmtSeed(seed), func(t *testing.T) {
			p := NewPipeline(seed, ScaleTiny)

			// Table 1: growth ordering Netflix > Google > Meta > Akamai=0.
			t1, err := p.Table1Context(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			growth := map[string]float64{}
			for _, row := range t1.Rows {
				growth[row.Hypergiant] = row.GrowthPct
				if row.ISPs2021 != row.Truth2021 || row.ISPs2023 != row.Truth2023 {
					t.Errorf("%s: inference diverged from ground truth", row.Hypergiant)
				}
			}
			if !(growth["Netflix"] > growth["Google"] && growth["Google"] > growth["Meta"]) {
				t.Errorf("growth ordering violated: %+v", growth)
			}
			if growth["Akamai"] != 0 {
				t.Errorf("Akamai growth = %v, want 0", growth["Akamai"])
			}
			if t1.StaleRuleISPs2023["Google"] != 0 || t1.StaleRuleISPs2023["Meta"] != 0 {
				t.Error("stale 2021 rules must miss Google and Meta")
			}

			// Colocation: the ξ=0.9 full-colocation bucket dominates ξ=0.1
			// in aggregate, and most multi-HG hosts colocate something.
			col, err := p.ColocationContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var full01, full09 float64
			for _, row := range col.Table2 {
				if row.Xi == 0.1 {
					full01 += row.BucketPct[int(stats.BucketFull)]
				} else {
					full09 += row.BucketPct[int(stats.BucketFull)]
				}
			}
			if full09 <= full01 {
				t.Errorf("ξ=0.9 aggregate full colocation (%.0f) not above ξ=0.1 (%.0f)", full09, full01)
			}
			if col.UsersAtLeast2 < 0.4 {
				t.Errorf("multi-HG user share = %.2f, want majority-ish", col.UsersAtLeast2)
			}

			// Capacity: lockdown shape for every hypergiant.
			cs, err := p.CapacityStudyContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cs.Covid {
				if c.InterdomainGrowth < 1.5 || c.OffnetGrowthPct > 35 {
					t.Errorf("%s: lockdown shape broken: offnet %+.1f%%, interdomain ×%.2f",
						c.Hypergiant, c.OffnetGrowthPct, c.InterdomainGrowth)
				}
			}
			if cs.Diurnal[19].DistantPct <= cs.Diurnal[3].DistantPct {
				t.Error("diurnal distant-server effect missing")
			}

			// Cascades: colocation correlates failures.
			cas, err := p.CascadeStudyContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if cas.MeanHGsPerFailure < 1.2 {
				t.Errorf("mean HGs per failure = %.2f", cas.MeanHGsPerFailure)
			}
		})
	}
}

func fmtSeed(seed int64) string {
	return "seed" + string(rune('0'+seed/10)) + string(rune('0'+seed%10))
}
