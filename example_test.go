package offnetrisk_test

import (
	"context"
	"fmt"

	"offnetrisk"
)

// ExampleNewPipeline shows the end-to-end Table 1 reproduction: TLS scans
// at both epochs, certificate inference, and the §2.2 growth numbers.
func ExampleNewPipeline() {
	p := offnetrisk.NewPipeline(7, offnetrisk.ScaleTiny)
	t1, err := p.Table1Context(context.Background())
	if err != nil {
		panic(err)
	}
	for _, row := range t1.Rows {
		fmt.Printf("%s: %d -> %d ISPs (%+.1f%%)\n",
			row.Hypergiant, row.ISPs2021, row.ISPs2023, row.GrowthPct)
	}
	// Output:
	// Google: 42 -> 52 ISPs (+23.8%)
	// Netflix: 24 -> 32 ISPs (+33.3%)
	// Meta: 25 -> 28 ISPs (+12.0%)
	// Akamai: 12 -> 12 ISPs (+0.0%)
}

// ExamplePipeline_MappingStudyContext demonstrates the §3.2 methodology
// point: the 2013 DNS/ECS technique cannot map users to offnets under
// modern embedded-URL steering.
func ExamplePipeline_MappingStudyContext() {
	p := offnetrisk.NewPipeline(7, offnetrisk.ScaleTiny)
	res, err := p.MappingStudyContext(context.Background())
	if err != nil {
		panic(err)
	}
	for _, row := range res.Era2023 {
		works := "works"
		if row.CoveragePct == 0 {
			works = "fails"
		}
		fmt.Printf("%s (%s): %s\n", row.Hypergiant, row.Mode, works)
	}
	// Output:
	// Google (embedded-url): fails
	// Netflix (embedded-url): fails
	// Meta (embedded-url): fails
	// Akamai (ecs-allowlist): works
}
