// Quickstart: build a seeded reproduction pipeline and run every experiment
// in the paper, printing each table and figure's data.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"offnetrisk"
)

func main() {
	log.SetFlags(0)

	// A pipeline owns one synthetic Internet per epoch, derived entirely
	// from the seed. ScaleTiny runs in about a second; use ScaleDefault for
	// statistics closer to the paper's dataset sizes.
	p := offnetrisk.NewPipeline(7, offnetrisk.ScaleTiny)
	ctx := context.Background()

	// §2.2 / Table 1 — TLS-scan offnet discovery at two epochs.
	t1, err := p.Table1Context(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(t1)

	// §3.2 / Table 2, Figures 1–2 — latency clustering and colocation.
	col, err := p.ColocationContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(col)

	// §4.2.1 — cloud traceroute peering survey.
	ps, err := p.PeeringSurveyContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ps)

	// §4.1 + §4.2.2 — capacity: lockdown replay, diurnal sweep, PNI census.
	cap, err := p.CapacityStudyContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cap)

	// §3.3 + §4.3 — correlated failures and cascades.
	cas, err := p.CascadeStudyContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cas)

	// §3.2 methodology note — why user→offnet mapping broke.
	mp, err := p.MappingStudyContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mp)

	// §6 — the isolation mitigation, quantified.
	mit, err := p.MitigationStudyContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(mit)
}
