// Command colocmap runs the §3 colocation pipeline: the 163-site latency
// campaign, per-ISP OPTICS clustering at ξ∈{0.1,0.9}, Table 2, the Figure 1
// per-country aggregation, the Figure 2 traffic-concentration CCDF, and the
// reverse-DNS validation.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"offnetrisk"
	"offnetrisk/internal/cli"
	"offnetrisk/internal/obs"
)

func main() {
	common := cli.Register(flag.CommandLine)
	common.PipelineFlags()
	countries := flag.Int("countries", 10, "Figure 1 rows to print")
	ccdf := flag.Bool("ccdf", false, "print the full Figure 2 CCDF series")
	flag.Parse()

	if common.HandleScenarioList() {
		return
	}
	logger := common.Logger("colocmap")
	ctx, stop := common.Context()
	defer stop()

	p, err := common.Pipeline()
	if err != nil {
		logger.Error("invalid flags", "err", err)
		os.Exit(2)
	}
	tr := obs.NewTracer()
	p.Instrument(tr)
	stopObs, err := common.Observability(ctx, tr, logger)
	if err != nil {
		logger.Error("observability setup failed", "err", err)
		os.Exit(1)
	}
	defer stopObs()

	logger.Debug("running colocation pipeline", "seed", common.Seed, "scale", common.Scale().String())
	res, err := p.ColocationContext(ctx)
	if err != nil {
		logger.Error("colocation pipeline failed", "err", err)
		os.Exit(1)
	}
	fmt.Print(res)

	fmt.Printf("\nFigure 1: top countries by users in multi-hypergiant ISPs\n")
	rows := append([]offnetrisk.CountryRow(nil), res.Figure1...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Users > rows[j].Users })
	fmt.Printf("%-8s %12s %8s %8s %8s\n", "country", "users", "≥2 HGs", "≥3 HGs", "4 HGs")
	for i, row := range rows {
		if i >= *countries {
			break
		}
		fmt.Printf("%-8s %12.0f %7.0f%% %7.0f%% %7.0f%%\n",
			row.Country, row.Users, 100*row.AtLeast2, 100*row.AtLeast3, 100*row.AllFour)
	}

	if *ccdf {
		for _, xi := range offnetrisk.Xis {
			fmt.Printf("\nFigure 2 CCDF (ξ=%.1f): share fraction-of-users\n", xi)
			for _, pt := range res.Figure2[xi] {
				fmt.Printf("  %.3f %.4f\n", pt.Share, pt.Users)
			}
		}
	}
}
