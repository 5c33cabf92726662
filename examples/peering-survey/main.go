// Peering survey: run the §4.2.1 traceroute inference for all four
// hypergiants — something the paper could not do ("We cannot run
// measurements from Meta, Netflix, or Akamai"; it measured from Google
// Cloud only) but the simulation can, since every hypergiant's cloud is
// synthetic.
//
//	go run ./examples/peering-survey
package main

import (
	"context"
	"fmt"
	"log"

	"offnetrisk"
	"offnetrisk/internal/traffic"
)

func main() {
	log.SetFlags(0)
	p := offnetrisk.NewPipeline(7, offnetrisk.ScaleTiny)

	fmt.Printf("%-8s %6s %6s %9s %11s %8s %9s\n",
		"HG", "hosts", "peer", "possible", "no-evidence", "via-IXP", "IXP-only")
	for _, hg := range traffic.All {
		res, err := p.PeeringSurveyForContext(context.Background(), hg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %6d %5.1f%% %8.1f%% %10.1f%% %7.1f%% %8.1f%%\n",
			res.Hypergiant, res.HostsTotal,
			res.PeerPct(), res.PossiblePct(), res.NoEvidencePct(),
			res.ViaIXPPct(), res.OnlyIXPPct())
	}
	fmt.Println("\npaper (Google only): 38.2% peer, 13.3% possible, 48.4% no evidence;")
	fmt.Println("62.2% of peers via an IXP, 42.5% only via an IXP")
}
