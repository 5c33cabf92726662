// Flash crowd: walk through the §4.3 cascading-failure mechanism hour by
// hour. A viral event triples one hypergiant's demand during the evening
// peak while the most-colocated facilities are down for a bad software
// update — the paper's "perfect storm of overload and cascading failure".
//
//	go run ./examples/flashcrowd
package main

import (
	"fmt"
	"log"

	"offnetrisk"
	"offnetrisk/internal/capacity"
	"offnetrisk/internal/cascade"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/traffic"
)

func main() {
	log.SetFlags(0)
	p := offnetrisk.NewPipeline(7, offnetrisk.ScaleTiny)
	w, d, err := p.World2023()
	if err != nil {
		log.Fatal(err)
	}
	m := capacity.Build(d, capacity.ConfigFromScenario(p.Scenario(), p.Seed))

	// A bad update takes out the top facility of the five biggest hosts.
	failed := make(map[inet.FacilityID]bool)
	for i, as := range d.HostingISPs() {
		if i >= 5 {
			break
		}
		fid, _ := cascade.TopFacility(d, as)
		failed[fid] = true
	}

	fmt.Println("flash crowd on Netflix + bad update at 5 multi-hypergiant facilities")
	fmt.Printf("%4s %8s %10s %12s %11s %10s\n",
		"hour", "demand", "offnet%", "interdomain%", "congested", "collateral")
	for hour := 16; hour <= 23; hour++ {
		sc := cascade.DefaultScenario()
		sc.DemandMult = capacity.Diurnal[hour]
		sc.Surge = map[traffic.HG]float64{traffic.Netflix: 3.0}
		sc.FailFacilities = failed
		sc.SharedHeadroom = 1.15
		rep := cascade.Simulate(m, d, sc)

		var demand, offnet, inter float64
		for _, f := range rep.Flows {
			demand += f.Demand
			offnet += f.Offnet
			inter += f.Interdomain()
		}
		congested := len(rep.CongestedIXPs()) + len(rep.CongestedTransits())
		fmt.Printf("%3dh %7.0fG %9.1f%% %11.1f%% %11d %10d\n",
			hour, demand, 100*offnet/demand, 100*inter/demand,
			congested, len(rep.CollateralISPs))
	}

	// Peak-hour detail.
	sc := cascade.DefaultScenario()
	sc.Surge = map[traffic.HG]float64{traffic.Netflix: 3.0}
	sc.FailFacilities = failed
	sc.SharedHeadroom = 1.15
	rep := cascade.Simulate(m, d, sc)
	fmt.Printf("\nat peak: %d hypergiants affected by the facility failures (%v)\n",
		len(rep.HGsImpacted), rep.HGsImpacted)
	fmt.Printf("direct users: %.1fM; collateral: %d ISPs / %.1fM users\n",
		rep.DirectUsers(w)/1e6, len(rep.CollateralISPs), rep.CollateralUsers(w)/1e6)
	for _, id := range rep.CongestedIXPs() {
		l := rep.IXPLoad[id]
		fmt.Printf("congested exchange %s: %.0f Gbps offered / %.0f Gbps capacity (%.0f%%)\n",
			w.IXPs[id].Name, l.LoadGbps, l.CapacityGbps, 100*l.Utilization())
	}
	for _, as := range rep.CongestedTransits() {
		l := rep.TransitLoad[as]
		fmt.Printf("congested transit %s: %.0f Gbps / %.0f Gbps (%.0f%%)\n",
			w.ISPs[as].Name, l.LoadGbps, l.CapacityGbps, 100*l.Utilization())
	}
}
