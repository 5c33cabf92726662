// Command offnetgen generates a synthetic Internet with hypergiant offnet
// deployments and dumps a JSON summary: ISPs, facilities, IXPs, offnet
// servers, and interconnections. It is the substrate inspection tool — what
// the pipelines downstream measure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"offnetrisk/internal/cli"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/obs"
)

type serverDump struct {
	Addr     string `json:"addr"`
	HG       string `json:"hypergiant"`
	ASN      uint32 `json:"asn"`
	Facility string `json:"facility"`
	Rack     int    `json:"rack"`
	CertCN   string `json:"cert_cn"`
	CertOrg  string `json:"cert_org,omitempty"`
}

type ispDump struct {
	ASN       uint32   `json:"asn"`
	Name      string   `json:"name"`
	Country   string   `json:"country"`
	Tier      string   `json:"tier"`
	Users     float64  `json:"users"`
	Prefixes  []string `json:"prefixes"`
	Providers []uint32 `json:"providers"`
}

type dump struct {
	Seed       int64        `json:"seed"`
	ISPs       []ispDump    `json:"isps"`
	Servers    []serverDump `json:"offnet_servers"`
	IXPs       int          `json:"ixps"`
	Facilities int          `json:"facilities"`
	Peerings   int          `json:"peerings"`
}

func main() {
	common := cli.Register(flag.CommandLine)
	epoch := flag.Int("epoch", 2023, "deployment epoch (2021 or 2023)")
	summary := flag.Bool("summary", false, "print a short summary instead of JSON")
	genOnly := flag.Bool("gen-only", false, "generate (or stream) the world and print its summary without deploying offnets — the huge-tier smoke path")
	flag.Parse()

	if common.HandleScenarioList() {
		return
	}
	logger := common.Logger("offnetgen")
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}
	ctx, stop := common.Context()
	defer stop()
	sp, err := common.ScenarioSpec()
	if err != nil {
		fatal("invalid flags", err)
	}
	// World generation injects no faults, but the shared -chaos flag should
	// still reject unknown profiles here like everywhere else.
	if _, err := common.InjectorFromSpec(sp); err != nil {
		fatal("invalid flags", err)
	}
	stopObs, err := common.Observability(ctx, obs.NewTracer(), logger)
	if err != nil {
		fatal("observability setup failed", err)
	}
	defer stopObs()

	wcfg, err := common.WorldConfig()
	if err != nil {
		fatal("invalid flags", err)
	}
	w, fromDisk, err := inet.LoadOrGenerate(common.Snapshot, wcfg, sp.Hash())
	if err != nil {
		fatal("world build failed", err)
	}
	logger.Debug("world ready", "isps", len(w.ISPs), "facilities", len(w.Facilities),
		"scenario", sp.Name, "streamed", fromDisk)

	if *genOnly {
		fmt.Printf("world seed=%d scenario=%s streamed=%v: %d ISPs (%d access), %d facilities, %d IXPs, %.2fB users\n",
			common.Seed, sp.Name, fromDisk, len(w.ISPs), len(w.AccessISPs()), len(w.Facilities), len(w.IXPs),
			w.TotalUsers()/1e9)
		return
	}

	d, err := hypergiant.Deploy(w, hypergiant.Epoch(*epoch), hypergiant.DeployConfigFromScenario(sp, common.Seed))
	if err != nil {
		fatal("deploy failed", err)
	}

	if *summary {
		fmt.Printf("world seed=%d: %d ISPs (%d access), %d facilities, %d IXPs, %.2fB users\n",
			common.Seed, len(w.ISPs), len(w.AccessISPs()), len(w.Facilities), len(w.IXPs),
			w.TotalUsers()/1e9)
		fmt.Printf("deployment epoch=%d: %d offnet servers in %d ISPs, %d peerings\n",
			*epoch, len(d.Servers), len(d.HostingISPs()), len(d.Peerings))
		return
	}

	out := dump{Seed: common.Seed, IXPs: len(w.IXPs), Facilities: len(w.Facilities), Peerings: len(d.Peerings)}
	for _, isp := range w.ISPList() {
		id := ispDump{
			ASN: uint32(isp.ASN), Name: isp.Name, Country: isp.Country,
			Tier: isp.Tier.String(), Users: isp.Users,
		}
		for _, p := range isp.Prefixes {
			id.Prefixes = append(id.Prefixes, p.String())
		}
		for _, p := range isp.Providers {
			id.Providers = append(id.Providers, uint32(p))
		}
		out.ISPs = append(out.ISPs, id)
	}
	for _, s := range d.Servers {
		out.Servers = append(out.Servers, serverDump{
			Addr: s.Addr.String(), HG: s.HG.String(), ASN: uint32(s.ISP),
			Facility: w.Facilities[s.Facility].Name(), Rack: s.Rack,
			CertCN: s.Cert.SubjectCN, CertOrg: s.Cert.SubjectOrg,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal("dump encode failed", err)
	}
}
