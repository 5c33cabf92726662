package hypergiant_test

import (
	"fmt"
	"slices"
	"testing"

	"offnetrisk/internal/cascade"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

// TestHostViewsMatchReference compares HostISPs and HostingISPs with their
// sort-per-call references after Deploy at each epoch and after the
// counterfactual deployment's Reindex, at tiny seeds 1–30 and, unless
// -short, the default world at seed 42.
func TestHostViewsMatchReference(t *testing.T) {
	cfgs := []inet.Config{}
	for seed := int64(1); seed <= 30; seed++ {
		cfgs = append(cfgs, inet.TinyConfig(seed))
	}
	if !testing.Short() {
		cfgs = append(cfgs, inet.ConfigFromScenario(scenario.Default(), 42))
	}
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("access-%d-seed-%d", cfg.AccessISPs, cfg.Seed), func(t *testing.T) {
			for _, epoch := range []hypergiant.Epoch{hypergiant.Epoch2021, hypergiant.Epoch2023} {
				d, err := hypergiant.Deploy(inet.Generate(cfg), epoch, hypergiant.DeployConfigFromScenario(scenario.Default(), cfg.Seed))
				if err != nil {
					t.Fatal(err)
				}
				hypergiant.CheckHostViews(t, fmt.Sprintf("deploy %d", epoch), d)
				hypergiant.CheckHostViews(t, fmt.Sprintf("decolocate %d", epoch), cascade.Decolocate(d))
			}
		})
	}
}

// TestHostListsAreCopies: a caller that reorders a returned host list
// leaves the next call ascending.
func TestHostListsAreCopies(t *testing.T) {
	d, err := hypergiant.Deploy(inet.Generate(inet.TinyConfig(4)), hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 4))
	if err != nil {
		t.Fatal(err)
	}
	slices.Reverse(d.HostingISPs())
	slices.Reverse(d.HostISPs(traffic.Google))
	if !slices.IsSorted(d.HostingISPs()) || !slices.IsSorted(d.HostISPs(traffic.Google)) {
		t.Error("a host list is out of order after a caller reversed its copy")
	}
}

// TestReindexShuffledServers: Reindex over servers in an arbitrary order,
// where a (hypergiant, ISP) deployment's servers are no longer together,
// still builds the maps and views a server at a time would.
func TestReindexShuffledServers(t *testing.T) {
	d, err := hypergiant.Deploy(inet.Generate(inet.TinyConfig(6)), hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 6))
	if err != nil {
		t.Fatal(err)
	}
	r := rngutil.New(6)
	r.Shuffle(len(d.Servers), func(i, j int) { d.Servers[i], d.Servers[j] = d.Servers[j], d.Servers[i] })
	d.Reindex()
	hypergiant.CheckHostViews(t, "shuffled", d)
}
