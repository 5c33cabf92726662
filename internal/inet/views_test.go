package inet_test

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync"
	"testing"

	"offnetrisk/internal/cascade"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

// viewWorlds are the configurations the view oracles run on: tiny seeds
// 1–30 and, unless -short, the default world at seed 42.
func viewWorlds() []inet.Config {
	var cfgs []inet.Config
	for seed := int64(1); seed <= 30; seed++ {
		cfgs = append(cfgs, inet.TinyConfig(seed))
	}
	if !testing.Short() {
		cfgs = append(cfgs, inet.ConfigFromScenario(scenario.Default(), 42))
	}
	return cfgs
}

// TestViewsMatchReference compares the world's ordered views and indexes
// with their sort-per-call references after every mutation path: Generate,
// a full Deploy at each epoch (its AddContentAS and JoinIXP calls), a
// snapshot round trip of the deployed world, and the reindexing
// counterfactual deployment, which must leave the world as it was.
// SharedIXPs is compared over every pair of ASes on tiny worlds.
func TestViewsMatchReference(t *testing.T) {
	for _, cfg := range viewWorlds() {
		tiny := cfg.AccessISPs == inet.TinyConfig(cfg.Seed).AccessISPs
		t.Run(fmt.Sprintf("access-%d-seed-%d", cfg.AccessISPs, cfg.Seed), func(t *testing.T) {
			inet.CheckViews(t, "generate", inet.Generate(cfg), tiny)
			for _, epoch := range []hypergiant.Epoch{hypergiant.Epoch2021, hypergiant.Epoch2023} {
				w := inet.Generate(cfg)
				d, err := hypergiant.Deploy(w, epoch, hypergiant.DeployConfigFromScenario(scenario.Default(), cfg.Seed))
				if err != nil {
					t.Fatal(err)
				}
				inet.CheckViews(t, fmt.Sprintf("deploy %d", epoch), w, tiny)

				var buf bytes.Buffer
				if err := inet.WriteWorld(&buf, w, cfg, ""); err != nil {
					t.Fatal(err)
				}
				r, err := inet.ReadWorld(&buf, cfg, "")
				if err != nil {
					t.Fatal(err)
				}
				inet.CheckViews(t, fmt.Sprintf("snapshot %d", epoch), r, tiny)
				if got, want := asns(r.ISPList()), asns(w.ISPList()); !slices.Equal(got, want) {
					t.Fatalf("epoch %d: the restored world lists other ISPs", epoch)
				}

				cascade.Decolocate(d)
				inet.CheckViews(t, fmt.Sprintf("decolocate %d", epoch), w, tiny)
			}
		})
	}
}

func asns(isps []*inet.ISP) []inet.ASN {
	out := make([]inet.ASN, len(isps))
	for i, isp := range isps {
		out[i] = isp.ASN
	}
	return out
}

// TestReturnedListsAreCopies: a caller that reorders a returned list, as
// Deploy sorts IXPList by capacity, leaves the next call in ID order.
func TestReturnedListsAreCopies(t *testing.T) {
	w := inet.Generate(inet.TinyConfig(3))
	ixps := w.IXPList()
	slices.SortFunc(ixps, func(a, b *inet.IXP) int { return cmp.Compare(b.CapacityGbps, a.CapacityGbps) })
	if slices.IsSortedFunc(ixps, func(a, b *inet.IXP) int { return cmp.Compare(a.ID, b.ID) }) {
		t.Fatal("capacity order equals ID order; the check proves nothing")
	}
	if !slices.IsSortedFunc(w.IXPList(), func(a, b *inet.IXP) int { return cmp.Compare(a.ID, b.ID) }) {
		t.Error("IXPList out of ID order after a caller sorted its copy")
	}
	for _, list := range [][]*inet.ISP{w.ISPList(), w.AccessISPs()} {
		slices.Reverse(list)
	}
	byASN := func(a, b *inet.ISP) int { return cmp.Compare(a.ASN, b.ASN) }
	if !slices.IsSortedFunc(w.ISPList(), byASN) || !slices.IsSortedFunc(w.AccessISPs(), byASN) {
		t.Error("ISPList or AccessISPs out of ASN order after a caller reversed its copy")
	}
	facs := w.FacilityList()
	slices.Reverse(facs)
	if !slices.IsSortedFunc(w.FacilityList(), func(a, b *inet.Facility) int { return cmp.Compare(a.ID, b.ID) }) {
		t.Error("FacilityList out of ID order after a caller reversed its copy")
	}
}

// TestViewsConcurrentReads calls every ordered view of a deployed world
// and of its deployment from many goroutines at once; under -race it
// proves the accessors are pure reads.
func TestViewsConcurrentReads(t *testing.T) {
	w := inet.Generate(inet.TinyConfig(5))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 5))
	if err != nil {
		t.Fatal(err)
	}
	hgAS := d.ContentAS[traffic.Google]
	type reading struct {
		isps, access []inet.ASN
		ixps         int
		facs         int
		shared       [][]inet.IXPID
		total        float64
		hosting      []inet.ASN
		hosts        [traffic.NumHG][]inet.ASN
	}
	read := func() reading {
		var r reading
		r.isps, r.access = asns(w.ISPList()), asns(w.AccessISPs())
		r.ixps, r.facs = len(w.IXPList()), len(w.FacilityList())
		for _, isp := range w.ISPList() {
			r.shared = append(r.shared, w.SharedIXPs(hgAS, isp.ASN))
		}
		r.total = w.TotalUsers() + w.CountryUsers()["US"]
		r.hosting = d.HostingISPs()
		for _, hg := range traffic.All {
			r.hosts[hg] = d.HostISPs(hg)
		}
		return r
	}
	want := read()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := read()
				if !slices.Equal(got.isps, want.isps) || !slices.Equal(got.access, want.access) ||
					got.ixps != want.ixps || got.facs != want.facs || got.total != want.total ||
					!slices.EqualFunc(got.shared, want.shared, slices.Equal) ||
					!slices.Equal(got.hosting, want.hosting) ||
					!slices.EqualFunc(got.hosts[:], want.hosts[:], slices.Equal) {
					t.Error("a concurrent read differs from the single-threaded one")
					return
				}
			}
		}()
	}
	wg.Wait()
}
