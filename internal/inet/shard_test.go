package inet

import (
	"crypto/sha256"
	"runtime"
	"testing"

	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
)

// worldHash returns the SHA-256 of the world's binary snapshot. The
// snapshot omits Shards and GenWorkers, so worlds built under different
// shardings hash equal exactly when their contents are byte-identical.
func worldHash(t testing.TB, cfg Config) [32]byte {
	t.Helper()
	h := sha256.New()
	if err := WriteWorld(h, Generate(cfg), cfg, ""); err != nil {
		t.Fatal(err)
	}
	return [32]byte(h.Sum(nil))
}

// TestShardCompositionDeterminism is the sharded builder's core contract:
// the composed world is byte-identical regardless of how the entity index
// space is partitioned into shards or how many workers build them. 100
// derived seeds at the tiny tier, crossed over shard counts {1, 2, 7,
// GOMAXPROCS} and worker counts {1, 4}.
func TestShardCompositionDeterminism(t *testing.T) {
	shardCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	workerCounts := []int{1, 4}
	label := rngutil.Label("shard-composition")
	for i := 0; i < 100; i++ {
		seed := rngutil.Derive(42, label, int64(i))
		cfg := TinyConfig(seed)
		cfg.Sharded = true
		cfg.Shards, cfg.GenWorkers = 1, 1
		ref := worldHash(t, cfg)
		for _, sh := range shardCounts {
			for _, wk := range workerCounts {
				cfg.Shards, cfg.GenWorkers = sh, wk
				if worldHash(t, cfg) != ref {
					t.Fatalf("seed %d: shards=%d workers=%d diverged from shards=1 workers=1", seed, sh, wk)
				}
			}
		}
	}
}

// TestShardCompositionDeterminismHuge repeats the composition check at the
// huge tier, where shard boundaries land in completely different places.
// One seed, three partitionings — each generation builds 50k+ entities, so
// the sweep is skipped under -short.
func TestShardCompositionDeterminismHuge(t *testing.T) {
	if testing.Short() {
		t.Skip("huge-tier composition sweep skipped in -short mode")
	}
	cfg := ConfigFromScenario(scenario.MustLookup("huge"), 42)
	cfg.Shards, cfg.GenWorkers = 1, 4
	ref := worldHash(t, cfg)
	for _, sh := range []int{7, defaultShards} {
		cfg.Shards, cfg.GenWorkers = sh, 4
		if worldHash(t, cfg) != ref {
			t.Fatalf("huge: shards=%d diverged from shards=1", sh)
		}
	}
}

// TestShardedDefaultsAreShardCountIndependent checks the zero-value path:
// Shards <= 0 means defaultShards and GenWorkers <= 0 means GOMAXPROCS,
// and neither default changes the output.
func TestShardedDefaultsAreShardCountIndependent(t *testing.T) {
	cfg := TinyConfig(7)
	cfg.Sharded = true
	ref := worldHash(t, cfg) // zero Shards/GenWorkers
	cfg.Shards, cfg.GenWorkers = defaultShards, 1
	if worldHash(t, cfg) != ref {
		t.Fatal("explicit defaults diverged from zero-value defaults")
	}
}

// TestShardedWorldStructure validates that the sharded builder produces a
// world satisfying the same structural invariants the legacy builder does.
func TestShardedWorldStructure(t *testing.T) {
	cfg := TinyConfig(42)
	cfg.Sharded = true
	w := Generate(cfg)

	if got := len(w.AccessISPs()); got != cfg.AccessISPs {
		t.Fatalf("access ISPs = %d, want %d", got, cfg.AccessISPs)
	}
	var transits, backbones int
	for _, isp := range w.ISPList() {
		switch isp.Tier {
		case TierTransit:
			transits++
		case TierBackbone:
			backbones++
		}
	}
	if transits != cfg.TransitISPs || backbones != cfg.Backbones {
		t.Fatalf("transit/backbone = %d/%d, want %d/%d", transits, backbones, cfg.TransitISPs, cfg.Backbones)
	}

	for _, isp := range w.ISPList() {
		if len(isp.Prefixes) == 0 {
			t.Fatalf("%s announces no prefixes", isp.Name)
		}
		for _, p := range isp.Prefixes {
			for _, a := range []netaddr.Addr{p.First(), p.Last()} {
				if owner, ok := w.OwnerOf(a); !ok || owner != isp.ASN {
					t.Fatalf("OwnerOf(%v) = %d,%v inside %v of %s", a, owner, ok, p, isp.Name)
				}
			}
		}
		if len(isp.Metros) == 0 {
			t.Fatalf("%s has no metros", isp.Name)
		}
		switch isp.Tier {
		case TierAccess:
			if len(isp.Providers) == 0 {
				t.Fatalf("access %s has no providers", isp.Name)
			}
			if len(isp.Facilities) == 0 {
				t.Fatalf("access %s is in no facility", isp.Name)
			}
			if isp.Users <= 0 {
				t.Fatalf("access %s has %v users", isp.Name, isp.Users)
			}
		case TierTransit:
			for _, prov := range isp.Providers {
				if p := w.ISPs[prov]; p == nil || p.Tier != TierBackbone {
					t.Fatalf("transit %s has non-backbone provider AS%d", isp.Name, prov)
				}
			}
		}
		for _, fid := range isp.Facilities {
			if w.Facilities[fid] == nil {
				t.Fatalf("%s lists unknown facility %d", isp.Name, fid)
			}
		}
		for _, id := range isp.IXPs {
			x := w.IXPs[id]
			if x == nil {
				t.Fatalf("%s lists unknown IXP %d", isp.Name, id)
			}
			addr, ok := x.MemberAddr[isp.ASN]
			if !ok {
				t.Fatalf("%s claims IXP %d membership but has no fabric address", isp.Name, id)
			}
			if gotX, gotAS, ok := w.IXPOf(addr); !ok || gotX != x || gotAS != isp.ASN {
				t.Fatalf("IXPOf(%v) = %v,%d,%v, want IXP %d,%d", addr, gotX, gotAS, ok, id, isp.ASN)
			}
		}
	}

	// Fabric addresses stay inside their IXP's fabric prefix and every
	// member is mirrored on the ISP side.
	for id, x := range w.IXPs {
		for as, addr := range x.MemberAddr {
			if !x.Fabric.Contains(addr) {
				t.Fatalf("IXP %d member AS%d addr %v outside fabric %v", id, as, addr, x.Fabric)
			}
			isp := w.ISPs[as]
			if isp == nil {
				t.Fatalf("IXP %d member AS%d unknown", id, as)
			}
			found := false
			for _, mid := range isp.IXPs {
				if mid == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("IXP %d lists AS%d but %s does not list the IXP back", id, as, isp.Name)
			}
		}
	}
}
