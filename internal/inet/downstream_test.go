package inet

import (
	"bytes"
	"math"
	"testing"

	"offnetrisk/internal/scenario"
)

// scanDownstreamUsers is the per-call scan DownstreamUsers replaced: every
// ISP in ascending-ASN order, each counted once if it lists the AS as a
// provider.
func scanDownstreamUsers(w *World, as ASN) float64 {
	var total float64
	for _, isp := range w.ISPList() {
		for _, prov := range isp.Providers {
			if prov == as {
				total += isp.Users
				break
			}
		}
	}
	return total
}

// assertDownstreamMatchesScan checks the index bit for bit against the scan
// for every AS of the world and for one it does not have.
func assertDownstreamMatchesScan(t *testing.T, name string, w *World) {
	t.Helper()
	asns := SortedASNs(w.ISPs)
	asns = append(asns, asns[len(asns)-1]+1)
	var customers int
	for _, as := range asns {
		got, want := w.DownstreamUsers(as), scanDownstreamUsers(w, as)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: DownstreamUsers(AS%d) = %v, scan gives %v", name, as, got, want)
		}
		if want > 0 {
			customers++
		}
	}
	if customers == 0 {
		t.Fatalf("%s: no AS has downstream users; the comparison proves nothing", name)
	}
}

// TestDownstreamUsersMatchesScan: the totals indexed at finalize equal the
// old per-call scan for every AS, on tiny and default worlds of both
// builders, after a content AS is added, and after a snapshot round trip.
func TestDownstreamUsersMatchesScan(t *testing.T) {
	sharded := TinyConfig(42)
	sharded.Sharded = true
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"tiny", TinyConfig(42)},
		{"tiny-sharded", sharded},
		{"default", ConfigFromScenario(scenario.Default(), 42)},
	} {
		w := Generate(tc.cfg)
		assertDownstreamMatchesScan(t, tc.name, w)
		if _, err := w.AddContentAS("hg-downstream", nil, 4); err != nil {
			t.Fatal(err)
		}
		assertDownstreamMatchesScan(t, tc.name+"+content", w)

		var buf bytes.Buffer
		if err := WriteWorld(&buf, w, tc.cfg, "hash-downstream"); err != nil {
			t.Fatal(err)
		}
		r, err := ReadWorld(&buf, tc.cfg, "hash-downstream")
		if err != nil {
			t.Fatal(err)
		}
		assertDownstreamMatchesScan(t, tc.name+"+snapshot", r)
	}
}

// TestDownstreamUsersCountsRepeatedProviderOnce: an ISP listing the same
// provider twice adds its users to that provider once.
func TestDownstreamUsersCountsRepeatedProviderOnce(t *testing.T) {
	w := &World{ISPs: map[ASN]*ISP{
		1: {ASN: 1, Tier: TierTransit},
		2: {ASN: 2, Tier: TierTransit},
		3: {ASN: 3, Tier: TierAccess, Users: 5, Providers: []ASN{1, 2, 1}},
		4: {ASN: 4, Tier: TierAccess, Users: 7, Providers: []ASN{1}},
	}}
	w.finalize()
	for as, want := range map[ASN]float64{1: 12, 2: 5, 3: 0, 4: 0} {
		if got := w.DownstreamUsers(as); got != want {
			t.Errorf("DownstreamUsers(AS%d) = %v, want %v", as, got, want)
		}
	}
	assertDownstreamMatchesScan(t, "repeated-provider", w)
}
