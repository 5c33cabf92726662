package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"offnetrisk/internal/traffic"
)

// TestRegistryResolved: every registry entry is fully resolved and valid —
// the contract every consumer relies on.
func TestRegistryResolved(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("registry has %d scenarios, want >= 4: %v", len(names), names)
	}
	for _, name := range names {
		sp, ok := Lookup(name)
		if !ok {
			t.Fatalf("Names() lists %q but Lookup misses it", name)
		}
		if sp.Name != name {
			t.Errorf("scenario registered as %q names itself %q", name, sp.Name)
		}
		if sp.Description == "" {
			t.Errorf("scenario %q has no description", name)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("scenario %q fails validation: %v", name, err)
		}
	}
}

// TestRegistryNameUniqueness: Names is sorted and duplicate-free, and the
// content hashes distinguish every scenario from every other.
func TestRegistryNameUniqueness(t *testing.T) {
	names := Names()
	seen := map[string]bool{}
	hashes := map[string]string{}
	for i, name := range names {
		if i > 0 && names[i-1] >= name {
			t.Errorf("Names() not strictly sorted: %q before %q", names[i-1], name)
		}
		if seen[name] {
			t.Errorf("duplicate scenario name %q", name)
		}
		seen[name] = true
		h := MustLookup(name).Hash()
		if h == "" {
			t.Fatalf("scenario %q has empty hash", name)
		}
		if prev, dup := hashes[h]; dup {
			t.Errorf("scenarios %q and %q share content hash %s", prev, name, h)
		}
		hashes[h] = name
	}
}

// TestLookupIsolation: mutating a Lookup result must not leak into the
// registry.
func TestLookupIsolation(t *testing.T) {
	a := MustLookup(DefaultName)
	a.Traffic.Shares["google"] = 0.99
	a.Deployment.Hypergiants["google"] = HGProfile{}
	b := MustLookup(DefaultName)
	if b.Traffic.Shares["google"] == 0.99 {
		t.Fatal("mutating a looked-up spec's traffic map corrupted the registry")
	}
	if b.Deployment.Hypergiants["google"] == (HGProfile{}) {
		t.Fatal("mutating a looked-up spec's hypergiant map corrupted the registry")
	}
}

// TestRoundTrip: canonical serialization parses back to an identical spec
// with an identical hash, for every registry scenario.
func TestRoundTrip(t *testing.T) {
	for _, name := range Names() {
		sp := MustLookup(name)
		data, err := sp.Canonical()
		if err != nil {
			t.Fatalf("%s: Canonical: %v", name, err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: re-parse of canonical form failed: %v", name, err)
		}
		if !reflect.DeepEqual(sp, back) {
			t.Errorf("%s: round-trip changed the spec:\nbefore: %+v\nafter:  %+v", name, sp, back)
		}
		if sp.Hash() != back.Hash() {
			t.Errorf("%s: round-trip changed the hash %s -> %s", name, sp.Hash(), back.Hash())
		}
	}
}

// TestHashStability: the hash is a pure function of content — identical
// across calls, different once content moves.
func TestHashStability(t *testing.T) {
	a, b := MustLookup(DefaultName), MustLookup(DefaultName)
	if a.Hash() != b.Hash() {
		t.Fatal("two lookups of the same scenario hash differently")
	}
	b.Measurement.PingSites++
	if a.Hash() == b.Hash() {
		t.Fatal("editing a spec did not change its hash")
	}
}

func TestParseRejectsUnknownKeys(t *testing.T) {
	cases := map[string]string{
		"top-level": `{"version": 1, "warp_drive": true}`,
		"nested":    `{"version": 1, "topology": {"access_isps": 10, "atlantis": 1}}`,
		"hg":        `{"version": 1, "deployment": {"hypergiants": {"google": {"coverage_2099": 1}}}}`,
		"sharded":   `{"version": 1, "topology": {"sharded": true}}`,
	}
	for label, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s unknown key accepted", label)
		}
	}
}

func TestParseRejectsBadVersion(t *testing.T) {
	if _, err := Parse([]byte(`{"name": "x"}`)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("missing version accepted (err: %v)", err)
	}
	if _, err := Parse([]byte(`{"version": 2}`)); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("future version accepted (err: %v)", err)
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	if _, err := Parse([]byte(`{"version": 1} {"version": 1}`)); err == nil {
		t.Error("trailing document accepted")
	}
}

func TestParseRejectsUnknownBase(t *testing.T) {
	if _, err := Parse([]byte(`{"version": 1, "base": "atlantis"}`)); err == nil {
		t.Error("unknown base scenario accepted")
	}
}

// TestParseMergesOverBase: omitted fields inherit the base; stated fields —
// including explicit zeros — override it.
func TestParseMergesOverBase(t *testing.T) {
	sp, err := Parse([]byte(`{
		"version": 1,
		"name": "lossless-tiny",
		"base": "tiny",
		"measurement": {"probe_loss": 0},
		"traffic": {"shares": {"netflix": 0.2}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	tiny := MustLookup("tiny")
	if sp.Name != "lossless-tiny" {
		t.Errorf("name = %q, want lossless-tiny", sp.Name)
	}
	if sp.Topology != tiny.Topology {
		t.Errorf("topology not inherited from tiny base: %+v", sp.Topology)
	}
	if sp.Measurement.ProbeLoss != 0 {
		t.Errorf("explicit zero probe_loss not applied, got %g", sp.Measurement.ProbeLoss)
	}
	if sp.Measurement.PingSites != tiny.Measurement.PingSites {
		t.Errorf("omitted ping_sites not inherited, got %d", sp.Measurement.PingSites)
	}
	if sp.Traffic.Shares["netflix"] != 0.2 {
		t.Errorf("stated share not applied, got %g", sp.Traffic.Shares["netflix"])
	}
	if want := tiny.Traffic.Shares["google"]; sp.Traffic.Shares["google"] != want {
		t.Errorf("omitted share not inherited, got %g want %g", sp.Traffic.Shares["google"], want)
	}
}

func TestParseRejectsInvalidResolvedSpec(t *testing.T) {
	cases := map[string]string{
		"share sum":  `{"version": 1, "traffic": {"shares": {"google": 0.5, "netflix": 0.3, "meta": 0.2, "akamai": 0.1}}}`,
		"coverage":   `{"version": 1, "deployment": {"hypergiants": {"google": {"coverage_2023": 1.5}}}}`,
		"chaos":      `{"version": 1, "chaos": {"profile": "apocalypse"}}`,
		"zipf":       `{"version": 1, "topology": {"zipf_exponent": -1}}`,
		"pni scale":  `{"version": 1, "deployment": {"pni_capacity_scale": 0}}`,
		"hg unknown": `{"version": 1, "traffic": {"shares": {"cloudflare": 0.1}}}`,
		"ixps":       `{"version": 1, "topology": {"ixps": 100}}`,
	}
	for label, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: invalid spec accepted", label)
		}
	}
}

// TestResolve: registry names resolve in place, paths resolve through the
// parser, everything else is a helpful error.
func TestResolve(t *testing.T) {
	sp, err := Resolve("open-connect-everywhere")
	if err != nil || sp.Name != "open-connect-everywhere" {
		t.Fatalf("registry name resolution failed: %v", err)
	}

	path := filepath.Join(t.TempDir(), "custom.json")
	if err := os.WriteFile(path, []byte(`{"version": 1, "name": "custom", "base": "tiny"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err = Resolve(path)
	if err != nil {
		t.Fatalf("file resolution failed: %v", err)
	}
	if sp.Name != "custom" || sp.Topology != MustLookup("tiny").Topology {
		t.Errorf("file spec resolved wrong: %+v", sp)
	}

	if _, err := Resolve("no-such-scenario"); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown name error unhelpful: %v", err)
	}
	if _, err := Resolve(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestDefaultMatchesConstants: the default scenario reproduces the
// compiled-in traffic constants bit for bit — the byte-compatibility anchor
// for every defaulted pipeline.
func TestDefaultMatchesConstants(t *testing.T) {
	sp := Default()
	mix := sp.Mix()
	want := traffic.DefaultMix()
	if mix != want {
		t.Fatalf("default scenario mix %+v differs from traffic.DefaultMix %+v", mix, want)
	}
	for _, h := range traffic.All {
		if got := mix.SteadyInterdomainShare(h); got != h.SteadyInterdomainShare() {
			t.Errorf("%s steady interdomain share %v != constant %v", h, got, h.SteadyInterdomainShare())
		}
		if got := mix.FacilityShare(h); got != h.FacilityShare() {
			t.Errorf("%s facility share %v != constant %v", h, got, h.FacilityShare())
		}
	}
	if mix.CombinedFacilityShare(traffic.All) != traffic.CombinedFacilityShare(traffic.All) {
		t.Error("combined facility share differs from the constant-based computation")
	}
}
