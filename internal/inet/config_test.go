package inet

import (
	"testing"

	"offnetrisk/internal/scenario"
)

// TestSanitizedMatchesTiny: the zero-config fallbacks are exactly the tiny
// world, field by field, and real values pass through untouched.
func TestSanitizedMatchesTiny(t *testing.T) {
	tiny := TinyConfig(0)
	def := ConfigFromScenario(scenario.Default(), 3)
	cases := []struct {
		name string
		in   Config
		want Config
	}{
		{"zero config becomes tiny", Config{}, tiny},
		{"negative counts become tiny", Config{
			AccessISPs: -1, TransitISPs: -1, Backbones: -1, IXPs: -1,
			TotalUsers: -1, ZipfExponent: -1, UsersPerSlash24: -1,
		}, tiny},
		{"valid config passes through", def, def},
		{"partial zero fills only the holes", Config{
			Seed: 9, AccessISPs: 200, TotalUsers: 1e9,
		}, Config{
			Seed: 9, AccessISPs: 200, TransitISPs: tiny.TransitISPs,
			Backbones: tiny.Backbones, IXPs: tiny.IXPs, TotalUsers: 1e9,
			ZipfExponent: tiny.ZipfExponent, UsersPerSlash24: tiny.UsersPerSlash24,
		}},
	}
	for _, tc := range cases {
		got := tc.in.sanitized()
		got.Seed = tc.want.Seed
		if got != tc.want {
			t.Errorf("%s: sanitized() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestConfigFromScenario: the registry's default/tiny/large/huge scenarios
// yield the topologies every committed golden was built on, field for
// field — the topology half of the byte-compatibility contract — and
// TinyConfig is the tiny one.
func TestConfigFromScenario(t *testing.T) {
	cases := []struct {
		scenario string
		want     Config
	}{
		{"default", Config{Seed: 42, AccessISPs: 900, TransitISPs: 48, Backbones: 8, IXPs: 36,
			TotalUsers: 3.0e9, ZipfExponent: 1.05, UsersPerSlash24: 8000}},
		{"tiny", Config{Seed: 42, AccessISPs: 60, TransitISPs: 10, Backbones: 3, IXPs: 8,
			TotalUsers: 2.0e8, ZipfExponent: 1.0, UsersPerSlash24: 8000}},
		{"large", Config{Seed: 42, AccessISPs: 2400, TransitISPs: 96, Backbones: 10, IXPs: 60,
			TotalUsers: 4.2e9, ZipfExponent: 1.05, UsersPerSlash24: 8000}},
		{"huge", Config{Seed: 42, AccessISPs: 48000, TransitISPs: 2400, Backbones: 64, IXPs: 99,
			TotalUsers: 5.0e9, ZipfExponent: 1.05, UsersPerSlash24: 8000}},
	}
	for _, tc := range cases {
		sp := scenario.MustLookup(tc.scenario)
		if got := ConfigFromScenario(sp, 42); got != tc.want {
			t.Errorf("ConfigFromScenario(%s) = %+v, want %+v", tc.scenario, got, tc.want)
		}
	}
	if got := TinyConfig(42); got != cases[1].want {
		t.Errorf("TinyConfig = %+v, want the registry's tiny topology %+v", got, cases[1].want)
	}
}
