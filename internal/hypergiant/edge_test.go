package hypergiant

import (
	"testing"

	"offnetrisk/internal/inet"
	"offnetrisk/internal/scenario"
)

// Failure-injection tests: the deployment and measurement layers must
// degrade gracefully on degenerate worlds rather than panic or corrupt
// state.

func TestDeployOnMinimalWorld(t *testing.T) {
	cfg := inet.Config{
		Seed: 1, AccessISPs: 2, TransitISPs: 1, Backbones: 1, IXPs: 1,
		TotalUsers: 1e6, ZipfExponent: 1, UsersPerSlash24: 8000,
	}
	w := inet.Generate(cfg)
	d, err := Deploy(w, Epoch2023, DeployConfigFromScenario(scenario.Default(), 1))
	if err != nil {
		t.Fatal(err)
	}
	// With two access ISPs at least one hypergiant must have deployed
	// somewhere, and every invariant still holds.
	if len(d.Servers) == 0 {
		t.Fatal("no servers on minimal world")
	}
	for _, s := range d.Servers {
		if _, ok := w.Facilities[s.Facility]; !ok {
			t.Fatalf("server in unknown facility %d", s.Facility)
		}
	}
}

func TestDeployConfigSanitization(t *testing.T) {
	w := inet.Generate(inet.TinyConfig(2))
	// A zero-value config must be sanitized, not crash or deploy nothing.
	d, err := Deploy(w, Epoch2023, DeployConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Servers) == 0 {
		t.Fatal("zero-value config deployed nothing")
	}
	// Pathological values fall back to defaults.
	d2, err := Deploy(inet.Generate(inet.TinyConfig(2)), Epoch2023, DeployConfig{
		Seed: 2, PeakMbpsPerUser: -1, ColocationPropensity: 7,
		ResponsiveFraction: -3, AnycastFraction: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Servers) != len(d.Servers) {
		t.Errorf("sanitized configs diverge: %d vs %d servers", len(d2.Servers), len(d.Servers))
	}
}

func TestHostAddressSpacePressure(t *testing.T) {
	// Deployment must survive an ISP whose address space is already nearly
	// exhausted: it deploys what fits instead of failing the world.
	w := inet.Generate(inet.TinyConfig(4))
	var small *inet.ISP
	for _, isp := range w.AccessISPs() {
		n := uint64(0)
		for _, p := range isp.Prefixes {
			n += p.NumAddrs()
		}
		if n == 256 {
			small = isp
			break
		}
	}
	if small == nil {
		t.Skip("no single-/24 ISP")
	}
	for i := 0; i < 250; i++ {
		if _, err := w.AllocHostIn(small.ASN); err != nil {
			t.Fatal(err)
		}
	}
	d, err := Deploy(w, Epoch2023, DeployConfigFromScenario(scenario.Default(), 4))
	if err != nil {
		t.Fatalf("deployment failed under address pressure: %v", err)
	}
	if len(d.Servers) == 0 {
		t.Fatal("nothing deployed")
	}
}
