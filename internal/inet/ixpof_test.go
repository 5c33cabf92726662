package inet_test

import (
	"path/filepath"
	"testing"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/scenario"
)

// scanIXPOf is IXPOf as a scan of the MemberAddr map, the oracle for the
// fabric-offset index.
func scanIXPOf(w *inet.World, addr netaddr.Addr) (*inet.IXP, inet.ASN, bool) {
	for _, x := range w.IXPList() {
		if !x.Fabric.Contains(addr) {
			continue
		}
		for as, a := range x.MemberAddr {
			if a == addr {
				return x, as, true
			}
		}
		return x, 0, false
	}
	return nil, 0, false
}

// sameIXPOf checks IXPOf against the scan for every address of every
// fabric, and for the addresses just outside each.
func sameIXPOf(t *testing.T, stage string, w *inet.World) {
	t.Helper()
	members := 0
	for _, x := range w.IXPList() {
		members += len(x.MemberAddr)
		for a := x.Fabric.First() - 1; a <= x.Fabric.Last()+1; a++ {
			gx, gas, gok := w.IXPOf(a)
			wx, was, wok := scanIXPOf(w, a)
			if gx != wx || gas != was || gok != wok {
				t.Fatalf("%s: IXPOf(%s) = %v, %d, %v; the MemberAddr scan gives %v, %d, %v", stage, a, gx, gas, gok, wx, was, wok)
			}
		}
	}
	if members == 0 {
		t.Fatalf("%s: no exchange has members", stage)
	}
}

// TestIXPOfMatchesMemberScan resolves every fabric address of the tiny and
// default worlds as generated, after the deployment joins the hypergiants
// to exchanges, and after a snapshot round trip of the deployed world.
func TestIXPOfMatchesMemberScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  inet.Config
	}{
		{"tiny", inet.TinyConfig(42)},
		{"default", inet.ConfigFromScenario(scenario.Default(), 42)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "default" && testing.Short() {
				t.Skip("default-scale world in -short mode")
			}
			w := inet.Generate(tc.cfg)
			sameIXPOf(t, "generated", w)
			if _, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 42)); err != nil {
				t.Fatal(err)
			}
			sameIXPOf(t, "deployed", w)
			path := filepath.Join(t.TempDir(), "world.ofnw")
			if err := inet.WriteWorldFile(path, w, tc.cfg, "ixpof"); err != nil {
				t.Fatal(err)
			}
			r, err := inet.ReadWorldFile(path, tc.cfg, "ixpof")
			if err != nil {
				t.Fatal(err)
			}
			sameIXPOf(t, "restored", r)
		})
	}
}
