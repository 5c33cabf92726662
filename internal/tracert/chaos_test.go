package tracert

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"offnetrisk/internal/chaos"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

func chaosWorld(t *testing.T) (*inet.World, *hypergiant.Deployment) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(7))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 7))
	if err != nil {
		t.Fatal(err)
	}
	return w, d
}

func heavyInjector(t *testing.T, seed int64) *chaos.Injector {
	t.Helper()
	prof, err := chaos.ParseProfile("heavy")
	if err != nil {
		t.Fatal(err)
	}
	return chaos.New(prof, seed)
}

// TestSurveyChaosDeterministicAcrossWorkers: hop silencing, noise,
// truncation and transient retries are all pure per-item hashes, so the full
// trace set and the funnel state must be byte-identical at any worker count.
func TestSurveyChaosDeterministicAcrossWorkers(t *testing.T) {
	w, d := chaosWorld(t)

	state := func(workers int) []byte {
		obs.Default.Reset()
		cfg := ConfigFromScenario(scenario.Default(), 7)
		cfg.VMs = 8
		cfg.TargetsPerISP = 2
		cfg.Workers = workers
		cfg.Chaos = heavyInjector(t, 11)
		traces, err := SurveyContext(context.Background(), d, traffic.Google, cfg)
		if err != nil {
			t.Fatal(err)
		}
		Infer(w, traffic.Google, d.ContentAS[traffic.Google], traces)
		blob, err := json.Marshal(struct {
			Traces  map[inet.ASN][]Trace
			Funnels []obs.FunnelSnapshot
		}{traces, obs.Default.FunnelSnapshots()})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	ref := state(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := state(workers); !bytes.Equal(ref, got) {
			t.Fatalf("chaos survey diverged between workers=1 and workers=%d", workers)
		}
	}
}

// TestSurveyChaosAccounting: the attempt funnel reconciles with the issued
// trace count, truncated traces stay non-empty, and chaos hop perturbations
// land in the chaos_* funnel reasons.
func TestSurveyChaosAccounting(t *testing.T) {
	obs.Default.Reset()
	w, d := chaosWorld(t)
	inj := heavyInjector(t, 11)
	cfg := ConfigFromScenario(scenario.Default(), 7)
	cfg.VMs = 8
	cfg.TargetsPerISP = 2
	cfg.Chaos = inj
	traces, err := SurveyContext(context.Background(), d, traffic.Google, cfg)
	if err != nil {
		t.Fatal(err)
	}
	Infer(w, traffic.Google, d.ContentAS[traffic.Google], traces)

	var issued int64
	const testNet3 netaddr.Addr = 203<<24 | 113<<8
	for _, trs := range traces {
		for _, tr := range trs {
			issued++
			if len(tr.Hops) == 0 {
				t.Fatal("truncation produced an empty trace")
			}
			for _, h := range tr.Hops {
				// Noise hops answer from TEST-NET-3; they must be flagged.
				if h.Addr&0xFFFFFF00 == testNet3 && !h.Chaos {
					t.Fatalf("unmapped noise hop %v not marked as injected", h.Addr)
				}
			}
		}
	}

	var attempts, hops obs.FunnelSnapshot
	for _, s := range obs.Default.FunnelSnapshots() {
		switch s.Name {
		case "tracert.traces":
			attempts = s
		case "tracert.hops":
			hops = s
		}
	}
	if !attempts.Balanced() || !hops.Balanced() {
		t.Fatalf("funnels unbalanced: attempts=%+v hops=%+v", attempts, hops)
	}
	if attempts.Out != issued {
		t.Fatalf("attempts funnel kept %d, survey issued %d", attempts.Out, issued)
	}
	if attempts.DropN("chaos_transient") != inj.Transients.Value() {
		t.Fatalf("funnel chaos_transient = %d, chaos.transients_total = %d",
			attempts.DropN("chaos_transient"), inj.Transients.Value())
	}
	if got, want := hops.DropN("chaos_silent"), inj.HopsSilenced.Value(); got != want {
		t.Fatalf("funnel chaos_silent = %d, chaos.hops_silenced_total = %d", got, want)
	}
	if got, want := hops.DropN("chaos_unmapped"), inj.HopsNoised.Value(); got != want {
		t.Fatalf("funnel chaos_unmapped = %d, chaos.hops_noised_total = %d", got, want)
	}
	if inj.TracesTruncated.Value() == 0 || inj.HopsSilenced.Value() == 0 {
		t.Fatal("heavy profile injected nothing into the survey")
	}
}

// TestSurveyChaosOffUnchanged: a nil injector yields traces byte-identical
// to the pre-chaos code path.
func TestSurveyChaosOffUnchanged(t *testing.T) {
	_, d := chaosWorld(t)
	run := func(inj *chaos.Injector) []byte {
		obs.Default.Reset()
		cfg := ConfigFromScenario(scenario.Default(), 7)
		cfg.VMs = 8
		cfg.TargetsPerISP = 2
		cfg.Chaos = inj
		traces, err := SurveyContext(context.Background(), d, traffic.Google, cfg)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(traces)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	off, err := chaos.ParseProfile("off")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(run(nil), run(chaos.New(off, 99))) {
		t.Fatal("chaos-off survey differs from a clean survey")
	}
}
