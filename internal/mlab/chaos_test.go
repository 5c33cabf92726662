package mlab

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"offnetrisk/internal/chaos"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/scenario"
)

func chaosInjector(t *testing.T, profile string, seed int64) *chaos.Injector {
	t.Helper()
	prof, err := chaos.ParseProfile(profile)
	if err != nil {
		t.Fatal(err)
	}
	return chaos.New(prof, seed)
}

// chaosWorlds are the tiny worlds the chaos tests measure: "legacy" is the
// seed-7 world these tests have always used. Under heavy chaos at chaos
// seed 11 the seed-24 world's kept measurements hold NaN RTTs at failed
// sites; the seed-7 world's happen to hold none.
var chaosWorlds = []struct {
	name string
	seed int64
}{{"legacy", 7}, {"seed24", 24}}

func chaosDeployment(t *testing.T, seed int64) *hypergiant.Deployment {
	t.Helper()
	d, err := hypergiant.Deploy(inet.Generate(inet.TinyConfig(seed)), hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// nanRTTs counts the NaN RTTs among the campaign's kept measurements.
func nanRTTs(c *Campaign) int {
	n := 0
	for _, ms := range c.ByISP {
		for _, m := range ms {
			for _, v := range m.RTTms {
				if math.IsNaN(v) {
					n++
				}
			}
		}
	}
	return n
}

// nanSafeMeasurement is a Measurement whose RTTs are IEEE-754 bit patterns:
// a kept measurement may hold NaN at a site that failed (GoodSites leaves
// the site out), and encoding/json rejects NaN.
type nanSafeMeasurement struct {
	Target  *hypergiant.Server
	RTTBits []uint64
}

// campaignState wraps a campaign for byte-exact comparison, with every RTT
// encoded NaN-safely.
func campaignState(c *Campaign) any {
	byISP := make(map[inet.ASN][]nanSafeMeasurement, len(c.ByISP))
	for as, ms := range c.ByISP {
		for _, m := range ms {
			bits := make([]uint64, len(m.RTTms))
			for i, v := range m.RTTms {
				bits[i] = math.Float64bits(v)
			}
			byISP[as] = append(byISP[as], nanSafeMeasurement{m.Target, bits})
		}
	}
	rest := *c
	rest.ByISP = nil
	return struct {
		Campaign Campaign
		ByISP    map[inet.ASN][]nanSafeMeasurement
	}{rest, byISP}
}

// TestCampaignChaosDeterministicAcrossWorkers extends the clean worker-sweep
// guard to fault injection: chaos decisions are pure per-item hashes, so the
// campaign accounting and the full funnel/metric state — histograms
// included, their sums are exact — must stay byte-identical at any worker
// count. Between them the worlds must keep a NaN RTT, so the NaN-safe
// encoding stays exercised.
func TestCampaignChaosDeterministicAcrossWorkers(t *testing.T) {
	ran, nans := 0, 0
	for _, world := range chaosWorlds {
		t.Run(world.name, func(t *testing.T) {
			ran++
			d := chaosDeployment(t, world.seed)
			sites := Sites(163, 7)

			state := func(workers int) []byte {
				obs.Default.Reset()
				cfg := ConfigFromScenario(scenario.Default(), 7)
				cfg.Workers = workers
				cfg.Chaos = chaosInjector(t, "heavy", 11)
				c := measure(t, d, sites, cfg)
				if workers == 1 {
					nans += nanRTTs(c)
				}
				blob, err := json.Marshal(struct {
					Campaign any
					Funnels  []obs.FunnelSnapshot
					Metrics  map[string]obs.MetricValue
				}{campaignState(c), obs.Default.FunnelSnapshots(), obs.Default.Snapshot()})
				if err != nil {
					t.Fatal(err)
				}
				return blob
			}

			ref := state(1)
			for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
				if got := state(workers); !bytes.Equal(ref, got) {
					t.Fatalf("chaos campaign state diverged between workers=1 and workers=%d", workers)
				}
			}
		})
	}
	if ran == len(chaosWorlds) && nans == 0 {
		t.Fatal("no chaos world kept a NaN RTT: the NaN-safe encoding is no longer exercised")
	}
}

// TestCampaignChaosRetrySingleCount pins the retry accounting: a retried
// target still enters the filter funnel exactly once, the attempts land in
// chaos.retries_total, and the campaign's chaos-lost count reconciles with
// the chaos_* funnel drops.
func TestCampaignChaosRetrySingleCount(t *testing.T) {
	obs.Default.Reset()
	w := inet.Generate(inet.TinyConfig(7))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 7))
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(chaos.Profile{
		Name: "retry", TransientProb: 0.4, BlackoutProb: 0.05,
		Retry: chaos.RetryPolicy{MaxAttempts: 3}, // zero backoff: no sleeping
	}, 11)
	cfg := ConfigFromScenario(scenario.Default(), 7)
	cfg.Chaos = inj
	c := measure(t, d, Sites(163, 7), cfg)

	var filter obs.FunnelSnapshot
	for _, s := range obs.Default.FunnelSnapshots() {
		if s.Name == "ping.filter" {
			filter = s
		}
	}
	if !filter.Balanced() {
		t.Fatalf("filter funnel unbalanced under retry: %+v", filter)
	}
	if filter.In != int64(len(d.Servers)) {
		t.Fatalf("filter.In = %d, want every server exactly once (%d) despite retries",
			filter.In, len(d.Servers))
	}
	if inj.Retries.Value() == 0 {
		t.Fatal("no retries recorded at TransientProb=0.4 — retry loop never ran")
	}
	if got, want := filter.DropN("chaos_transient"), inj.Transients.Value(); got != want {
		t.Fatalf("funnel chaos_transient = %d, chaos.transients_total = %d", got, want)
	}
	if got, want := filter.DropN("chaos_blackout"), inj.Blackouts.Value(); got != want {
		t.Fatalf("funnel chaos_blackout = %d, chaos.blackouts_total = %d", got, want)
	}
	if lost := filter.DropN("chaos_blackout") + filter.DropN("chaos_transient"); lost != int64(c.ChaosLost) {
		t.Fatalf("funnel chaos drops %d disagree with campaign ChaosLost %d", lost, c.ChaosLost)
	}
	if c.ChaosLost == 0 {
		t.Fatal("campaign lost nothing under 40% transient probability")
	}
}

// TestCampaignChaosOffUnchanged: threading a nil injector must leave the
// campaign byte-identical to one measured with the zero Config — the
// chaos-off acceptance criterion at the package level.
func TestCampaignChaosOffUnchanged(t *testing.T) {
	off, err := chaos.ParseProfile("off")
	if err != nil {
		t.Fatal(err)
	}
	for _, world := range chaosWorlds {
		t.Run(world.name, func(t *testing.T) {
			d := chaosDeployment(t, world.seed)
			sites := Sites(163, 7)

			run := func(inj *chaos.Injector) []byte {
				obs.Default.Reset()
				cfg := ConfigFromScenario(scenario.Default(), 7)
				cfg.Chaos = inj
				blob, err := json.Marshal(campaignState(measure(t, d, sites, cfg)))
				if err != nil {
					t.Fatal(err)
				}
				return blob
			}
			if !bytes.Equal(run(nil), run(chaos.New(off, 99))) {
				t.Fatal("chaos-off campaign differs from a clean campaign")
			}
		})
	}
}
