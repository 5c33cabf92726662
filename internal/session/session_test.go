package session

import (
	"context"
	"testing"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/cascade"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

func setup(t *testing.T, seed int64) (*hypergiant.Deployment, *capacity.Model) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	return d, capacity.Build(d, capacity.ConfigFromScenario(scenario.Default(), seed))
}

// run simulates the default scenario's sessions under rep, failing the test
// on error.
func run(t *testing.T, m *capacity.Model, d *hypergiant.Deployment, rep *cascade.Report, seed int64) []Session {
	t.Helper()
	out, err := RunContext(context.Background(), m, d, rep, ConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBaselineQoEHealthy(t *testing.T) {
	d, m := setup(t, 1)
	rep := cascade.Simulate(m, d, cascade.DefaultScenario())
	sessions := run(t, m, d, rep, 1)
	if len(sessions) == 0 {
		t.Fatal("no sessions")
	}
	q := Score(sessions)
	if q.DroppedShare != 0 {
		t.Errorf("baseline dropped share = %.3f, want 0 (no congestion)", q.DroppedShare)
	}
	// Sessions are drawn per-ISP, not traffic-weighted, and peak-hour
	// flows already spill ~8% of cacheable demand, so roughly half of
	// session *counts* are local even though most traffic *volume* is.
	if q.OffnetShare < 0.40 {
		t.Errorf("baseline offnet share = %.2f; should be roughly half", q.OffnetShare)
	}
	if q.MedianRTT <= 0 || q.MedianRTT > 40 {
		t.Errorf("baseline median RTT = %.1f ms, want local-ish", q.MedianRTT)
	}
	if q.P95RTT < q.MedianRTT {
		t.Error("p95 below median")
	}
	for _, s := range sessions {
		if s.RTTms <= 0 {
			t.Fatalf("non-positive RTT: %+v", s)
		}
	}
}

func TestFailureDegradesQoE(t *testing.T) {
	// The §3.3 consequence in user terms: failing the most-colocated
	// facilities must raise latency and drop sessions relative to baseline.
	d, m := setup(t, 1)
	base := cascade.Simulate(m, d, cascade.DefaultScenario())
	baseQ := Score(run(t, m, d, base, 1))

	sc := cascade.DefaultScenario()
	sc.SharedHeadroom = 1.05
	sc.Surge = map[traffic.HG]float64{
		traffic.Google: 1.4, traffic.Netflix: 1.4, traffic.Meta: 1.4, traffic.Akamai: 1.4,
	}
	sc.FailFacilities = make(map[inet.FacilityID]bool)
	for _, as := range d.HostingISPs() {
		fid, n := cascade.TopFacility(d, as)
		if n >= 2 {
			sc.FailFacilities[fid] = true
		}
	}
	rep := cascade.Simulate(m, d, sc)
	failQ := Score(run(t, m, d, rep, 1))

	if failQ.OffnetShare >= baseQ.OffnetShare {
		t.Errorf("offnet share did not fall: %.2f → %.2f", baseQ.OffnetShare, failQ.OffnetShare)
	}
	if failQ.MedianRTT <= baseQ.MedianRTT {
		t.Errorf("median RTT did not rise: %.1f → %.1f ms", baseQ.MedianRTT, failQ.MedianRTT)
	}
	if failQ.P95RTT <= baseQ.P95RTT {
		t.Errorf("p95 RTT did not rise: %.1f → %.1f ms", baseQ.P95RTT, failQ.P95RTT)
	}
	if failQ.DroppedShare <= baseQ.DroppedShare {
		t.Errorf("dropped share did not rise: %.3f → %.3f", baseQ.DroppedShare, failQ.DroppedShare)
	}
}

func TestRunDeterministic(t *testing.T) {
	d, m := setup(t, 3)
	rep := cascade.Simulate(m, d, cascade.DefaultScenario())
	a := run(t, m, d, rep, 3)
	b := run(t, m, d, rep, 3)
	if len(a) != len(b) {
		t.Fatal("session counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sessions differ across identical runs")
		}
	}
}

func TestScoreEmpty(t *testing.T) {
	q := Score(nil)
	if q.Sessions != 0 || q.MedianRTT != 0 {
		t.Errorf("empty score = %+v", q)
	}
}

func TestOriginStrings(t *testing.T) {
	want := map[Origin]string{
		FromOffnet: "offnet", FromPNI: "pni", FromIXP: "ixp",
		FromUpstreamOffnet: "upstream-offnet", FromTransit: "transit",
		FromUnserved: "unserved",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q", int(o), o.String())
		}
	}
}

func TestPickHGDistribution(t *testing.T) {
	r := newCounter()
	counts := make(map[traffic.HG]int)
	for i := 0; i < 40000; i++ {
		counts[pickHG(r, traffic.DefaultMix())]++
	}
	// Google's share (21%) is over double Netflix's (9%): the draw must
	// reflect that ordering.
	if counts[traffic.Google] <= counts[traffic.Netflix] {
		t.Errorf("Google drawn %d ≤ Netflix %d", counts[traffic.Google], counts[traffic.Netflix])
	}
	for _, hg := range traffic.All {
		if counts[hg] == 0 {
			t.Errorf("%s never drawn", hg)
		}
	}
}

// counter is a tiny deterministic Float64 source for distribution tests.
type counter struct{ i int }

func newCounter() *counter { return &counter{} }

func (c *counter) Float64() float64 {
	c.i++
	return float64(c.i%9973) / 9973
}
