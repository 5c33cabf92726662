package obs

import (
	"strings"
	"testing"
)

// testManifest builds a self-consistent manifest by hand — no Default
// registry involvement, so diff tests are order-independent.
func testManifest() *Manifest {
	return &Manifest{
		Tool: "reproduce", Seed: 42, Scale: "tiny",
		GoVersion: "go1.22.0", GOOS: "linux", GOARCH: "amd64",
		WallMS: 1000,
		Stages: []SpanSnapshot{
			{Name: "table1", DurMS: 200, Ended: true},
			{Name: "colocation", DurMS: 700, Ended: true},
		},
		Metrics: map[string]MetricValue{
			"ping.rtts_measured":     {Type: "counter", Value: 5000},
			"capacity.sites_tracked": {Type: "gauge", Value: 12},
			"ping.rtt_ms": {
				Type: "histogram", Value: 123.456, Count: 100,
				Bounds: []float64{1, 5, 10}, Buckets: []int64{10, 40, 30, 20},
			},
		},
		Funnels: []FunnelSnapshot{
			{Name: "ping.filter", In: 100, Out: 90,
				Drops: []FunnelDrop{{Reason: "unresponsive", N: 10}}},
		},
	}
}

func hasEntry(entries []string, substr string) bool {
	for _, e := range entries {
		if strings.Contains(e, substr) {
			return true
		}
	}
	return false
}

func TestCompareManifestsIdentical(t *testing.T) {
	r := CompareManifests(testManifest(), testManifest())
	if r.HasDrift() {
		t.Fatalf("identical manifests drifted: %v", r.Drift)
	}
	if len(r.Warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", r.Warnings)
	}
}

func TestCompareManifestsCounterDrift(t *testing.T) {
	b := testManifest()
	b.Metrics["ping.rtts_measured"] = MetricValue{Type: "counter", Value: 5001}
	r := CompareManifests(testManifest(), b)
	if !r.HasDrift() || !hasEntry(r.Drift, "ping.rtts_measured") {
		t.Fatalf("counter delta not drift: %v", r.Drift)
	}
}

func TestCompareManifestsGaugeIsInformational(t *testing.T) {
	b := testManifest()
	b.Metrics["capacity.sites_tracked"] = MetricValue{Type: "gauge", Value: 13}
	r := CompareManifests(testManifest(), b)
	if r.HasDrift() {
		t.Fatalf("gauge difference must not be drift: %v", r.Drift)
	}
	if !hasEntry(r.Infos, "capacity.sites_tracked") {
		t.Fatalf("gauge difference not reported: %v", r.Infos)
	}
}

// TestCompareManifestsHistogramSumExact: histogram sums are fixed-point and
// order-free, so any sum difference — however small — is drift, printed in
// full rather than rounded to look equal.
func TestCompareManifestsHistogramSumExact(t *testing.T) {
	b := testManifest()
	m := b.Metrics["ping.rtt_ms"]
	m.Value = 123.456001
	b.Metrics["ping.rtt_ms"] = m
	r := CompareManifests(testManifest(), b)
	if !hasEntry(r.Drift, "histogram ping.rtt_ms: sum 123.456 vs 123.456001") {
		t.Fatalf("sum difference not drift: %v", r.Drift)
	}
}

func TestCompareManifestsBucketAndFunnelDrift(t *testing.T) {
	b := testManifest()
	m := b.Metrics["ping.rtt_ms"]
	m.Buckets = []int64{11, 39, 30, 20} // same count, moved mass
	b.Metrics["ping.rtt_ms"] = m
	b.Funnels[0].Out = 89
	b.Funnels[0].Drops[0].N = 11
	r := CompareManifests(testManifest(), b)
	if !hasEntry(r.Drift, "bucket[0]") {
		t.Fatalf("bucket shift not drift: %v", r.Drift)
	}
	if !hasEntry(r.Drift, "funnel ping.filter: kept 90 vs 89") {
		t.Fatalf("funnel kept drift not reported: %v", r.Drift)
	}
	if !hasEntry(r.Drift, "drop unresponsive 10 vs 11") {
		t.Fatalf("funnel drop drift not reported: %v", r.Drift)
	}
}

func TestCompareManifestsMissingSeries(t *testing.T) {
	b := testManifest()
	delete(b.Metrics, "ping.rtts_measured")
	b.Funnels = nil
	r := CompareManifests(testManifest(), b)
	if !hasEntry(r.Drift, "metric ping.rtts_measured: missing from candidate") {
		t.Fatalf("missing metric not drift: %v", r.Drift)
	}
	if !hasEntry(r.Drift, "funnel ping.filter: missing from candidate") {
		t.Fatalf("missing funnel not drift: %v", r.Drift)
	}
}

func TestCompareManifestsSeedAndStageDrift(t *testing.T) {
	b := testManifest()
	b.Seed = 43
	b.Stages = []SpanSnapshot{
		{Name: "table1", DurMS: 200, Ended: true},
		{Name: "capacity", DurMS: 700, Ended: true},
	}
	r := CompareManifests(testManifest(), b)
	if !hasEntry(r.Drift, "seed: 42 vs 43") {
		t.Fatalf("seed mismatch not drift: %v", r.Drift)
	}
	if !hasEntry(r.Drift, `stage[1]: "colocation" vs "capacity"`) {
		t.Fatalf("stage rename not drift: %v", r.Drift)
	}
}

func TestCompareManifestsWallRegressionWarns(t *testing.T) {
	b := testManifest()
	b.Stages[1].DurMS = 2000 // 700 → 2000 is past the 2x default
	r := CompareManifests(testManifest(), b)
	if r.HasDrift() {
		t.Fatalf("wall regression must not be drift: %v", r.Drift)
	}
	if !hasEntry(r.Warnings, "colocation") {
		t.Fatalf("regression not warned: %v", r.Warnings)
	}
	// Sub-threshold stages never warn, however large the ratio.
	c := testManifest()
	c.Stages[0].DurMS = 5
	d := testManifest()
	d.Stages[0].DurMS = 45
	if r := CompareManifests(c, d); len(r.Warnings) != 0 {
		t.Fatalf("noise-floor stage warned: %v", r.Warnings)
	}
}

func TestCompareManifestsUnbalancedFunnelWarns(t *testing.T) {
	b := testManifest()
	b.Funnels[0].In = 101 // 101 != 90 + 10
	r := CompareManifests(testManifest(), b)
	if !hasEntry(r.Warnings, "unbalanced") {
		t.Fatalf("unbalanced funnel not warned: %v", r.Warnings)
	}
}

func TestCompareManifestsChaosDrift(t *testing.T) {
	// Same chaos identity on both sides: no drift.
	a, b := testManifest(), testManifest()
	a.ChaosProfile, a.ChaosSeed, a.Degraded = "heavy", 7, true
	a.DegradedStages = []string{"ping.filter"}
	b.ChaosProfile, b.ChaosSeed, b.Degraded = "heavy", 7, true
	b.DegradedStages = []string{"ping.filter"}
	if r := CompareManifests(a, b); r.HasDrift() {
		t.Fatalf("equal chaos manifests drifted: %v", r.Drift)
	}

	// Each chaos field must independently surface as drift.
	mut := []func(m *Manifest){
		func(m *Manifest) { m.ChaosProfile = "light" },
		func(m *Manifest) { m.ChaosSeed = 8 },
		func(m *Manifest) { m.Degraded = false },
		func(m *Manifest) { m.DegradedStages = []string{"ping.filter", "tracert.hops"} },
	}
	want := []string{"chaos profile", "chaos seed", "degraded:", "degraded stages"}
	for i, f := range mut {
		c := testManifest()
		c.ChaosProfile, c.ChaosSeed, c.Degraded = "heavy", 7, true
		c.DegradedStages = []string{"ping.filter"}
		f(c)
		r := CompareManifests(a, c)
		if !r.HasDrift() || !hasEntry(r.Drift, want[i]) {
			t.Fatalf("mutation %d: no %q drift in %v", i, want[i], r.Drift)
		}
	}

	// Chaos vs clean: profile and degraded flag both drift.
	r := CompareManifests(a, testManifest())
	if !hasEntry(r.Drift, "chaos profile") || !hasEntry(r.Drift, "degraded") {
		t.Fatalf("chaos-vs-clean comparison missed drift: %v", r.Drift)
	}
}

// TestCompareManifestsTemporalDrift: the trajectory digest, horizon and
// schedule name are all first-class drift — a replay that changes any of
// them must fail the runsdiff gate, and a missing-vs-present replay is
// drift too.
func TestCompareManifestsTemporalDrift(t *testing.T) {
	base := func() *Manifest {
		m := testManifest()
		m.TrajectoryDigest = "sha256:aaaa"
		m.TemporalHours = 24
		m.TemporalSchedule = "ios-flash-crowd"
		return m
	}
	if r := CompareManifests(base(), base()); r.HasDrift() {
		t.Fatalf("identical temporal manifests drifted: %v", r.Drift)
	}

	b := base()
	b.TrajectoryDigest = "sha256:bbbb"
	if r := CompareManifests(base(), b); !r.HasDrift() || !hasEntry(r.Drift, "trajectory digest") {
		t.Fatalf("trajectory digest change not drift: %v", r.Drift)
	}

	b = base()
	b.TemporalHours = 48
	if r := CompareManifests(base(), b); !r.HasDrift() || !hasEntry(r.Drift, "temporal hours") {
		t.Fatalf("temporal hours change not drift: %v", r.Drift)
	}

	b = base()
	b.TemporalSchedule = "other"
	if r := CompareManifests(base(), b); !r.HasDrift() || !hasEntry(r.Drift, "temporal schedule") {
		t.Fatalf("temporal schedule change not drift: %v", r.Drift)
	}

	// Replay on one side only: all three fields differ from their zero values.
	if r := CompareManifests(testManifest(), base()); !r.HasDrift() || !hasEntry(r.Drift, "trajectory digest") {
		t.Fatalf("replay-vs-no-replay not drift: %v", r.Drift)
	}
}
