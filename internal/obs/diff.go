package obs

import (
	"fmt"
	"sort"
)

// Manifest comparison: the engine behind cmd/runsdiff and cmd/reproduce's
// golden-run test. Two manifests from the same (tool, seed, scale) must agree
// on every deterministic quantity — counters, histogram counts, buckets and
// sums, funnel accounting, root stage names — and may differ on run-varying
// ones (wall times, allocations, Go version). The comparison classifies every
// difference accordingly, and Golden projects a manifest onto exactly the
// fields it checks.

// maxWallRegress flags a stage whose wall time grew by more than this
// factor (new > old*factor) as a regression warning.
const maxWallRegress = 2.0

// minWallMS is the floor below which stage wall times are considered noise.
const minWallMS = 50

// DiffResult is the classified outcome of comparing two manifests.
type DiffResult struct {
	// Drift lists determinism-relevant differences: same-seed runs must
	// produce none, and CI fails when any appear.
	Drift []string
	// Warnings lists quality signals that do not break determinism:
	// per-stage wall-time regressions, unbalanced funnels.
	Warnings []string
	// Infos lists expected run-to-run variation: environment, wall clock.
	Infos []string
}

// HasDrift reports whether any determinism-relevant difference was found.
func (r *DiffResult) HasDrift() bool { return len(r.Drift) > 0 }

func (r *DiffResult) driftf(format string, args ...any) {
	r.Drift = append(r.Drift, fmt.Sprintf(format, args...))
}

func (r *DiffResult) warnf(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

func (r *DiffResult) infof(format string, args ...any) {
	r.Infos = append(r.Infos, fmt.Sprintf(format, args...))
}

// CompareManifests diffs two manifests, a as the reference (golden) run and
// b as the candidate.
func CompareManifests(a, b *Manifest) *DiffResult {
	r := &DiffResult{}

	if a.Tool != b.Tool {
		r.driftf("tool: %q vs %q", a.Tool, b.Tool)
	}
	if a.Seed != b.Seed {
		r.driftf("seed: %d vs %d", a.Seed, b.Seed)
	}
	if a.Scale != b.Scale {
		r.driftf("scale: %q vs %q", a.Scale, b.Scale)
	}
	if a.Scenario != b.Scenario {
		r.driftf("scenario: %q vs %q", a.Scenario, b.Scenario)
	}
	if a.ScenarioHash != b.ScenarioHash {
		r.driftf("scenario hash: %q vs %q", a.ScenarioHash, b.ScenarioHash)
	}
	// The snapshot path is machine-local provenance, not result content:
	// streamed and freshly synthesized worlds are byte-identical, so a path
	// difference alone is informational.
	if a.Snapshot != b.Snapshot {
		r.infof("snapshot path: %q vs %q (world provenance only)", a.Snapshot, b.Snapshot)
	}
	if a.ChaosProfile != b.ChaosProfile {
		r.driftf("chaos profile: %q vs %q", a.ChaosProfile, b.ChaosProfile)
	}
	if a.ChaosSeed != b.ChaosSeed {
		r.driftf("chaos seed: %d vs %d", a.ChaosSeed, b.ChaosSeed)
	}
	if a.Degraded != b.Degraded {
		r.driftf("degraded: %v vs %v", a.Degraded, b.Degraded)
	}
	if !equalStrings(a.DegradedStages, b.DegradedStages) {
		r.driftf("degraded stages: %v vs %v", a.DegradedStages, b.DegradedStages)
	}
	if a.GoVersion != b.GoVersion {
		r.infof("go version: %s vs %s", a.GoVersion, b.GoVersion)
	}
	if a.GOOS != b.GOOS || a.GOARCH != b.GOARCH {
		r.infof("platform: %s/%s vs %s/%s", a.GOOS, a.GOARCH, b.GOOS, b.GOARCH)
	}
	if a.WallMS > 0 && b.WallMS > 0 {
		r.infof("total wall: %.0fms vs %.0fms", a.WallMS, b.WallMS)
	}
	// The profile block is pure timing analysis — wall-clock quarantined
	// like the stage durations it derives from, never drift.
	if a.Profile != nil && b.Profile != nil {
		r.infof("critical path: %.0fms vs %.0fms", a.Profile.CriticalPathMS, b.Profile.CriticalPathMS)
	}

	// The trajectory digest is a canonical hash of the temporal replay's full
	// event stream: any divergence in event order, timing, serving splits or
	// congestion edges between same-seed runs is drift, as are horizon and
	// schedule-name differences (different replays are different runs).
	if a.TrajectoryDigest != b.TrajectoryDigest {
		r.driftf("trajectory digest: %q vs %q", a.TrajectoryDigest, b.TrajectoryDigest)
	}
	if a.TemporalHours != b.TemporalHours {
		r.driftf("temporal hours: %d vs %d", a.TemporalHours, b.TemporalHours)
	}
	if a.TemporalSchedule != b.TemporalSchedule {
		r.driftf("temporal schedule: %q vs %q", a.TemporalSchedule, b.TemporalSchedule)
	}

	// The lineage digest is a canonical hash of the sampled decision records:
	// any change to what was decided — or to which evidence was retained —
	// shows up here even when aggregate counters happen to agree.
	if a.LineageDigest != b.LineageDigest {
		r.driftf("lineage digest: %q vs %q", a.LineageDigest, b.LineageDigest)
	}

	compareMetrics(a.Metrics, b.Metrics, r)
	compareFunnels(a.Funnels, b.Funnels, r)
	compareStages(a.Stages, b.Stages, r)
	return r
}

// Golden returns the deterministic projection of m, the fields
// CompareManifests checks and nothing else: no environment, wall clock,
// snapshot path, profile, help text, or span timings, attributes and
// children. A golden compared in place of m yields the same drift, so a
// committed golden holds only what the gate reads. It shares m's slices.
func (m *Manifest) Golden() *Manifest {
	g := &Manifest{
		Tool: m.Tool, Seed: m.Seed, Scale: m.Scale,
		Scenario: m.Scenario, ScenarioHash: m.ScenarioHash,
		ChaosProfile: m.ChaosProfile, ChaosSeed: m.ChaosSeed,
		Degraded: m.Degraded, DegradedStages: m.DegradedStages,
		LineageDigest: m.LineageDigest, TrajectoryDigest: m.TrajectoryDigest,
		TemporalHours: m.TemporalHours, TemporalSchedule: m.TemporalSchedule,
		Metrics: make(map[string]MetricValue, len(m.Metrics)),
	}
	for _, s := range m.Stages {
		g.Stages = append(g.Stages, SpanSnapshot{Name: s.Name})
	}
	for name, v := range m.Metrics {
		v.Help = ""
		g.Metrics[name] = v
	}
	for _, f := range m.Funnels {
		f.Help = ""
		g.Funnels = append(g.Funnels, f)
	}
	return g
}

func compareMetrics(a, b map[string]MetricValue, r *DiffResult) {
	for _, name := range sortedKeys(a) {
		av := a[name]
		bv, ok := b[name]
		if !ok {
			r.driftf("metric %s: missing from candidate", name)
			continue
		}
		if av.Type != bv.Type {
			r.driftf("metric %s: type %s vs %s", name, av.Type, bv.Type)
			continue
		}
		switch av.Type {
		case "counter":
			if av.Value != bv.Value {
				r.driftf("metric %s: %.0f vs %.0f (Δ%+.0f)", name, av.Value, bv.Value, bv.Value-av.Value)
			}
		case "histogram":
			if av.Count != bv.Count {
				r.driftf("histogram %s: count %d vs %d", name, av.Count, bv.Count)
			}
			if len(av.Buckets) != len(bv.Buckets) {
				r.driftf("histogram %s: %d buckets vs %d", name, len(av.Buckets), len(bv.Buckets))
			} else {
				for i := range av.Buckets {
					if av.Buckets[i] != bv.Buckets[i] {
						r.driftf("histogram %s: bucket[%d] (le=%.6g) %d vs %d",
							name, i, av.Bounds[i], av.Buckets[i], bv.Buckets[i])
					}
				}
			}
			// Sums accumulate as fixed-point integers (Histogram.Observe),
			// so they are order-free and compare exactly.
			if av.Value != bv.Value {
				r.driftf("histogram %s: sum %v vs %v", name, av.Value, bv.Value)
			}
		}
	}
	for _, name := range sortedKeys(b) {
		if _, ok := a[name]; !ok {
			r.driftf("metric %s: missing from reference", name)
		}
	}
}

func compareFunnels(a, b []FunnelSnapshot, r *DiffResult) {
	am, bm := funnelsByName(a), funnelsByName(b)
	for _, name := range sortedKeys(am) {
		af := am[name]
		bf, ok := bm[name]
		if !ok {
			r.driftf("funnel %s: missing from candidate", name)
			continue
		}
		if af.In != bf.In {
			r.driftf("funnel %s: in %d vs %d", name, af.In, bf.In)
		}
		if af.Out != bf.Out {
			r.driftf("funnel %s: kept %d vs %d", name, af.Out, bf.Out)
		}
		reasons := map[string]bool{}
		for _, d := range af.Drops {
			reasons[d.Reason] = true
		}
		for _, d := range bf.Drops {
			reasons[d.Reason] = true
		}
		for _, reason := range sortedKeys(reasons) {
			if an, bn := af.DropN(reason), bf.DropN(reason); an != bn {
				r.driftf("funnel %s: drop %s %d vs %d", name, reason, an, bn)
			}
		}
		if !bf.Balanced() {
			r.warnf("funnel %s: candidate unbalanced (in %d != kept %d + dropped %d)",
				name, bf.In, bf.Out, bf.Dropped())
		}
	}
	for _, name := range sortedKeys(bm) {
		if _, ok := am[name]; !ok {
			r.driftf("funnel %s: missing from reference", name)
		}
	}
}

// compareStages checks the root-level stage sequence — names must match in
// order (the run executed the same stages) — and flags wall-time regressions.
// Child spans are ignored: worker spans make subtree shapes
// scheduling-dependent by design.
func compareStages(a, b []SpanSnapshot, r *DiffResult) {
	if len(a) != len(b) {
		r.driftf("stages: %d root stages vs %d", len(a), len(b))
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].Name != b[i].Name {
			r.driftf("stage[%d]: %q vs %q", i, a[i].Name, b[i].Name)
			continue
		}
		if a[i].DurMS >= minWallMS && b[i].DurMS > a[i].DurMS*maxWallRegress {
			r.warnf("stage %s: wall %.0fms vs %.0fms (> %.1fx regression)",
				a[i].Name, a[i].DurMS, b[i].DurMS, maxWallRegress)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func funnelsByName(snaps []FunnelSnapshot) map[string]FunnelSnapshot {
	out := make(map[string]FunnelSnapshot, len(snaps))
	for _, s := range snaps {
		out[s.Name] = s
	}
	return out
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
