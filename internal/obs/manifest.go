package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Manifest is the provenance record of one pipeline run: what ran, on what
// substrate, where the time and allocations went, and what the metrics
// counted. REPORT.md runs and benchmark trajectories attach this document so
// every number carries its origin.
type Manifest struct {
	Tool      string `json:"tool"`
	Seed      int64  `json:"seed"`
	Scale     string `json:"scale"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Scenario provenance (internal/scenario): the resolved scenario name and
	// the SHA-256 of its canonical spec rendering, so a manifest pins exactly
	// which declared world produced it. Both omitted when the run did not pass
	// -scenario, keeping plain-run manifests byte-identical to pre-scenario
	// ones.
	Scenario     string `json:"scenario,omitempty"`
	ScenarioHash string `json:"scenario_hash,omitempty"`
	// Snapshot is the world-snapshot file the run spilled to or streamed
	// from (-snapshot); omitted when the world was synthesized in memory,
	// keeping snapshot-free manifests byte-identical to earlier ones.
	Snapshot string `json:"snapshot,omitempty"`
	// StartedAt/WallMS describe the run itself, not the experiments: they
	// vary run to run and are excluded from determinism comparisons.
	StartedAt string                 `json:"started_at,omitempty"`
	WallMS    float64                `json:"wall_ms"`
	Stages    []SpanSnapshot         `json:"stages"`
	Metrics   map[string]MetricValue `json:"metrics"`
	// Funnels is the data-provenance accounting: per filtering stage, how
	// many items entered, were kept, and were dropped for which reason.
	// Deterministic at any worker count.
	Funnels []FunnelSnapshot `json:"funnels,omitempty"`
	// Profile is the timeline analysis of Stages (critical path, exclusive
	// self-times, parallel-region worker utilization). Like stage wall
	// times it varies run to run and is quarantined from determinism
	// comparisons (runsdiff reports it as informational only).
	Profile *Profile `json:"profile,omitempty"`
	// Lineage provenance (-lineage): the canonical SHA-256 of the sampled
	// per-decision records, omitted when lineage is off. Each lineage
	// stage's counts are the Funnels entry of the same name.
	LineageDigest string `json:"lineage_digest,omitempty"`
	// Temporal provenance (internal/temporal): the canonical SHA-256 of the
	// replayed trajectory's event stream, with the horizon and schedule that
	// produced it. All omitted when the run had no -hours/-schedule replay,
	// so temporal-free manifests stay byte-identical to pre-temporal ones.
	TrajectoryDigest string `json:"trajectory_digest,omitempty"`
	TemporalHours    int    `json:"temporal_hours,omitempty"`
	TemporalSchedule string `json:"temporal_schedule,omitempty"`
	// Chaos provenance (internal/chaos): which fault profile and chaos seed
	// the run injected, and whether any stage lost more than its degradation
	// threshold to injected faults. All omitted on clean runs, so chaos-off
	// manifests are byte-identical to pre-chaos ones.
	ChaosProfile   string   `json:"chaos_profile,omitempty"`
	ChaosSeed      int64    `json:"chaos_seed,omitempty"`
	Degraded       bool     `json:"degraded,omitempty"`
	DegradedStages []string `json:"degraded_stages,omitempty"`
}

// BuildManifest assembles a manifest from a finished (or in-flight) tracer
// and the Default metrics registry. start anchors stage offsets and WallMS;
// pass the time the run began.
func BuildManifest(tool string, seed int64, scale string, tr *Tracer, start time.Time) *Manifest {
	m := &Manifest{
		Tool:      tool,
		Seed:      seed,
		Scale:     scale,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Stages:    tr.Snapshot(start),
		Metrics:   Default.Snapshot(),
		Funnels:   Default.FunnelSnapshots(),
	}
	if len(m.Stages) > 0 {
		m.Profile = BuildProfile(m.Stages, 10)
	}
	if lr := ActiveLineage(); lr != nil {
		m.LineageDigest = lr.Digest()
	}
	if !start.IsZero() {
		m.StartedAt = start.UTC().Format(time.RFC3339)
		m.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return m
}

// StageCount returns the number of named stages in the manifest's span tree.
func (m *Manifest) StageCount() int { return StageCount(m.Stages) }

// WriteFile writes the manifest as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: write manifest: %w", err)
	}
	return nil
}

// ReadManifest loads a manifest written by WriteFile.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: parse manifest %s: %w", path, err)
	}
	return &m, nil
}
