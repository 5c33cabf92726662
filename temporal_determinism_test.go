package offnetrisk

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/chaos"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/temporal"
)

// flashCrowdSchedule loads the committed seed-42 flash-crowd schedule — the
// ISSUE 10 acceptance artifact. Tests that replay it pin the digest contract
// to the exact bytes shipped in the repo.
func flashCrowdSchedule(t *testing.T) *scenario.Schedule {
	t.Helper()
	sched, err := scenario.LoadSchedule("schedules/ios-flash-crowd.json")
	if err != nil {
		t.Fatalf("committed schedule does not load: %v", err)
	}
	return sched
}

// temporalRun replays the flash crowd on the tiny seed-42 pipeline at the
// given parallelism knobs and chaos profile, returning the trajectory.
func temporalRun(t *testing.T, workers, shards int, profile string, sched *scenario.Schedule) *temporal.Trajectory {
	t.Helper()
	obs.Default.Reset()
	p := NewPipeline(42, ScaleTiny)
	p.Workers = workers
	p.Shards = shards
	if profile != "" {
		prof, err := chaos.ParseProfile(profile)
		if err != nil {
			t.Fatal(err)
		}
		p.Chaos = chaos.New(prof, 7)
	}
	traj, err := p.TemporalReplayContext(context.Background(), 24, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

// TestTrajectoryDigestDeterminism is the acceptance guard: the committed
// flash-crowd schedule replays byte-identically — same digest, same summary —
// at every worker count, every shard count, and under heavy chaos. Workers,
// shards and chaos are parallelism/fault knobs on the measurement pipeline;
// none of them may reach the temporal engine.
func TestTrajectoryDigestDeterminism(t *testing.T) {
	sched := flashCrowdSchedule(t)
	base := temporalRun(t, 1, 1, "", sched)
	digest := base.Digest()
	if len(base.Events) == 0 || len(base.Steps) == 0 {
		t.Fatal("flash-crowd replay produced an empty trajectory")
	}
	summary := base.Summary()
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		traj := temporalRun(t, workers, 1, "", sched)
		if traj.Digest() != digest {
			t.Fatalf("Workers=%d trajectory digest diverged", workers)
		}
		if traj.Summary() != summary {
			t.Fatalf("Workers=%d trajectory summary diverged", workers)
		}
	}
	for _, shards := range []int{1, 4} {
		traj := temporalRun(t, 0, shards, "", sched)
		if traj.Digest() != digest {
			t.Fatalf("Shards=%d trajectory digest diverged", shards)
		}
	}
	for _, workers := range []int{1, 4} {
		traj := temporalRun(t, workers, 1, "heavy", sched)
		if traj.Digest() != digest {
			t.Fatalf("Workers=%d -chaos heavy trajectory digest diverged: chaos leaked into the engine", workers)
		}
	}
}

// TestTrajectoryDigestShardedBuilder: the digest also survives switching the
// world synthesis path itself — the sharded streaming builder at several
// shard counts must yield the same world bytes, hence the same trajectory.
func TestTrajectoryDigestShardedBuilder(t *testing.T) {
	sched := flashCrowdSchedule(t)
	run := func(shards int) string {
		cfg := inet.TinyConfig(42)
		cfg.Sharded = true
		cfg.Shards = shards
		w := inet.Generate(cfg)
		d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 42))
		if err != nil {
			t.Fatal(err)
		}
		m := capacity.Build(d, capacity.ConfigFromScenario(scenario.Default(), 42))
		eng, err := temporal.New(m, d, sched, temporal.Config{Hours: 24})
		if err != nil {
			t.Fatal(err)
		}
		traj, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return traj.Digest()
	}
	base := run(1)
	for _, shards := range []int{2, 4} {
		if d := run(shards); d != base {
			t.Fatalf("sharded builder Shards=%d trajectory digest diverged", shards)
		}
	}
}

// TestScheduleFreeRunLeavesManifestClean: without -hours/-schedule the
// temporal fields never appear in manifest JSON (omitempty), so every
// committed golden manifest stays byte-identical — the transparency half of
// the drift contract.
func TestScheduleFreeRunLeavesManifestClean(t *testing.T) {
	m := obs.Manifest{Tool: "offnetrisk-test", Seed: 42}
	b, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"trajectory_digest", "temporal_hours", "temporal_schedule"} {
		if strings.Contains(string(b), key) {
			t.Fatalf("schedule-free manifest leaks %q: %s", key, b)
		}
	}
	m.TrajectoryDigest = "sha256:abc"
	m.TemporalHours = 24
	m.TemporalSchedule = "ios-flash-crowd"
	b, err = json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"trajectory_digest", "temporal_hours", "temporal_schedule"} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("replay manifest missing %q: %s", key, b)
		}
	}
}

// TestTemporalReplayTransparency: running a replay must not perturb the
// measurement experiments — Table 1 renders byte-identically with and
// without a trajectory having been computed on the same pipeline.
func TestTemporalReplayTransparency(t *testing.T) {
	obs.Default.Reset()
	plain := tinyPipeline(42)
	a, err := plain.Table1Context(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	withReplay := tinyPipeline(42)
	if _, err := withReplay.TemporalReplayContext(context.Background(), 24, flashCrowdSchedule(t), nil); err != nil {
		t.Fatal(err)
	}
	b, err := withReplay.Table1Context(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("temporal replay perturbed Table 1 output")
	}
}
