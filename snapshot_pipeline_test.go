package offnetrisk

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestPipelineSnapshotStreaming: a campaign run against a spilled world
// snapshot produces results identical to one that synthesizes in memory,
// and the second epoch of the snapshot-backed run streams from disk
// instead of regenerating. This is the snapshot contract end to end:
// spill once, stream thereafter, byte-identical science either way.
func TestPipelineSnapshotStreaming(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.ofnw")

	mem := tinyPipeline(7)
	memRes, err := mem.Table1Context(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	snap := tinyPipeline(7)
	snap.SnapshotPath = path
	snapRes, err := snap.Table1Context(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(memRes, snapRes) {
		t.Fatal("snapshot-backed Table1 differs from in-memory Table1")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("world was not spilled: %v", err)
	}

	// A fresh pipeline over the same snapshot streams the world back and
	// still agrees — the consuming-campaign half of the contract.
	replay := tinyPipeline(7)
	replay.SnapshotPath = path
	replayRes, err := replay.Table1Context(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(memRes, replayRes) {
		t.Fatal("streamed-world Table1 differs from in-memory Table1")
	}
}

// TestPipelineSnapshotMismatchIsFatal: pointing a run at a snapshot built
// for a different world must fail loudly, not silently regenerate or —
// worse — analyze the wrong world.
func TestPipelineSnapshotMismatchIsFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.ofnw")
	first := tinyPipeline(7)
	first.SnapshotPath = path
	if _, err := first.Table1Context(context.Background()); err != nil {
		t.Fatal(err)
	}

	other := tinyPipeline(8) // different seed => different world config
	other.SnapshotPath = path
	if _, err := other.Table1Context(context.Background()); err == nil {
		t.Fatal("seed-8 run accepted a seed-7 snapshot")
	} else if !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("unexpected error: %v", err)
	}
}
