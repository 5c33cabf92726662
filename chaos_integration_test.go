package offnetrisk

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"offnetrisk/internal/chaos"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/offnetmap"
	"offnetrisk/internal/tracert"
)

// chaosState runs the chaos-sensitive experiments at one worker count and
// serializes everything the run manifest would carry: the rendered results,
// the funnel accounting, and the degradation verdict. With timeline set, the
// run additionally records fault instants (the -trace path) — which must not
// change a byte of the serialized state.
func chaosState(t *testing.T, workers int, timeline bool) []byte {
	t.Helper()
	obs.Default.Reset()
	p := NewPipeline(42, ScaleTiny)
	p.Workers = workers
	prof, err := chaos.ParseProfile("heavy")
	if err != nil {
		t.Fatal(err)
	}
	p.Chaos = chaos.New(prof, 7)
	if timeline {
		tr := obs.NewTracer()
		tr.EnableTimeline()
		p.Instrument(tr)
	}

	coloc, err := p.ColocationContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t1, err := p.Table1Context(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := p.PeeringSurveyContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	snaps := obs.Default.FunnelSnapshots()
	for _, s := range snaps {
		if !s.Balanced() {
			t.Fatalf("workers=%d: funnel %s unbalanced: %+v", workers, s.Name, s)
		}
	}
	blob, err := json.Marshal(struct {
		Rendered string
		Funnels  []obs.FunnelSnapshot
		Degraded []string
	}{
		fmt.Sprint(coloc) + fmt.Sprint(t1) + fmt.Sprint(peer),
		snaps,
		chaos.DegradedStages(snaps, chaos.DefaultThresholds()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestChaosWorkerDeterminism is the chaos counterpart of
// TestConformanceWorkerDeterminism: with a heavy injector installed, every
// experiment rendering, every funnel, and the degradation verdict must be
// byte-identical at any worker count.
func TestChaosWorkerDeterminism(t *testing.T) {
	ref := chaosState(t, 1, false)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := chaosState(t, workers, false); !bytes.Equal(ref, got) {
			t.Fatalf("chaos pipeline state diverged between workers=1 and workers=%d", workers)
		}
	}
	// Fault-instant recording (-trace under -chaos) is a pure side channel:
	// same bytes with the timeline live.
	for _, workers := range []int{1, 4} {
		if got := chaosState(t, workers, true); !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d with timeline recording diverged from the plain chaos run", workers)
		}
	}
}

// TestChaosOffPipelineUnchanged pins the -chaos off acceptance criterion at
// the pipeline level: an explicit nil injector renders byte-identically to a
// pipeline that never heard of chaos.
func TestChaosOffPipelineUnchanged(t *testing.T) {
	run := func(withField bool) string {
		obs.Default.Reset()
		p := NewPipeline(42, ScaleTiny)
		if withField {
			off, err := chaos.ParseProfile("off")
			if err != nil {
				t.Fatal(err)
			}
			p.Chaos = chaos.New(off, 7) // nil: profile injects nothing
		}
		res, err := p.ColocationContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res)
	}
	if run(false) != run(true) {
		t.Fatal("chaos-off pipeline output differs from a clean pipeline")
	}
}

// TestChaosSeedChangesFaults: two chaos seeds must not inject the same
// fault pattern (the flag is live), while the same seed reproduces exactly.
func TestChaosSeedChangesFaults(t *testing.T) {
	render := func(chaosSeed int64) string {
		obs.Default.Reset()
		p := NewPipeline(42, ScaleTiny)
		prof, err := chaos.ParseProfile("heavy")
		if err != nil {
			t.Fatal(err)
		}
		p.Chaos = chaos.New(prof, chaosSeed)
		res, err := p.ColocationContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res)
	}
	a, b := render(7), render(8)
	if a == b {
		t.Fatal("different chaos seeds produced identical colocation results")
	}
	if again := render(7); a != again {
		t.Fatal("same chaos seed did not reproduce")
	}
}

// Interface guards: the chaos hooks the pipelines thread must stay nil-safe,
// or a clean run would need injector plumbing everywhere.
var (
	_ = offnetmap.InferChaos
	_ = tracert.Config{}.Chaos
)
