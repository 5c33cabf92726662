package offnetrisk

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"offnetrisk/internal/chaos"
	"offnetrisk/internal/obs"
)

// lineageStages is every instrumented classification site, in canonical
// (sorted) order — the stage set a full tiny run must produce.
var lineageStages = []string{
	"cascade.mitigation",
	"coloc.cluster",
	"coloc.pairs",
	"offnetmap.classify",
	"ping.filter",
	"ping.isp_gate",
	"rdns.metro",
	"steer.mapping",
	"tracert.hops",
}

// lineageRun executes every experiment with a fresh registry and a fresh
// recorder, returning the recorder, the rendered experiment output, and the
// funnel snapshots of that run.
func lineageRun(t *testing.T, workers, shards int, profile string) (*obs.LineageRecorder, string, []obs.FunnelSnapshot) {
	t.Helper()
	obs.Default.Reset()
	lr := obs.NewLineageRecorder()
	obs.SetLineage(lr)
	defer obs.SetLineage(nil)
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
	rendered := runAll(t, p)
	return lr, rendered, obs.Default.FunnelSnapshots()
}

// TestLineageReconciliation: lineage samples evidence and the funnels hold
// the counts, so the two must name the same stages. The sampled records'
// stages are exactly lineageStages, each has a fed funnel of the same name,
// and every funnel balances (in == kept + Σ drops) — a site that drops data
// without counting why fails here, naming the funnel.
func TestLineageReconciliation(t *testing.T) {
	lr, _, funnels := lineageRun(t, 0, 0, "")
	seen := make(map[string]bool)
	var got []string
	for _, rec := range lr.Records() {
		if !seen[rec.Stage] {
			seen[rec.Stage] = true
			got = append(got, rec.Stage)
		}
	}
	if !reflect.DeepEqual(got, lineageStages) {
		t.Fatalf("sampled stage set = %v, want %v", got, lineageStages)
	}

	byName := make(map[string]obs.FunnelSnapshot, len(funnels))
	for _, f := range funnels {
		byName[f.Name] = f
		if !f.Balanced() {
			t.Errorf("funnel %s unbalanced: in=%d kept=%d dropped=%d", f.Name, f.In, f.Out, f.Dropped())
		}
	}
	for _, stage := range lineageStages {
		if f, ok := byName[stage]; !ok || f.In == 0 {
			t.Errorf("lineage stage %s has no fed funnel of the same name", stage)
		}
	}
}

// TestLineageDigestDeterminism: the digest — and the full record set behind
// it — is byte-identical across worker and shard counts, because sampling is
// hash-admitted, never arrival-ordered.
func TestLineageDigestDeterminism(t *testing.T) {
	base, rendered, _ := lineageRun(t, 1, 0, "")
	digest := base.Digest()
	if digest == "" || len(base.Records()) == 0 {
		t.Fatal("baseline run recorded no lineage")
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		lr, r, _ := lineageRun(t, workers, 0, "")
		if lr.Digest() != digest {
			t.Fatalf("Workers=%d lineage digest diverged", workers)
		}
		if !reflect.DeepEqual(lr.Records(), base.Records()) {
			t.Fatalf("Workers=%d lineage records diverged", workers)
		}
		if r != rendered {
			t.Fatalf("Workers=%d experiment output diverged under lineage", workers)
		}
	}
	for _, shards := range []int{1, 4} {
		lr, _, _ := lineageRun(t, 0, shards, "")
		if lr.Digest() != digest {
			t.Fatalf("Shards=%d lineage digest diverged", shards)
		}
	}
}

// TestLineageChaosDeterminism: injected faults surface as chaos_* lineage
// records, and the capture stays byte-identical across worker counts at a
// fixed chaos seed.
func TestLineageChaosDeterminism(t *testing.T) {
	base, _, _ := lineageRun(t, 1, 0, "heavy")
	digest := base.Digest()
	var chaosRecords int
	for _, rec := range base.Records() {
		if strings.HasPrefix(rec.ReasonCode, "chaos_") {
			chaosRecords++
		}
	}
	if chaosRecords == 0 {
		t.Fatal("heavy chaos run produced no chaos_* lineage records")
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		lr, _, _ := lineageRun(t, workers, 0, "heavy")
		if lr.Digest() != digest {
			t.Fatalf("Workers=%d chaos lineage digest diverged", workers)
		}
	}
}

// TestLineageOffTransparency: recording must not change a byte of any
// experiment's output, nor any count — lineage observes classification, it
// never participates in it, and every funnel is fed whether or not it is on.
func TestLineageOffTransparency(t *testing.T) {
	obs.SetLineage(nil)
	obs.Default.Reset()
	plain := runAll(t, NewPipeline(42, ScaleTiny))
	plainFunnels := obs.Default.FunnelSnapshots()
	lr, withLineage, lineageFunnels := lineageRun(t, 0, 0, "")
	if plain != withLineage {
		t.Fatal("enabling lineage changed experiment output")
	}
	if len(lr.Records()) == 0 {
		t.Fatal("lineage-on run retained no records")
	}
	if !reflect.DeepEqual(plainFunnels, lineageFunnels) {
		t.Fatalf("funnels differ with lineage off vs on:\noff: %+v\non:  %+v", plainFunnels, lineageFunnels)
	}
}
