package offnetrisk

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"offnetrisk/internal/obs"
)

// runAll executes every experiment and concatenates the deterministic
// renderings — the exact bytes REPORT.md is built from.
func runAll(t *testing.T, p *Pipeline) string {
	t.Helper()
	var b strings.Builder
	t1, err := p.Table1Context(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(t1.String())
	col, err := p.ColocationContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(col.String())
	ps, err := p.PeeringSurveyContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(ps.String())
	cs, err := p.CapacityStudyContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(cs.String())
	cas, err := p.CascadeStudyContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(cas.String())
	mp, err := p.MappingStudyContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(mp.String())
	mit, err := p.MitigationStudyContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(mit.String())
	return b.String()
}

// TestInstrumentationDeterminism is the zero-perturbation guard: attaching a
// tracer must not change a single byte of any experiment's output, and
// neither may the worker count — the parallel substrate merges results in
// input order and every task derives its own RNG substream, so Workers
// trades wall-clock time only.
func TestInstrumentationDeterminism(t *testing.T) {
	plain := runAll(t, NewPipeline(42, ScaleTiny))

	instrumented := NewPipeline(42, ScaleTiny)
	tr := obs.NewTracer()
	instrumented.Instrument(tr)
	traced := runAll(t, instrumented)

	if plain != traced {
		t.Fatalf("instrumented run diverged from plain run:\nplain:\n%s\ninstrumented:\n%s", plain, traced)
	}
	if len(tr.Roots()) == 0 {
		t.Fatal("instrumented run recorded no spans")
	}

	// Timeline recording (the -trace flag) is one more observability layer
	// that must stay byte-transparent, at any worker count.
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		p := NewPipeline(42, ScaleTiny)
		p.Workers = workers
		ttr := obs.NewTracer()
		ttr.EnableTimeline()
		p.Instrument(ttr)
		if got := runAll(t, p); got != plain {
			t.Fatalf("Workers=%d with timeline recording diverged from the default run", workers)
		}
		if err := obs.ValidateTrace(obs.BuildTrace(ttr)); err != nil {
			t.Fatalf("Workers=%d trace export failed schema validation: %v", workers, err)
		}
	}

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		p := NewPipeline(42, ScaleTiny)
		p.Workers = workers
		if got := runAll(t, p); got != plain {
			t.Fatalf("Workers=%d diverged from the default run", workers)
		}
	}
}

// TestConformanceWorkerDeterminism proves the full conformance suite — every
// experiment plus the sensitivity sweeps — renders byte-identically across
// worker counts, instrumented or not.
func TestConformanceWorkerDeterminism(t *testing.T) {
	render := func(workers int) string {
		p := NewPipeline(42, ScaleTiny)
		p.Workers = workers
		p.Instrument(obs.NewTracer())
		suite, err := p.ConformanceContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return suite.Markdown()
	}
	serial := render(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := render(workers); got != serial {
			t.Fatalf("Workers=%d conformance output diverged from Workers=1:\n%s\nvs\n%s",
				workers, got, serial)
		}
	}
}

// TestPipelineSpanCoverage checks that every experiment method records a root
// span with at least one child stage when instrumented.
func TestPipelineSpanCoverage(t *testing.T) {
	p := NewPipeline(42, ScaleTiny)
	tr := obs.NewTracer()
	p.Instrument(tr)
	runAll(t, p)

	want := []string{
		"table1", "colocation", "peering-survey", "capacity-study",
		"cascade-study", "mapping-study", "mitigation-study",
	}
	snaps := tr.Snapshot(time.Time{})
	byName := make(map[string]obs.SpanSnapshot, len(snaps))
	for _, s := range snaps {
		byName[s.Name] = s
	}
	for _, name := range want {
		s, ok := byName[name]
		if !ok {
			t.Errorf("missing root span %q", name)
			continue
		}
		if len(s.Children) == 0 {
			t.Errorf("root span %q has no child stages", name)
		}
		if !s.Ended {
			t.Errorf("root span %q never ended", name)
		}
	}
}
