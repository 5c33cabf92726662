package offnetrisk

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"offnetrisk/internal/obs"
	"offnetrisk/internal/traffic"
)

// experiments are the memoized Pipeline methods, each returning its result
// as a fmt.Stringer so results compare by pointer and by rendering.
var experiments = []struct {
	name string
	run  func(*Pipeline, context.Context) (fmt.Stringer, error)
}{
	{"table1", func(p *Pipeline, ctx context.Context) (fmt.Stringer, error) { return p.Table1Context(ctx) }},
	{"colocation", func(p *Pipeline, ctx context.Context) (fmt.Stringer, error) { return p.ColocationContext(ctx) }},
	{"peering-google", func(p *Pipeline, ctx context.Context) (fmt.Stringer, error) { return p.PeeringSurveyContext(ctx) }},
	{"peering-netflix", func(p *Pipeline, ctx context.Context) (fmt.Stringer, error) {
		return p.PeeringSurveyForContext(ctx, traffic.Netflix)
	}},
	{"capacity", func(p *Pipeline, ctx context.Context) (fmt.Stringer, error) { return p.CapacityStudyContext(ctx) }},
	{"cascade", func(p *Pipeline, ctx context.Context) (fmt.Stringer, error) { return p.CascadeStudyContext(ctx) }},
	{"mapping", func(p *Pipeline, ctx context.Context) (fmt.Stringer, error) { return p.MappingStudyContext(ctx) }},
	{"mitigation", func(p *Pipeline, ctx context.Context) (fmt.Stringer, error) { return p.MitigationStudyContext(ctx) }},
}

// metricState is everything a computation moves in the process registry.
type metricState struct {
	Metrics map[string]obs.MetricValue
	Funnels []obs.FunnelSnapshot
}

func readMetrics() metricState {
	return metricState{obs.Default.Snapshot(), obs.Default.FunnelSnapshots()}
}

func funnelIn(name string) int64 {
	for _, f := range obs.Default.FunnelSnapshots() {
		if f.Name == name {
			return f.In
		}
	}
	return 0
}

// TestMemoRepeatedCallSharesResult: a second call of any experiment returns
// the first call's result itself and computes nothing.
func TestMemoRepeatedCallSharesResult(t *testing.T) {
	p := NewPipeline(42, ScaleTiny)
	ctx := context.Background()
	first := make([]fmt.Stringer, len(experiments))
	for i, e := range experiments {
		r, err := e.run(p, ctx)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		first[i] = r
	}
	before := readMetrics()
	for i, e := range experiments {
		r, err := e.run(p, ctx)
		if err != nil {
			t.Fatalf("%s again: %v", e.name, err)
		}
		if r != first[i] {
			t.Errorf("%s: repeated call returned a new result", e.name)
		}
	}
	if after := readMetrics(); !reflect.DeepEqual(before, after) {
		t.Errorf("repeated calls moved the registry:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestConformanceScoresCachedResults: the suite run after the experiments
// renders as on a cold pipeline, and runs no measurement campaign again.
func TestConformanceScoresCachedResults(t *testing.T) {
	cold, err := NewPipeline(42, ScaleTiny).ConformanceContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	p := NewPipeline(42, ScaleTiny)
	runAll(t, p)
	funnels := []string{"ping.filter", "offnetmap.classify", "coloc.pairs", "tracert.hops"}
	before := make(map[string]int64)
	for _, f := range funnels {
		before[f] = funnelIn(f)
	}
	warm, err := p.ConformanceContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := warm.Markdown(), cold.Markdown(); got != want {
		t.Errorf("conformance after the experiments differs from a cold run:\n%s\nvs\n%s", got, want)
	}
	for _, f := range funnels {
		if got := funnelIn(f); got != before[f] {
			t.Errorf("conformance moved funnel %s: in %d → %d", f, before[f], got)
		}
	}
}

// TestMemoCancelledCallStaysCold: a call whose context is cancelled fails
// and caches nothing, so the next live call computes the cold result.
func TestMemoCancelledCallStaysCold(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ref := NewPipeline(42, ScaleTiny)
	p := NewPipeline(42, ScaleTiny)
	for _, e := range experiments {
		if _, err := e.run(p, cancelled); err == nil {
			t.Errorf("%s: cancelled call succeeded", e.name)
		}
		got, err := e.run(p, context.Background())
		if err != nil {
			t.Fatalf("%s after cancellation: %v", e.name, err)
		}
		want, err := e.run(ref, context.Background())
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s after a cancelled call differs from a cold call:\n%s\nvs\n%s", e.name, got, want)
		}
	}
}

// TestMemoConcurrentCallsComputeOnce: concurrent callers of one experiment
// share one computation; run under -race it also checks the memo's locking.
func TestMemoConcurrentCallsComputeOnce(t *testing.T) {
	obs.Default.Reset()
	p := NewPipeline(42, ScaleTiny)
	const callers = 6
	results := make([][2]fmt.Stringer, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			col, err := p.ColocationContext(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			cs, err := p.CapacityStudyContext(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = [2]fmt.Stringer{col, cs}
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result than caller 0", i)
		}
	}
	_, d, err := p.World2023()
	if err != nil {
		t.Fatal(err)
	}
	if got := funnelIn("ping.filter"); got != int64(len(d.Servers)) {
		t.Errorf("ping.filter in = %d, want one campaign over %d servers", got, len(d.Servers))
	}
	snap := obs.Default.Snapshot()
	if got := snap["capacity.models_built"].Value; got != 1 {
		t.Errorf("capacity.models_built = %v, want 1", got)
	}
	if got := snap["inet.worlds_generated"].Value; got != 1 {
		t.Errorf("inet.worlds_generated = %v, want 1 (the 2023 world)", got)
	}
}

// TestReportFunnelsCountOneCampaign: after cmd/reproduce's experiments and
// the conformance suite, the Appendix A funnels count one ping campaign —
// every 2023 offnet server once, 53 ISPs at seed 42 — not one per caller.
func TestReportFunnelsCountOneCampaign(t *testing.T) {
	obs.Default.Reset()
	p := NewPipeline(42, ScaleTiny)
	runAll(t, p)
	if _, err := p.ConformanceContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, d, err := p.World2023()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := funnelIn("ping.filter"), int64(len(d.Servers)); got != want || want != 1692 {
		t.Errorf("ping.filter in = %d, want the 2023 server count %d (1692 at seed 42)", got, want)
	}
	if got := funnelIn("ping.isp_gate"); got != 53 {
		t.Errorf("ping.isp_gate in = %d, want 53", got)
	}
}
