package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

// TestWorkloadsEndCleanly runs every workload at its smallest size, plain
// and traced. Each run must be correct (which for a traced run includes its
// span coverage and its layer calls matching the program's), end before its
// deadline, leave no goroutine behind, and print exactly the metrics
// BENCHMARK.json declares, none of them 0.
func TestWorkloadsEndCleanly(t *testing.T) {
	declared := declaredMetrics(t)
	// No subtests: their goroutines would come and go around the count.
	goroutines := runtime.NumGoroutine()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := fmt.Sprintf("%s trace=%v", w.name, traced)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			o := options{seed: 42, trace: traced, size: smallest}
			out := bench(ctx, w, o)
			if err := ctx.Err(); err != nil {
				t.Fatalf("%s: ran into its deadline: %v", name, err)
			}
			cancel()
			if n := runtime.NumGoroutine(); n != goroutines {
				t.Errorf("%s: %d goroutines after the run, %d before", name, n, goroutines)
			}
			rec := out.record(w, o)
			if len(rec.Problems) > 0 {
				t.Fatalf("%s: incorrect run: %v", name, rec.Problems)
			}
			res := out.result(rec, traced)
			if got, want := sortedNames(res.Metrics), declared[traced]; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: metrics %v, BENCHMARK.json declares %v", name, got, want)
			}
			for metric, m := range res.Metrics {
				if m.Value == 0 {
					t.Errorf("%s: metric %s reads 0", name, metric)
				}
			}
		}
	}
}

// declaredMetrics reads BENCHMARK.json's end-to-end (false) and per-layer
// (true) metric names, sorted.
func declaredMetrics(t *testing.T) map[bool][]string {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[bool][]string{}
	for _, m := range spec.EndToEnd {
		out[false] = append(out[false], m.Name)
	}
	for _, m := range spec.PerLayer {
		out[true] = append(out[true], m.Name)
	}
	sort.Strings(out[false])
	sort.Strings(out[true])
	return out
}

func sortedNames(m map[string]metric) []string {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// TestRejectsBadArguments checks that an unusable command line prints no
// result and exits non-zero.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "report-default", "--trace", "2"},
		{"--workload", "report-default", "--seconds", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestSameLayerCallsFlagsADrift checks the other side of the layer-call
// comparison the workload runs exercise: a traced copy whose counts drift
// from the program's, or that runs other operations, is reported.
func TestSameLayerCallsFlagsADrift(t *testing.T) {
	op := func(counts map[string]int64) *iteration {
		return &iteration{ops: []opCounts{{"default/cascade", counts}}}
	}
	program := op(map[string]int64{"capacity.models_built": 1, "cascade.scenarios_simulated": 737})
	for _, tc := range []struct {
		name   string
		traced *iteration
		want   int
	}{
		{"same", op(map[string]int64{"cascade.scenarios_simulated": 737, "capacity.models_built": 1}), 0},
		{"model reused", op(map[string]int64{"cascade.scenarios_simulated": 737}), 1},
		{"extra call", op(map[string]int64{"capacity.models_built": 1, "cascade.scenarios_simulated": 737, "tracert.traces_run": 5}), 1},
		{"other operations", &iteration{}, 1},
	} {
		if got := sameLayerCalls(program, tc.traced); len(got) != tc.want {
			t.Errorf("%s: %d problems %v, want %d", tc.name, len(got), got, tc.want)
		}
	}
}
