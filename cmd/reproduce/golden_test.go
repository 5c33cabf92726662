package main

import (
	"flag"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"offnetrisk/internal/obs"
)

var update = flag.Bool("update", false, "rewrite each golden under testdata/ from the case that owns it")

// minCoverage is the share of a run's wall time its root spans must cover.
const minCoverage = 0.95

// goldenCases is the determinism matrix: every case runs `reproduce -tiny
// -seed 42` with its extra flags in a process of its own, and its manifest
// must show no drift against the golden. The first case to name a golden
// owns it: -update writes it from that case, and the cases after it that
// share it are checked on the next run without -update.
//
// The scenario cases cover every distinctive registry scenario. The
// registry's tiny and large entries are pure topology aliases: at -tiny
// their runs are byte-identical to default's, so a case for them would
// commit two more copies of the same golden.
var goldenCases = []struct {
	name   string
	args   []string
	golden string
	// lineage adds -lineage and queries the capture with explain.
	lineage bool
	// trace adds -trace and checks the exported timeline.
	trace bool
}{
	{name: "plain", golden: "golden-plain.json"},
	// The timeline export is observability only: the run's manifest is
	// plain's.
	{name: "trace", golden: "golden-plain.json", trace: true},
	{name: "chaos", args: []string{"-chaos", "heavy", "-chaos-seed", "7"}, golden: "golden-chaos.json"},
	{name: "lineage", golden: "golden-lineage.json", lineage: true},
	// The trajectory digest is byte-identical at any worker count.
	{name: "temporal", args: []string{"-hours", "24", "-schedule", "../../schedules/ios-flash-crowd.json"}, golden: "golden-temporal.json"},
	{name: "temporal-workers-4", args: []string{"-workers", "4", "-hours", "24", "-schedule", "../../schedules/ios-flash-crowd.json"}, golden: "golden-temporal.json"},
	{name: "scenario-default", args: []string{"-scenario", "default"}, golden: "golden-scenario-default.json"},
	{name: "scenario-open-connect-everywhere", args: []string{"-scenario", "open-connect-everywhere"}, golden: "golden-scenario-open-connect-everywhere.json"},
	{name: "scenario-ios-flash-crowd", args: []string{"-scenario", "ios-flash-crowd"}, golden: "golden-scenario-ios-flash-crowd.json"},
	{name: "scenario-meta-cdn", args: []string{"-scenario", "meta-cdn"}, golden: "golden-scenario-meta-cdn.json"},
	{name: "scenario-ocdn", args: []string{"-scenario", "ocdn"}, golden: "golden-scenario-ocdn.json"},
}

// TestGoldenRuns is the golden-run determinism gate. Each case is its own
// process, so the process-wide metrics registry and lineage recorder never
// mix two runs. Every case's root spans must cover at least minCoverage of
// the run's wall time, so no stage runs unaccounted in the span tree. At
// most one case per processor runs its tools at a time, which bounds how
// many processes share the processors while they are timed. A
// golden holds only the fields obs.CompareManifests checks
// ((*obs.Manifest).Golden); regenerate them with
//
//	go test ./cmd/reproduce -run TestGoldenRuns -update
//
// and say in the commit why they moved.
func TestGoldenRuns(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, ".", "../explain").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	owner := map[string]string{}
	for _, c := range goldenCases {
		if _, ok := owner[c.golden]; !ok {
			owner[c.golden] = c.name
		}
	}

	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			owns := owner[c.golden] == c.name
			if *update && !owns {
				t.Skipf("shares %s with %s; checked on the next run without -update", c.golden, owner[c.golden])
			}
			t.Parallel()
			dir := t.TempDir()
			manifest := filepath.Join(dir, "manifest.json")
			capture := filepath.Join(dir, "lineage.jsonl")
			trace := filepath.Join(dir, "trace.json")
			args := append([]string{"-tiny", "-seed", "42", "-out", dir, "-manifest", manifest}, c.args...)
			if c.lineage {
				args = append(args, "-lineage", capture)
			}
			if c.trace {
				args = append(args, "-trace", trace)
			}
			slots <- struct{}{}
			func() {
				defer func() { <-slots }()
				runTool(t, filepath.Join(bin, "reproduce"), args...)
				if c.lineage {
					// A populated Table 1 cell must come back with its
					// evidence chain (explain exits 1 on no match), and
					// -list must read the capture's summary.
					explain := filepath.Join(bin, "explain")
					runTool(t, explain, "-lineage", capture, "-isp", "10000", "-hg", "Akamai")
					runTool(t, explain, "-lineage", capture, "-list")
				}
			}()

			got, err := obs.ReadManifest(manifest)
			if err != nil {
				t.Fatal(err)
			}
			var covered float64
			for _, s := range got.Stages {
				covered += s.DurMS
			}
			t.Logf("root spans cover %.3f of the wall", covered/got.WallMS)
			if covered < minCoverage*got.WallMS {
				t.Errorf("root spans cover %.1f of %.1f ms wall (%.3f), want >= %.2f",
					covered, got.WallMS, covered/got.WallMS, minCoverage)
			}
			if c.trace {
				checkTrace(t, trace, got.Stages)
			}
			golden := filepath.Join("testdata", c.golden)
			if *update {
				if err := got.Golden().WriteFile(golden); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := obs.ReadManifest(golden)
			if err != nil {
				t.Fatal(err)
			}
			res := obs.CompareManifests(want, got)
			for _, w := range res.Warnings {
				t.Log("warn:", w)
			}
			if res.HasDrift() {
				t.Errorf("%d drift against %s:\n%s", len(res.Drift), golden, strings.Join(res.Drift, "\n"))
			}
		})
	}
}

// checkTrace reads the -trace export, validates its schema, and requires a
// span event for every root stage of the run's manifest.
func checkTrace(t *testing.T, path string, stages []obs.SpanSnapshot) {
	t.Helper()
	tf, err := obs.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(tf); err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	for _, e := range tf.SpanEvents() {
		spans[e.Name] = true
	}
	for _, s := range stages {
		if !spans[s.Name] {
			t.Errorf("trace has no span event for root stage %q", s.Name)
		}
	}
}

// runTool runs a built command and fails the test on a non-zero exit,
// logging its stderr.
func runTool(t *testing.T, path string, args ...string) {
	t.Helper()
	cmd := exec.Command(path, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(path), strings.Join(args, " "), err, stderr.String())
	}
}
