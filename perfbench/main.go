// Command perfbench is the repository's benchmark. It runs one workload of
// the offnetrisk reproduction inside this process through the public API,
// checks the outputs, and prints a JSON record line followed by the JSON
// result line: the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced run. It starts no process and opens no listener.
// README.md explains the workloads and metrics.
//
//	bash perfbench/run.sh --workload report-default --seed 42 --seconds 32 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"offnetrisk/internal/rngutil"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options configure one benchmark run.
type options struct {
	seed    int64
	seconds int
	trace   bool
	size    size
}

// maxRun keeps a run inside the 180 seconds a benchmark run may take.
const maxRun = 170 * time.Second

// setupPasses are the setup-only iterations a plain run starts with; each
// adds a setup_s sample.
const setupPasses = 2

// minCoverage is the share of a traced run's wall time its top-level spans
// must cover.
const minCoverage = 0.95

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: report-default, whatif-default or scenarios-tiny")
	seed := fs.Int64("seed", 42, "workload seed")
	seconds := fs.Int("seconds", 32, "measuring time; at least one iteration runs, and the one in flight completes")
	trace := fs.Int("trace", 0, "1 adds traced iterations and prints per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds >= 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, size: full}
	ctx, cancel := context.WithTimeout(context.Background(), min(2*time.Duration(o.seconds)*time.Second+time.Minute, maxRun))
	defer cancel()
	out := bench(ctx, w, o)

	rec := out.record(w, o)
	if o.trace && *spansDir != "" {
		rec.SpansFile = filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		if err := out.tr.write(rec.SpansFile); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(stderr, "perfbench: %s\n", p)
	}
	if err := printJSON(stdout, map[string]any{"record": rec}); err != nil {
		return 1
	}
	if err := printJSON(stdout, out.result(rec, o.trace)); err != nil {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

func printJSON(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// outcome is every iteration a run made.
type outcome struct {
	cut    error        // the context's error when the run ended
	all    []*iteration // including setup-only ones
	plain  []*iteration
	traced []*iteration
	setups []time.Duration
	tr     *tracer
	layers map[string]metric // per-layer medians over the traced iterations
}

// bench runs setup-only passes, then whole iterations one after another
// (plain ones, alternating with traced ones under --trace 1) until the
// measuring time has run out; the iteration in flight completes. Each
// iteration sets up fresh pipelines, so none reuses another's results.
func bench(ctx context.Context, w workload, o options) *outcome {
	heap := startHeapSampler()
	defer heap.close()
	out := &outcome{}
	if o.trace {
		out.tr = newTracer()
	}
	start := time.Now()
	iterate := func(tr *tracer, setupOnly bool, k int) *iteration {
		it := newIteration(ctx, worldSeed(o.seed, k), o.size, tr, heap)
		it.onlySet = setupOnly
		w.run(it)
		out.all = append(out.all, it)
		if it.setup > 0 {
			out.setups = append(out.setups, it.setup)
		}
		return it
	}
	if !o.trace {
		for k := 0; k < setupPasses && ctx.Err() == nil; k++ {
			iterate(nil, true, k)
		}
	}
	budget := time.Duration(o.seconds) * time.Second
	for n := 0; ctx.Err() == nil; n++ {
		traced := o.trace && n%2 == 1
		required := n == 0 || traced && n == 1
		if !required && time.Since(start) >= budget {
			break
		}
		if traced {
			out.tr.run = len(out.traced)
			out.traced = append(out.traced, iterate(out.tr, false, len(out.traced)))
		} else {
			out.plain = append(out.plain, iterate(nil, false, len(out.plain)))
		}
	}
	out.cut = ctx.Err()
	if out.tr != nil {
		out.tr.finish()
		out.layers = medianLayers(ranOnly(out.traced), out.tr)
	}
	return out
}

// worldSeed is the world seed of a run's k-th iteration: the run's seed
// itself first, then seeds derived from it, so that the medians of a run
// span several worlds and the first iteration of every run of one seed
// computes the same results.
func worldSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return rngutil.Derive(seed, rngutil.Label("perfbench/iteration"), int64(k))
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is the last line: the record's verdict and the end-to-end
// metrics, or the per-layer metrics of the traced iterations.
func (o *outcome) result(rec *record, trace bool) result {
	res := result{Correct: len(rec.Problems) == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: o.endToEnd()}
	if trace {
		res.Metrics = pick(o.layers, perLayer)
	}
	return res
}

// endToEnd gives the medians over plain iterations.
func (o *outcome) endToEnd() map[string]metric {
	ran := ranOnly(o.plain)
	of := func(f func(*iteration) float64) float64 { return medianOf(ran, f) }
	setups := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setups[i] = d.Seconds()
	}
	return map[string]metric{
		"setup_s":           {median(setups), "s"},
		"run_s":             {of(func(it *iteration) float64 { return it.run.Seconds() }), "s"},
		"cpu_s":             {of(func(it *iteration) float64 { return it.cpu.Seconds() }), "s"},
		"peak_live_heap_mb": {of(func(it *iteration) float64 { return float64(it.peakLive) / 1e6 }), "MB"},
	}
}

func scenarioRate(it *iteration) float64 {
	if it.scenarioWall <= 0 {
		return 0
	}
	return float64(it.scenarios) / it.scenarioWall.Seconds()
}

// record stamps the run: machine, toolchain, commit and seed, the result
// digests, the checks behind the verdict, and the full per-layer table.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`

	Iterations       int       `json:"iterations"`
	TracedIterations int       `json:"traced_iterations,omitempty"`
	SetupSamples     int       `json:"setup_samples"`
	RunS             []float64 `json:"run_s"`
	Digest           string    `json:"digest"`
	TracedDigest     string    `json:"traced_digest,omitempty"`

	Attempted         int     `json:"attempted"`
	Failed            int     `json:"failed"`
	OpsFailedFrac     float64 `json:"ops_failed_frac"`
	ConformancePassed int     `json:"conformance_passed,omitempty"`
	ConformanceChecks int     `json:"conformance_checks,omitempty"`
	ScenariosPerS     float64 `json:"scenarios_per_s"`
	SimHoursPerS      float64 `json:"sim_hours_per_s,omitempty"`

	TracedRunS     float64           `json:"traced_run_s,omitempty"`
	TraceOverheadS float64           `json:"trace_overhead_s,omitempty"`
	Layers         map[string]metric `json:"layers,omitempty"`
	SpansFile      string            `json:"spans_file,omitempty"`
	Problems       []string          `json:"problems,omitempty"`
}

func (o *outcome) record(w workload, opts options) *record {
	r := &record{
		Workload: w.name, Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Workers: workers,
		GoVersion: runtime.Version(), GitCommit: gitCommit(),
		SetupSamples: len(o.setups),
	}
	for _, it := range o.all {
		r.Attempted += it.attempted
		r.Failed += it.failed
		r.Problems = append(r.Problems, it.errs...)
	}
	if r.Attempted > 0 {
		r.OpsFailedFrac = float64(r.Failed) / float64(r.Attempted)
	} else {
		r.Attempted = 1 // nothing ran, which counts as one failed attempt
		r.Failed = 1
		r.Problems = append(r.Problems, "no operation ran")
	}
	if err := o.cut; err != nil {
		r.Problems = append(r.Problems, fmt.Sprintf("run cut short: %v", err))
	}
	plain, traced := ranOnly(o.plain), ranOnly(o.traced)
	if len(plain) == 0 || opts.trace && len(traced) == 0 {
		r.Problems = append(r.Problems, "no complete iteration")
	}
	r.Iterations, r.TracedIterations = len(plain), len(traced)
	if len(plain) > 0 {
		r.Digest = fmt.Sprintf("%x", plain[0].digest.Sum(nil))
	}
	for _, it := range append(plain, traced...) {
		if err := w.check(it); err != nil {
			r.Problems = append(r.Problems, err.Error())
		}
		r.RunS = append(r.RunS, it.run.Seconds())
	}
	if len(plain) > 0 {
		r.ConformancePassed, r.ConformanceChecks = plain[0].passed, plain[0].checks
		r.ScenariosPerS = medianOf(plain, scenarioRate)
		r.SimHoursPerS = medianOf(plain, func(it *iteration) float64 {
			if it.simWall <= 0 {
				return 0
			}
			return float64(it.simHours) / it.simWall.Seconds()
		})
	}
	if len(traced) > 0 {
		r.TracedDigest = fmt.Sprintf("%x", traced[0].digest.Sum(nil))
		r.Layers = called(o.layers)
		r.TracedRunS = medianOf(traced, func(it *iteration) float64 { return it.run.Seconds() })
		r.TraceOverheadS = r.TracedRunS - medianOf(plain, func(it *iteration) float64 { return it.run.Seconds() })
		if cov := o.layers["trace.coverage"].Value; cov < minCoverage {
			r.Problems = append(r.Problems, fmt.Sprintf("top-level spans cover %.3f of the traced run, want >= %g", cov, minCoverage))
		}
		if len(plain) > 0 {
			r.Problems = append(r.Problems, sameLayerCalls(plain[0], traced[0])...)
		}
	}
	return r
}

func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && dirty {
			return rev + "+modified"
		}
		if rev != "" {
			return rev
		}
	}
	return "unknown"
}

func ranOnly(its []*iteration) []*iteration {
	var out []*iteration
	for _, it := range its {
		if it.run > 0 {
			out = append(out, it)
		}
	}
	return out
}

func medianOf(its []*iteration, f func(*iteration) float64) float64 {
	vs := make([]float64, len(its))
	for i, it := range its {
		vs[i] = f(it)
	}
	return median(vs)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
