// benchcompare diffs two `make bench-json` records (test2json streams of a
// -bench run) benchstat-style: one row per benchmark with old → new ns/op,
// B/op, and allocs/op plus the ratio, so a perf PR can quote its before/after
// from two dated BENCH_*.json files without external tooling.
//
//	benchcompare OLD.json NEW.json
//
// With -gate it instead runs the perf-trajectory gate over the whole dated
// BENCH_*.json series: records sort by the (date, sequence) parsed from
// their filenames — never by mtime, which CI checkouts scramble — the newest
// record is the candidate, and every pinned kernel benchmark (-pin) must
// stay within -max-ratio of its best historical ns/op. Exit 1 when any
// pinned bench regressed past the ratio, 2 on usage errors.
//
//	benchcompare -gate BENCH_*.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// metrics is one benchmark's parsed numbers; zero means "not reported".
type metrics struct {
	nsOp     float64
	bytesOp  float64
	allocsOp float64
}

// event is the subset of a test2json record we need.
type event struct {
	Action string
	Test   string
	Output string
}

// parseFile extracts benchmark results from a test2json stream, keyed by the
// benchmark name (the event's Test field, which test2json sets for every
// output line a benchmark emits).
func parseFile(path string) (map[string]metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := make(map[string]metrics)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			continue // tolerate trailing garbage / non-JSON lines
		}
		if e.Action != "output" || !strings.Contains(e.Output, "ns/op") {
			continue
		}
		name := e.Test
		if name == "" {
			// Older streams leave Test empty for package-level output; the
			// bench name is then the line's first field.
			if fields := strings.Fields(e.Output); len(fields) > 0 && strings.HasPrefix(fields[0], "Benchmark") {
				name = fields[0]
			}
		}
		if !strings.HasPrefix(name, "Benchmark") {
			continue
		}
		m := out[name]
		// A bench line is tab-separated "<iters>\t<value> <unit>\t..." —
		// match on the unit suffix of each cell.
		for _, cell := range strings.Split(e.Output, "\t") {
			cell = strings.TrimSpace(cell)
			for _, want := range []struct {
				unit string
				dst  *float64
			}{{"ns/op", &m.nsOp}, {"B/op", &m.bytesOp}, {"allocs/op", &m.allocsOp}} {
				if v, ok := strings.CutSuffix(cell, " "+want.unit); ok {
					if x, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
						*want.dst = x
					}
				}
			}
		}
		out[name] = m
	}
	return out, sc.Err()
}

// ratio renders new/old as a benchstat-style delta ("-62.9%", "+4.0%", "~").
func ratio(old, new float64) string {
	if old == 0 || new == 0 {
		return "?"
	}
	d := (new - old) / old * 100
	if d > -0.5 && d < 0.5 {
		return "~"
	}
	return fmt.Sprintf("%+.1f%%", d)
}

func human(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gk", v/1e3)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// benchFileName parses a record's basename: BENCH_YYYY-MM-DD.json or
// BENCH_YYYY-MM-DD.<n>.json for same-day reruns. The (date, seq) pair is the
// series order.
var benchFileName = regexp.MustCompile(`^BENCH_(\d{4}-\d{2}-\d{2})(?:\.(\d+))?\.json$`)

// record is one dated BENCH_*.json file in series order.
type record struct {
	path string
	date string
	seq  int
}

// sortRecords orders paths by their parsed (date, seq), rejecting filenames
// outside the BENCH_ naming scheme — the gate's ordering must come from the
// names alone, so it is identical on every checkout.
func sortRecords(paths []string) ([]record, error) {
	recs := make([]record, 0, len(paths))
	for _, p := range paths {
		m := benchFileName.FindStringSubmatch(filepath.Base(p))
		if m == nil {
			return nil, fmt.Errorf("%s: not a BENCH_YYYY-MM-DD[.n].json record", p)
		}
		seq := 1
		if m[2] != "" {
			seq, _ = strconv.Atoi(m[2])
		}
		recs = append(recs, record{path: p, date: m[1], seq: seq})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].date != recs[j].date {
			return recs[i].date < recs[j].date
		}
		return recs[i].seq < recs[j].seq
	})
	return recs, nil
}

// gate runs the perf-trajectory check and returns the exit status.
func gate(paths []string, maxRatio float64, pin *regexp.Regexp) int {
	recs, err := sortRecords(paths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		return 2
	}
	if len(recs) < 2 {
		// A one-record series has no trajectory yet: pass, noting why, so the
		// gate is safe to wire into `make check` from the first record on.
		fmt.Printf("perf-gate: %d record(s), nothing to compare yet\n", len(recs))
		return 0
	}
	cand := recs[len(recs)-1]
	candM, err := parseFile(cand.path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		return 2
	}

	// Baseline: the best (minimum) historical ns/op per pinned bench across
	// every older record, so a slow outlier day never loosens the gate.
	base := make(map[string]float64)
	baseAt := make(map[string]string)
	for _, r := range recs[:len(recs)-1] {
		m, err := parseFile(r.path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcompare:", err)
			return 2
		}
		for name, v := range m {
			if v.nsOp <= 0 || !pin.MatchString(name) {
				continue
			}
			if old, ok := base[name]; !ok || v.nsOp < old {
				base[name] = v.nsOp
				baseAt[name] = filepath.Base(r.path)
			}
		}
	}
	// The ranked set is the union of pinned benches with history and pinned
	// benches in the candidate: a bench first appearing today has no
	// trajectory yet and passes as NEW; one that vanished fails as MISSING.
	seen := make(map[string]bool, len(base))
	names := make([]string, 0, len(base))
	for n := range base {
		seen[n] = true
		names = append(names, n)
	}
	for n, v := range candM {
		if v.nsOp > 0 && pin.MatchString(n) && !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: no benchmark matches pin %q in any record\n", pin)
		return 2
	}
	sort.Strings(names)

	fmt.Printf("perf-gate: candidate %s vs best of %d prior record(s), max ratio %.2fx\n",
		filepath.Base(cand.path), len(recs)-1, maxRatio)
	fmt.Printf("%-55s %10s %10s %7s  %s\n", "pinned benchmark", "best ns/op", "cand", "ratio", "verdict")
	failed := 0
	for _, n := range names {
		b, hasBase := base[n]
		c, ok := candM[n]
		row := strings.TrimPrefix(n, "Benchmark")
		if !hasBase {
			fmt.Printf("%-55s %10s %10s %7s  NEW (no baseline yet)\n", row, "-", human(c.nsOp), "-")
			continue
		}
		if !ok || c.nsOp <= 0 {
			// A pinned bench vanishing from the series is itself a regression:
			// the gate would otherwise go blind one rename at a time.
			fmt.Printf("%-55s %10s %10s %7s  MISSING (was in %s)\n", row, human(b), "-", "-", baseAt[n])
			failed++
			continue
		}
		r := c.nsOp / b
		verdict := "ok"
		if r > maxRatio {
			verdict = fmt.Sprintf("REGRESSED vs %s", baseAt[n])
			failed++
		}
		fmt.Printf("%-55s %10s %10s %6.2fx  %s\n", row, human(b), human(c.nsOp), r, verdict)
	}
	if failed > 0 {
		fmt.Printf("perf-gate: FAIL — %d pinned benchmark(s) over %.2fx of their best recorded ns/op\n", failed, maxRatio)
		return 1
	}
	fmt.Println("perf-gate: ok")
	return 0
}

func main() {
	gateMode := flag.Bool("gate", false, "perf-trajectory gate over a dated BENCH_*.json series instead of a two-file diff")
	maxRatio := flag.Float64("max-ratio", 1.3, "gate: fail when a pinned bench's ns/op exceeds this multiple of its best recorded value")
	pinExpr := flag.String("pin", "^Benchmark(PairDistance|OpticsRun|WorldGenerate/legacy)", "gate: regexp selecting the pinned kernel benchmarks")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: benchcompare OLD.json NEW.json\n       benchcompare -gate [-max-ratio 1.3] [-pin regexp] BENCH_*.json...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *gateMode {
		pin, err := regexp.Compile(*pinExpr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcompare: bad -pin:", err)
			os.Exit(2)
		}
		os.Exit(gate(flag.Args(), *maxRatio, pin))
	}

	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldM, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
	newM, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}

	names := make([]string, 0, len(oldM))
	for n := range oldM {
		if _, ok := newM[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Println("no common benchmarks")
		return
	}

	fmt.Printf("%-55s %10s %10s %8s %10s %10s %8s %9s %9s %8s\n",
		"benchmark ("+flag.Arg(0)+" → "+flag.Arg(1)+")",
		"ns/op", "ns/op'", "Δ", "B/op", "B/op'", "Δ", "allocs", "allocs'", "Δ")
	for _, n := range names {
		o, nw := oldM[n], newM[n]
		fmt.Printf("%-55s %10s %10s %8s %10s %10s %8s %9s %9s %8s\n",
			strings.TrimPrefix(n, "Benchmark"),
			human(o.nsOp), human(nw.nsOp), ratio(o.nsOp, nw.nsOp),
			human(o.bytesOp), human(nw.bytesOp), ratio(o.bytesOp, nw.bytesOp),
			human(o.allocsOp), human(nw.allocsOp), ratio(o.allocsOp, nw.allocsOp))
	}
}
