# Build/verify entry points. `make check` is the full gate: vet + race tests.

GO ?= go

.PHONY: build fmt examples test vet race race-obs bench bench-json bench-smoke bench-compare perf-gate profile check report golden fuzz-smoke check-huge

build:
	$(GO) build ./...

# Formatting gate: every Go file in the tree must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

# Run every example program end to end (`go build ./...` only compiles
# them); a non-zero exit from any example fails the target.
examples:
	@for e in examples/*/; do echo "== $$e"; $(GO) run ./$$e > /dev/null || exit 1; done

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Focused race pass over the concurrency-heavy layers (quick pre-commit),
# then ten race runs of the test that publishes one histogram per value and
# in batches from many goroutines at once, and five of the fused traceroute
# survey, whose workers feed funnels, counters and the lineage recorder as
# they classify.
race-obs:
	$(GO) test -race ./internal/obs/... ./internal/par/...
	$(GO) test -race -count=10 -run '^TestConcurrentHistogramSum$$' ./internal/obs
	$(GO) test -race -count=5 -run '^TestSurveyInferMatchesSurveyThenInfer$$' ./internal/tracert

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable bench record: every bench as test2json events, stamped
# with the run date so successive runs accumulate as an experiment log.
# The workers=1 vs workers=4 sub-benches of BenchmarkTable2Colocation and
# BenchmarkSec421PeeringSurvey record the parallel-substrate speedup.
bench-json:
	@f=BENCH_$$(date +%Y-%m-%d).json; n=1; \
	while [ -e $$f ]; do n=$$((n+1)); f=BENCH_$$(date +%Y-%m-%d).$$n.json; done; \
	$(GO) test -run '^$$' -bench . -benchmem -json ./... > $$f && echo "wrote $$f"

# One iteration of every benchmark — a CI smoke test so benches can't bitrot.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Benchstat-style ratios between the two most recent BENCH_*.json records.
bench-compare:
	@set -- $$(ls -t BENCH_*.json 2>/dev/null | head -2); \
	if [ $$# -lt 2 ]; then echo "bench-compare: need two BENCH_*.json records" >&2; exit 1; fi; \
	$(GO) run ./cmd/benchcompare $$2 $$1

# Perf-trajectory gate: the newest BENCH_*.json record must keep the pinned
# kernel benchmarks (PairDistance, OpticsRun, WorldGenerate/legacy) within
# 1.3x of their best historical ns/op. Records order by the date in their
# filenames, so the gate is identical on every checkout.
perf-gate:
	$(GO) run ./cmd/benchcompare -gate BENCH_*.json

# Execution-timeline profile of a tiny run: Perfetto trace + critical-path /
# worker-utilization analysis printed to stdout.
profile:
	$(GO) run ./cmd/reproduce -tiny -seed 42 -out /tmp/profile-out \
		-manifest /tmp/profile-out/manifest.json -trace /tmp/profile-out/trace.json
	$(GO) run ./cmd/obsprofile -validate-trace /tmp/profile-out/trace.json /tmp/profile-out/manifest.json
	@echo "trace: /tmp/profile-out/trace.json (load in ui.perfetto.dev)"

# fmt runs first, so an unformatted file fails before anything builds;
# race-obs runs before the full race suite so concurrency regressions in the
# observability and parallel substrates fail fast; the race suite includes
# cmd/reproduce's TestGoldenRuns, the golden-run determinism gate; perf-gate
# is pure file analysis; check-huge proves the huge tier generates and
# streams; examples runs every example program.
check: fmt build vet race-obs race perf-gate check-huge examples

# Full reproduction report with provenance manifest.
report:
	$(GO) run ./cmd/reproduce -out out -manifest out/manifest.json

# Regenerate the golden manifests TestGoldenRuns compares against
# (cmd/reproduce/testdata/golden-*.json), after an intentional change to a
# counter, histogram, funnel, stage or digest; commit the result and say why
# in the commit message.
golden:
	$(GO) test ./cmd/reproduce -run TestGoldenRuns -update

# Short live-fuzz pass over every fuzz target (one target per invocation, as
# the toolchain requires) — keeps the fuzz harnesses and seed corpora honest
# without burning CI time.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test ./internal/cert -run '^FuzzMatchPattern$$' -fuzz '^FuzzMatchPattern$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cert -run '^FuzzFingerprint$$' -fuzz '^FuzzFingerprint$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/offnetmap -run '^FuzzRuleMatches$$' -fuzz '^FuzzRuleMatches$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rdns -run '^FuzzExtractMetro$$' -fuzz '^FuzzExtractMetro$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rdns -run '^FuzzLearnedExtract$$' -fuzz '^FuzzLearnedExtract$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scenario -run '^FuzzParseSchedule$$' -fuzz '^FuzzParseSchedule$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/coloc -run '^FuzzPairDistance$$' -fuzz '^FuzzPairDistance$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bgp -run '^FuzzPathFrom$$' -fuzz '^FuzzPathFrom$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rngutil -run '^FuzzNew$$' -fuzz '^FuzzNew$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mlab -run '^FuzzProbeStat$$' -fuzz '^FuzzProbeStat$$' -fuzztime $(FUZZTIME)

# Huge-tier smoke: generate the huge tier (generation only, no deployment),
# spill it to a snapshot, and stream it back — bounded wall-clock proof that
# 50k+-entity worlds build and load. The second run must say streamed=true
# and print the first run's count line otherwise unchanged. The snapshot
# lives in a directory of its own, removed on exit.
check-huge:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	gen() { $(GO) run ./cmd/offnetgen -scenario huge -seed 42 -gen-only -snapshot "$$dir/huge.ofnw"; }; \
	first=$$(gen); echo "$$first"; second=$$(gen); echo "$$second"; \
	case "$$second" in *" streamed=true: "*) ;; *) echo "check-huge: the second run did not stream the snapshot" >&2; exit 1;; esac; \
	counts() { echo "$$1" | sed 's/ streamed=[a-z]*:/ streamed=:/'; }; \
	if [ "$$(counts "$$first")" != "$$(counts "$$second")" ]; then echo "check-huge: the two runs' count lines differ" >&2; exit 1; fi
