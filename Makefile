# Build/verify entry points. `make check` is the full gate: vet + race tests.

GO ?= go

.PHONY: build fmt test vet race race-obs bench bench-json bench-smoke bench-compare perf-gate profile check report runs-diff golden fuzz-smoke check-chaos golden-chaos check-scenarios golden-scenarios check-shards check-lineage golden-lineage check-temporal golden-temporal

build:
	$(GO) build ./...

# Formatting gate: every Go file in the tree must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Focused race pass over the concurrency-heavy layers (quick pre-commit).
race-obs:
	$(GO) test -race ./internal/obs/... ./internal/par/...

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
# kernel benchmarks (PairDistance, OpticsRun) within 1.3x of their best
# historical ns/op. Records order by the date in their filenames, so the gate
# is identical on every checkout.
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
# observability and parallel substrates fail fast; perf-gate is
# pure file analysis; check-scenarios proves every named scenario still
# reproduces its committed golden manifest; check-shards proves -shards is
# output-invariant and the huge tier generates and streams; check-lineage
# proves the provenance capture reproduces its committed digest and answers
# evidence queries.
check: fmt build vet race-obs race perf-gate check-scenarios check-shards check-lineage check-temporal

# Full reproduction report with provenance manifest.
report:
	$(GO) run ./cmd/reproduce -out out -manifest out/manifest.json

# Determinism gate: reproduce at the golden seed/scale and diff the manifest
# against the checked-in reference. Fails (exit 1) on any counter, histogram
# bucket, funnel, or stage-sequence drift; wall times and gauges are
# informational.
runs-diff:
	$(GO) run ./cmd/reproduce -tiny -seed 42 -out /tmp/runsdiff-out -manifest /tmp/runsdiff-out/manifest.json
	$(GO) run ./cmd/runsdiff out/golden_manifest.json /tmp/runsdiff-out/manifest.json

# Regenerate the golden manifest (after intentional metric/funnel changes;
# commit the result and say why in the commit message).
golden:
	$(GO) run ./cmd/reproduce -tiny -seed 42 -out /tmp/golden-out -manifest out/golden_manifest.json

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

# Chaos determinism gate: reproduce under the heavy fault profile at the
# golden seeds and diff against the checked-in degraded reference. The run
# must exit 0 (degraded, not failed) and drift-free.
check-chaos:
	$(GO) run ./cmd/reproduce -tiny -seed 42 -chaos heavy -chaos-seed 7 -out /tmp/chaosdiff-out -manifest /tmp/chaosdiff-out/manifest.json
	$(GO) run ./cmd/runsdiff out/golden_chaos_manifest.json /tmp/chaosdiff-out/manifest.json

# Regenerate the chaos golden manifest (same rules as `make golden`).
golden-chaos:
	$(GO) run ./cmd/reproduce -tiny -seed 42 -chaos heavy -chaos-seed 7 -out /tmp/golden-chaos-out -manifest out/golden_chaos_manifest.json

# The scenario matrix: every distinctive named scenario, golden-gated at test
# scale. The registry's tiny/large entries are pure topology aliases — at
# -tiny their runs are byte-identical to default's, so gating them would
# commit three copies of the same golden.
SCENARIOS ?= default open-connect-everywhere ios-flash-crowd meta-cdn ocdn

# Scenario determinism gate: reproduce each named scenario at the golden
# seed/scale and diff its manifest (scenario name + spec hash included)
# against the checked-in per-scenario reference.
check-scenarios:
	@for s in $(SCENARIOS); do \
		echo "== scenario $$s"; \
		$(GO) run ./cmd/reproduce -scenario $$s -tiny -seed 42 \
			-out /tmp/scenario-$$s -manifest /tmp/scenario-$$s/manifest.json || exit 1; \
		$(GO) run ./cmd/runsdiff out/golden_scenario_$$s.json /tmp/scenario-$$s/manifest.json || exit 1; \
	done

# Shard gate, two halves. (1) Output-invariance: the golden tiny reproduce
# re-run with -shards 4 must still match the committed golden manifest — if
# the shard knob ever leaks into results, this catches it against the same
# reference runs-diff uses. (2) Huge smoke: generate the huge tier
# (generation only, no deployment), spill it to a snapshot, and stream it
# back — bounded wall-clock proof that 50k+-entity worlds build and load.
check-shards:
	$(GO) run ./cmd/reproduce -tiny -seed 42 -shards 4 -out /tmp/sharddiff-out -manifest /tmp/sharddiff-out/manifest.json
	$(GO) run ./cmd/runsdiff out/golden_manifest.json /tmp/sharddiff-out/manifest.json
	@rm -f /tmp/huge-smoke.ofnw
	$(GO) run ./cmd/offnetgen -scenario huge -seed 42 -gen-only -snapshot /tmp/huge-smoke.ofnw
	$(GO) run ./cmd/offnetgen -scenario huge -seed 42 -gen-only -snapshot /tmp/huge-smoke.ofnw

# Lineage determinism gate: reproduce at the golden seed/scale with the
# provenance recorder on, diff the manifest (lineage_digest + per-stage
# decision counts included) against the checked-in lineage reference, and
# smoke-query the capture with cmd/explain — a populated Table 1 cell must
# come back with its evidence chain (explain exits 1 on no match).
check-lineage:
	$(GO) run ./cmd/reproduce -tiny -seed 42 -out /tmp/lineage-out \
		-manifest /tmp/lineage-out/manifest.json -lineage /tmp/lineage-out/lineage.jsonl
	$(GO) run ./cmd/runsdiff out/golden_lineage_manifest.json /tmp/lineage-out/manifest.json
	$(GO) run ./cmd/explain -lineage /tmp/lineage-out/lineage.jsonl -isp 10000 -hg Akamai > /dev/null
	$(GO) run ./cmd/explain -lineage /tmp/lineage-out/lineage.jsonl -list

# Regenerate the lineage golden manifest (same rules as `make golden`).
golden-lineage:
	$(GO) run ./cmd/reproduce -tiny -seed 42 -out /tmp/golden-lineage-out \
		-manifest out/golden_lineage_manifest.json -lineage /tmp/golden-lineage-out/lineage.jsonl

# Temporal determinism gate: replay the committed seed-42 flash-crowd
# schedule through the discrete-event engine and diff the manifest — the
# trajectory digest rides the same runsdiff contract as counters and
# funnels — then re-run at -workers 4 to prove the digest is byte-identical
# at any worker count.
check-temporal:
	$(GO) run ./cmd/reproduce -tiny -seed 42 -hours 24 -schedule schedules/ios-flash-crowd.json \
		-out /tmp/temporal-out -manifest /tmp/temporal-out/manifest.json
	$(GO) run ./cmd/runsdiff out/golden_temporal_manifest.json /tmp/temporal-out/manifest.json
	$(GO) run ./cmd/reproduce -tiny -seed 42 -workers 4 -hours 24 -schedule schedules/ios-flash-crowd.json \
		-out /tmp/temporal-out-w4 -manifest /tmp/temporal-out-w4/manifest.json
	$(GO) run ./cmd/runsdiff out/golden_temporal_manifest.json /tmp/temporal-out-w4/manifest.json

# Regenerate the temporal golden manifest (same rules as `make golden`).
golden-temporal:
	$(GO) run ./cmd/reproduce -tiny -seed 42 -hours 24 -schedule schedules/ios-flash-crowd.json \
		-out /tmp/golden-temporal-out -manifest out/golden_temporal_manifest.json

# Regenerate the per-scenario golden manifests (same rules as `make golden`:
# commit the results and say why in the commit message).
golden-scenarios:
	@for s in $(SCENARIOS); do \
		echo "== scenario $$s"; \
		$(GO) run ./cmd/reproduce -scenario $$s -tiny -seed 42 \
			-out /tmp/golden-scenario-$$s -manifest out/golden_scenario_$$s.json || exit 1; \
	done
