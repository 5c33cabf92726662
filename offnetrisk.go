// Package offnetrisk reproduces "The Central Problem with Distributed
// Content: Common CDN Deployments Centralize Traffic In A Risky Way"
// (HotNets 2023) as a runnable system: a synthetic Internet with hypergiant
// offnet deployments, the paper's measurement pipelines (TLS-scan offnet
// discovery, latency-based OPTICS colocation clustering, reverse-DNS
// validation, cloud traceroute peering inference), and the capacity /
// cascade models behind its risk argument.
//
// The entry point is Pipeline: configure a world size and a seed, then run
// the experiment corresponding to each table and figure of the paper.
//
//	p := offnetrisk.NewPipeline(42, offnetrisk.ScaleDefault)
//	t1, err := p.Table1Context(ctx)          // §2.2, Table 1
//	col, err := p.ColocationContext(ctx)     // §3.2, Table 2 + Figures 1–2
//	ps, err := p.PeeringSurveyContext(ctx)   // §4.2.1
//	cap, err := p.CapacityStudyContext(ctx)  // §4.1 + §4.2.2
//	cas, err := p.CascadeStudyContext(ctx)   // §3.3 + §4.3
//
// All randomness derives from the pipeline seed; equal seeds reproduce
// identical results bit for bit.
package offnetrisk

import (
	"context"
	"fmt"

	"offnetrisk/internal/chaos"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/par"
	"offnetrisk/internal/scenario"
)

var mSnapshotLoads = obs.NewCounter("world.snapshot_loads",
	"worlds streamed from a binary snapshot instead of re-synthesized")

// Scale selects how large a synthetic Internet the pipeline builds.
type Scale int

// Scales. ScaleTiny runs in well under a second and is meant for tests;
// ScaleDefault approximates the structural ratios of the paper's datasets
// and runs in seconds.
const (
	ScaleTiny Scale = iota
	ScaleDefault
	ScaleLarge
)

// Pipeline owns a seeded reproduction run. Each epoch's world and
// deployment, and each experiment's result, is computed lazily on its first
// request and shared read-only by every later one (DESIGN.md §6), so set
// every field before the first call.
type Pipeline struct {
	Seed  int64
	Scale Scale

	// Workers bounds the worker pools behind every parallel experiment
	// stage (ping campaign, OPTICS clustering, peering survey, scenario
	// sweeps, Monte Carlo trials); <= 0 means GOMAXPROCS. All per-task
	// randomness is derived per unit of work (rngutil.Derive and friends),
	// so results are bit-for-bit identical at any worker count — Workers
	// trades wall-clock time only, never output.
	Workers int

	// Chaos optionally injects deterministic, seed-derived faults into
	// every measurement stage (ping campaign, traceroute survey, TLS-scan
	// classification); nil — the default — runs clean. Fault decisions are
	// pure hashes of (chaos seed, item), so a fixed (Seed, chaos seed,
	// Workers) triple reproduces byte-identically at any worker count, and
	// every injected fault is visible as a chaos.* counter or a chaos_*
	// funnel drop reason. See internal/chaos.
	Chaos *chaos.Injector

	// SnapshotPath, when set, spills the generated world to a binary
	// snapshot on first build and streams it back on every later build
	// (including later epochs of the same run) instead of re-synthesizing.
	// The snapshot is validated against the pipeline's world config and
	// scenario hash; a mismatch is a hard error, mirroring the runsdiff
	// drift contract.
	SnapshotPath string

	// Spec is the resolved scenario the pipeline builds its world from; nil
	// means the registry's default scenario (the paper's hard-coded world).
	// At ScaleTiny/ScaleLarge the spec's topology section is overridden by
	// the registry's tiny/large topology, so `-scenario X -tiny` means
	// "scenario X's deployments, traffic and measurements at test scale" —
	// the combination the golden-gated scenario matrix runs.
	Spec *scenario.Spec

	// tracer records per-stage spans when instrumentation is attached via
	// Instrument; nil (the default) disables tracing at zero cost. Tracing
	// never feeds back into experiment results, so instrumented and plain
	// runs of the same seed are bit-for-bit identical.
	tracer *obs.Tracer

	memo memo
}

// NewPipeline creates a pipeline for the given seed and scale, running the
// default scenario.
func NewPipeline(seed int64, scale Scale) *Pipeline {
	return &Pipeline{Seed: seed, Scale: scale}
}

// NewPipelineFromSpec creates a pipeline running a resolved scenario at
// ScaleDefault (the spec's own topology). Combine with Scale overrides via
// the struct field if test-scale runs of the scenario are wanted.
func NewPipelineFromSpec(sp *scenario.Spec, seed int64) *Pipeline {
	p := NewPipeline(seed, ScaleDefault)
	p.Spec = sp
	return p
}

// spec returns the pipeline's scenario, defaulting to the registry's
// default world.
func (p *Pipeline) spec() *scenario.Spec {
	if p.Spec != nil {
		return p.Spec
	}
	return scenario.Default()
}

// Scenario exposes the resolved scenario the pipeline runs (never nil), so
// commands that drive measurement stages directly share the same spec.
func (p *Pipeline) Scenario() *scenario.Spec { return p.spec() }

// Instrument attaches a span tracer; every experiment method then records a
// root span over its internal stages, and the chaos injector (if any) gains
// the tracer's timeline for fault instant events. Pass nil to disable again.
func (p *Pipeline) Instrument(t *obs.Tracer) {
	p.tracer = t
	p.Chaos.SetTimeline(t)
}

// Tracer returns the attached tracer (nil when uninstrumented).
func (p *Pipeline) Tracer() *obs.Tracer { return p.tracer }

// span opens a span on the attached tracer; with no tracer it returns a nil
// span whose methods are no-ops.
func (p *Pipeline) span(name string) *obs.Span {
	return p.tracer.Start(name)
}

// spanCtx opens a span and returns a context carrying it, so parallel
// stages downstream can attribute per-worker child spans to it.
func (p *Pipeline) spanCtx(ctx context.Context, name string) (context.Context, *obs.Span) {
	sp := p.tracer.Start(name)
	return obs.ContextWithSpan(ctx, sp), sp
}

// workers normalizes the pipeline's Workers knob.
func (p *Pipeline) workers() int {
	return par.Workers(p.Workers)
}

// String names the scale for logs and manifests.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleLarge:
		return "large"
	default:
		return "default"
	}
}

// worldConfig resolves the topology: explicit tiny/large scales override
// the spec's topology section with the registry's tiny/large worlds, so
// every scenario can run golden-gated at test scale.
func (p *Pipeline) worldConfig() inet.Config {
	sp := p.spec()
	switch p.Scale {
	case ScaleTiny:
		sp = scenario.MustLookup("tiny")
	case ScaleLarge:
		sp = scenario.MustLookup("large")
	}
	return inet.ConfigFromScenario(sp, p.Seed)
}

// buildWorld synthesizes (or, with SnapshotPath set, streams back) one
// fresh world for an epoch.
func (p *Pipeline) buildWorld() (*inet.World, error) {
	w, fromDisk, err := inet.LoadOrGenerate(p.SnapshotPath, p.worldConfig(), p.spec().Hash())
	if err != nil {
		return nil, fmt.Errorf("offnetrisk: build world: %w", err)
	}
	if fromDisk {
		mSnapshotLoads.Inc()
	}
	return w, nil
}

// epochWorld is one epoch's cached world and deployment.
type epochWorld struct {
	w *inet.World
	d *hypergiant.Deployment
}

// deployment returns (building if needed) the world and deployment for an
// epoch. Deployments mutate their world, so each epoch gets a fresh world
// generated from the same seed.
func (p *Pipeline) deployment(epoch hypergiant.Epoch) (*inet.World, *hypergiant.Deployment, error) {
	ew, err := cached(&p.memo, memoKey{"world", int(epoch)}, func() (epochWorld, error) {
		sp := p.span(fmt.Sprintf("world/build-%d", epoch))
		defer sp.End()
		w, err := p.buildWorld()
		if err != nil {
			return epochWorld{}, err
		}
		d, err := hypergiant.Deploy(w, epoch, hypergiant.DeployConfigFromScenario(p.spec(), p.Seed))
		if err != nil {
			return epochWorld{}, fmt.Errorf("offnetrisk: deploy epoch %d: %w", epoch, err)
		}
		sp.SetAttr("isps", len(w.ISPs))
		sp.SetAttr("servers", len(d.Servers))
		return epochWorld{w, d}, nil
	})
	return ew.w, ew.d, err
}

// World2023 exposes the 2023 world and deployment for advanced use (custom
// scenarios, examples).
func (p *Pipeline) World2023() (*inet.World, *hypergiant.Deployment, error) {
	return p.deployment(hypergiant.Epoch2023)
}

// World2021 exposes the 2021 snapshot.
func (p *Pipeline) World2021() (*inet.World, *hypergiant.Deployment, error) {
	return p.deployment(hypergiant.Epoch2021)
}
