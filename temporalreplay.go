package offnetrisk

import (
	"context"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/temporal"
)

// TemporalReplayContext runs the discrete-event engine over the pipeline's
// 2023 deployment: hours of shared clock, the scenario-calibrated capacity
// model, and an optional event schedule (nil = diurnal steady state). The
// optional sink receives every trajectory event live on the -events stream.
// The trajectory — and therefore its digest — depends only on (seed, scale,
// scenario, hours, schedule): workers and chaos never reach the engine.
func (p *Pipeline) TemporalReplayContext(ctx context.Context, hours int, sched *scenario.Schedule, sink *obs.EventSink) (*temporal.Trajectory, error) {
	root := p.span("temporal-replay")
	defer root.End()
	_, d, err := p.deployment(hypergiant.Epoch2023)
	if err != nil {
		return nil, err
	}
	m := capacity.Build(d, capacity.ConfigFromScenario(p.spec(), p.Seed))
	eng, err := temporal.New(m, d, sched, temporal.Config{Hours: hours, Sink: sink})
	if err != nil {
		return nil, err
	}
	traj, err := eng.Run(ctx)
	if err != nil {
		return nil, err
	}
	root.SetAttr("hours", hours)
	root.SetAttr("events", len(traj.Events))
	root.SetAttr("steps", len(traj.Steps))
	return traj, nil
}
