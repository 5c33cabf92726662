// Package cli holds the flag surface shared by every command in cmd/: one
// registration point so -seed, -tiny, -large, -scenario, -v, -workers,
// -snapshot, -debug-addr, -events, -chaos and -chaos-seed are spelled,
// defaulted and documented identically everywhere,
// plus the common startup plumbing (logger, SIGINT-cancelled context, debug
// endpoints and event streams wired to that context).
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"offnetrisk"
	"offnetrisk/internal/chaos"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/scenario"
)

// Common is the flag set every command shares.
type Common struct {
	Seed          int64
	Tiny          bool
	Large         bool
	Scenario      string
	ListScenarios bool
	Verbose       bool
	Workers       int
	Snapshot      string
	DebugAddr     string
	Events        string
	Trace         string
	Lineage       string
	Chaos         string
	ChaosSeed     int64
	Hours         int
	Schedule      string

	fs   *flag.FlagSet
	sink *obs.EventSink
}

// Register installs the shared flags on fs. Call before the command's own
// flags and before flag.Parse.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{fs: fs}
	fs.Int64Var(&c.Seed, "seed", 42, "world seed")
	fs.BoolVar(&c.Tiny, "tiny", false, "run the scenario at miniature test scale (alias for the tiny topology)")
	fs.BoolVar(&c.Large, "large", false, "run the scenario at the large (paper-sized) scale (alias for the large topology)")
	fs.StringVar(&c.Scenario, "scenario", "", "named scenario or spec-file path declaring the world (see -list-scenarios)")
	fs.BoolVar(&c.ListScenarios, "list-scenarios", false, "list the compiled-in scenarios and exit")
	fs.BoolVar(&c.Verbose, "v", false, "verbose (debug-level) logging")
	fs.IntVar(&c.Workers, "workers", 0, "parallel workers for experiment stages (0 = GOMAXPROCS)")
	fs.StringVar(&c.Snapshot, "snapshot", "", "world snapshot file: generate+spill on first run, stream back afterwards (validated against the scenario)")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve /metrics, /debug/pprof, /debug/vars and /debug/obs on this address (e.g. localhost:6060)")
	fs.StringVar(&c.Events, "events", "", "stream span start/end and funnel snapshots as JSONL to this file")
	fs.StringVar(&c.Trace, "trace", "", "export the execution timeline as Perfetto-loadable trace-event JSON to this file")
	fs.StringVar(&c.Lineage, "lineage", "", "record per-decision provenance and write it as JSONL to this file (query with cmd/explain)")
	fs.StringVar(&c.Chaos, "chaos", "off", "fault-injection profile: off, light or heavy (default: the scenario's)")
	fs.Int64Var(&c.ChaosSeed, "chaos-seed", 7, "seed for the fault-injection streams (independent of -seed; default: the scenario's)")
	fs.IntVar(&c.Hours, "hours", 0, "replay the temporal engine over this many clock hours (0 = off; implied 24 by -schedule)")
	fs.StringVar(&c.Schedule, "schedule", "", "event-schedule file (demand steps, facility failures, capacity cuts, isolation) for the temporal replay")
	return c
}

// HandleScenarioList prints the scenario registry and reports true when
// -list-scenarios was requested; commands return immediately in that case.
func (c *Common) HandleScenarioList() bool {
	if !c.ListScenarios {
		return false
	}
	for _, row := range scenario.Describe() {
		fmt.Printf("%-24s %s\n", row[0], row[1])
	}
	return true
}

// Scale maps -tiny/-large onto the pipeline scale. The scale overrides the
// scenario's topology section, so any scenario can run at test scale.
func (c *Common) Scale() offnetrisk.Scale {
	switch {
	case c.Tiny:
		return offnetrisk.ScaleTiny
	case c.Large:
		return offnetrisk.ScaleLarge
	default:
		return offnetrisk.ScaleDefault
	}
}

// ScenarioSpec resolves -scenario/-tiny/-large to the run's scenario.
// Without -scenario, -tiny and -large are aliases for the registry's tiny
// and large scenarios; passing both at once is an error (previously one
// silently won).
func (c *Common) ScenarioSpec() (*scenario.Spec, error) {
	if c.Tiny && c.Large {
		return nil, errors.New("cli: -tiny and -large are mutually exclusive; pick one world size")
	}
	name := c.Scenario
	if name == "" {
		switch {
		case c.Tiny:
			name = "tiny"
		case c.Large:
			name = "large"
		default:
			name = scenario.DefaultName
		}
	}
	return scenario.Resolve(name)
}

// flagSet reports whether the named flag was explicitly passed.
func (c *Common) flagSet(name string) bool {
	if c.fs == nil {
		return false
	}
	set := false
	c.fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// ChaosSettings resolves the run's fault-injection profile and seed:
// explicit -chaos/-chaos-seed flags win, unset flags fall back to the
// scenario's chaos section.
func (c *Common) ChaosSettings(sp *scenario.Spec) (profile string, seed int64) {
	profile, seed = c.Chaos, c.ChaosSeed
	if sp == nil {
		return profile, seed
	}
	if !c.flagSet("chaos") && sp.Chaos.Profile != "" {
		profile = sp.Chaos.Profile
	}
	if !c.flagSet("chaos-seed") {
		seed = sp.Chaos.Seed
	}
	return profile, seed
}

// WorldConfig resolves the raw world config for commands that generate a
// world directly instead of going through a Pipeline: the scenario's
// topology, overridden by an explicit -tiny/-large scale.
func (c *Common) WorldConfig() (inet.Config, error) {
	sp, err := c.ScenarioSpec()
	if err != nil {
		return inet.Config{}, err
	}
	switch {
	case c.Tiny:
		sp = scenario.MustLookup("tiny")
	case c.Large:
		sp = scenario.MustLookup("large")
	}
	return inet.ConfigFromScenario(sp, c.Seed), nil
}

// Logger sets up the command's structured logger at the -v-selected level.
func (c *Common) Logger(cmd string) *slog.Logger {
	return obs.SetupCLI(cmd, c.Verbose)
}

// InjectorFromSpec resolves -chaos/-chaos-seed to a fault injector (nil when
// off), with the scenario's chaos section as the fallback for unset flags;
// the error reports an unknown profile name.
func (c *Common) InjectorFromSpec(sp *scenario.Spec) (*chaos.Injector, error) {
	profile, seed := c.ChaosSettings(sp)
	prof, err := chaos.ParseProfile(profile)
	if err != nil {
		return nil, err
	}
	return chaos.New(prof, seed), nil
}

// Pipeline builds the pipeline for the selected scenario, seed, scale,
// workers and chaos profile. The error reports a flag conflict, an
// unresolvable -scenario, or an invalid -chaos value.
func (c *Common) Pipeline() (*offnetrisk.Pipeline, error) {
	sp, err := c.ScenarioSpec()
	if err != nil {
		return nil, err
	}
	inj, err := c.InjectorFromSpec(sp)
	if err != nil {
		return nil, err
	}
	p := offnetrisk.NewPipelineFromSpec(sp, c.Seed)
	p.Scale = c.Scale()
	p.Workers = c.Workers
	p.SnapshotPath = c.Snapshot
	p.Chaos = inj
	return p, nil
}

// Temporal resolves -hours/-schedule to the replay horizon and the parsed
// schedule. hours == 0 (and a nil schedule) means no temporal replay was
// requested; -schedule alone implies a 24-hour horizon. Parse and
// validation failures of the schedule file are returned as errors.
func (c *Common) Temporal() (hours int, sched *scenario.Schedule, err error) {
	if c.Hours < 0 {
		return 0, nil, fmt.Errorf("cli: -hours %d must be >= 0", c.Hours)
	}
	hours = c.Hours
	if c.Schedule != "" {
		sched, err = scenario.LoadSchedule(c.Schedule)
		if err != nil {
			return 0, nil, err
		}
		if hours == 0 {
			hours = 24
		}
	}
	return hours, sched, nil
}

// EventSink returns the -events stream opened by Observability (nil when no
// stream was requested or Observability has not run), so commands can hand
// it to subsystems that emit their own event types — the temporal engine's
// trajectory stream rides the same file as the tracer's span events.
func (c *Common) EventSink() *obs.EventSink { return c.sink }

// Context returns a context cancelled by SIGINT/SIGTERM, so ^C aborts
// in-flight experiment stages cleanly instead of killing the process
// mid-write. The returned stop must be deferred.
func (c *Common) Context() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// StartDebug serves the debug endpoints when -debug-addr is set and ties
// their shutdown to ctx, closing the listener (and its accept goroutine)
// when the command is cancelled. No-op with an empty address.
func (c *Common) StartDebug(ctx context.Context, tr *obs.Tracer, logger *slog.Logger) error {
	if c.DebugAddr == "" {
		return nil
	}
	addr, stop, err := obs.ServeDebug(c.DebugAddr, tr)
	if err != nil {
		return err
	}
	context.AfterFunc(ctx, stop)
	logger.Info("debug endpoint listening", "url", "http://"+addr+"/debug/obs")
	return nil
}

// Observability wires the optional observability surfaces in one call: the
// -debug-addr endpoint (pprof, expvar, Prometheus /metrics, live /debug/obs
// page), the -events JSONL stream attached to the tracer, the -trace
// timeline recording whose Perfetto export is written at teardown, and the
// -lineage provenance recorder whose JSONL capture is spilled at teardown.
// The returned close emits the final funnel snapshots, flushes the stream,
// and writes the trace and lineage files; it is idempotent, also runs on ctx
// cancellation (so ^C still leaves a complete stream, trace and lineage
// capture behind), and must be deferred by the command.
func (c *Common) Observability(ctx context.Context, tr *obs.Tracer, logger *slog.Logger) (func(), error) {
	if err := c.StartDebug(ctx, tr, logger); err != nil {
		return nil, err
	}
	var sink *obs.EventSink
	if c.Events != "" {
		s, err := obs.OpenEventSink(c.Events)
		if err != nil {
			return nil, err
		}
		sink = s
		c.sink = sink
		tr.SetSink(sink)
		logger.Info("event stream open", "path", c.Events)
	}
	if c.Trace != "" {
		// Recording must be live before any span or chaos decision runs, so
		// the export sees the whole run.
		tr.EnableTimeline()
	}
	if c.Lineage != "" {
		// Like the timeline, the recorder must be live before any
		// classification decision runs so the capture covers the whole run.
		obs.SetLineage(obs.NewLineageRecorder())
	}
	if sink == nil && c.Trace == "" && c.Lineage == "" {
		return func() {}, nil
	}
	var once sync.Once
	stop := func() {
		once.Do(func() {
			if sink != nil {
				c.sink = nil
				tr.SetSink(nil)
				sink.EmitFunnels(obs.Default)
				if err := sink.Close(); err != nil {
					logger.Warn("event stream close failed", "path", c.Events, "err", err)
				}
			}
			if c.Trace != "" {
				if err := obs.WriteTraceFile(c.Trace, tr); err != nil {
					logger.Warn("trace export failed", "path", c.Trace, "err", err)
				} else {
					logger.Info("trace written", "path", c.Trace, "hint", "load in ui.perfetto.dev")
				}
			}
			if lr := obs.ActiveLineage(); c.Lineage != "" && lr != nil {
				if err := obs.WriteLineageFile(c.Lineage, lr, obs.Default.FunnelSnapshots()); err != nil {
					logger.Warn("lineage export failed", "path", c.Lineage, "err", err)
				} else {
					logger.Info("lineage written", "path", c.Lineage,
						"records", len(lr.Records()), "digest", lr.Digest(),
						"hint", "query with cmd/explain")
				}
			}
		})
	}
	context.AfterFunc(ctx, stop)
	return stop, nil
}
