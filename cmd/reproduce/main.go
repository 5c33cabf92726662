// Command reproduce runs every experiment in the paper and writes a
// self-contained report directory: REPORT.md with paper-vs-measured numbers
// and SVG renderings of Figure 1 (world map), Figure 2 (CCDF), and the
// diurnal sweep.
//
//	go run ./cmd/reproduce -out out/
//
// Stages run independently: a failing stage is recorded and the remaining
// stages still run; the command exits non-zero if any stage failed. With
// -manifest the run writes a JSON provenance document (seed, scale, span
// tree, metric values); with -debug-addr it serves the Go runtime's
// /debug/pprof/ profiles while running. Every experiment stage records a
// root span, so the manifest's span tree accounts for the run's wall time.
// SIGINT cancels the in-flight stage and shuts the debug endpoint down
// cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"offnetrisk"
	"offnetrisk/internal/chaos"
	"offnetrisk/internal/cli"
	"offnetrisk/internal/geo"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/svgplot"
	"offnetrisk/internal/sweep"
	"offnetrisk/internal/temporal"
)

func main() {
	common := cli.Register(flag.CommandLine)
	common.PipelineFlags()
	common.ReplayFlags()
	outDir := flag.String("out", "out", "output directory")
	manifestPath := flag.String("manifest", "", "write a JSON run manifest to this path")
	flag.Parse()

	if common.HandleScenarioList() {
		return
	}
	logger := common.Logger("reproduce")
	start := time.Now()
	ctx, stop := common.Context()
	defer stop()

	scale := common.Scale()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		logger.Error("cannot create output directory", "dir", *outDir, "err", err)
		os.Exit(1)
	}

	tr := obs.NewTracer()
	p, err := common.Pipeline()
	if err != nil {
		logger.Error("invalid flags", "err", err)
		os.Exit(2)
	}
	hours, sched, err := common.Temporal()
	if err != nil {
		logger.Error("invalid temporal flags", "err", err)
		os.Exit(2)
	}
	p.Instrument(tr)

	stopObs, err := common.Observability(ctx, tr, logger)
	if err != nil {
		logger.Error("observability setup failed", "addr", common.DebugAddr, "err", err)
		os.Exit(1)
	}
	defer stopObs()

	var md strings.Builder
	fmt.Fprintf(&md, "# offnetrisk reproduction report\n\nseed %d, scale %v\n\n", common.Seed, scale)
	// Scenario provenance appears only when -scenario was passed, as in the
	// manifest.
	if common.Scenario != "" {
		sp := p.Scenario()
		fmt.Fprintf(&md, "scenario `%s` (spec sha256 `%s`)\n\n", sp.Name, sp.Hash())
	}

	// Stages run in order; a failure is collected, not fatal, so one broken
	// experiment still leaves the rest of the report usable. Cancellation is
	// fatal: once ctx is done every remaining stage would fail the same way.
	type failure struct {
		stage string
		err   error
	}
	var failures []failure
	run := func(stage string, fn func() error) {
		if ctx.Err() != nil {
			return
		}
		logger.Info("running stage", "stage", stage)
		t0 := time.Now()
		if err := fn(); err != nil {
			if errors.Is(err, context.Canceled) {
				logger.Warn("stage cancelled", "stage", stage)
				return
			}
			logger.Error("stage failed", "stage", stage, "err", err)
			failures = append(failures, failure{stage, err})
			fmt.Fprintf(&md, "## %s\n\n**stage failed:** `%v`\n\n", stage, err)
			return
		}
		logger.Debug("stage done", "stage", stage, "elapsed", time.Since(t0).Round(time.Millisecond))
	}
	writeFile := func(name, content string) error {
		if err := os.WriteFile(filepath.Join(*outDir, name), []byte(content), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", name, err)
		}
		return nil
	}

	run("table1", func() error {
		t1, err := p.Table1Context(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(&md, "## Table 1 (§2.2)\n\n```\n%s```\n\n", t1)
		return nil
	})

	run("colocation", func() error {
		col, err := p.ColocationContext(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(&md, "## Table 2, Figures 1–2 (§3.2)\n\n```\n%s```\n\n", col)
		fmt.Fprintf(&md, "![Figure 1](figure1.svg)\n\n![Figure 2](figure2.svg)\n\n")

		// Figure 2 SVG: user-weighted CCDF, both ξ.
		var fig2 []svgplot.Series
		for _, xi := range offnetrisk.Xis {
			s := svgplot.Series{Name: fmt.Sprintf("ξ=%.1f", xi)}
			for _, pt := range col.Figure2[xi] {
				s.X = append(s.X, pt.Share)
				s.Y = append(s.Y, pt.Users)
			}
			fig2 = append(fig2, s)
		}
		if err := writeFile("figure2.svg", svgplot.StepLines(
			"Figure 2: CCDF of traffic fraction served from one facility",
			"estimated fraction of traffic from one facility", "fraction of users", fig2)); err != nil {
			return err
		}

		// Figure 1 SVG: one dot per country at its first metro, shaded by the
		// ≥2-hypergiant user share.
		var points []svgplot.MapPoint
		rows := append([]offnetrisk.CountryRow(nil), col.Figure1...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].Country < rows[j].Country })
		for _, row := range rows {
			ms := geo.MetrosIn(row.Country)
			if len(ms) == 0 {
				continue
			}
			points = append(points, svgplot.MapPoint{
				LatDeg: ms[0].Loc.LatDeg, LonDeg: ms[0].Loc.LonDeg,
				Value: row.AtLeast2, Label: row.Country,
			})
		}
		return writeFile("figure1.svg", svgplot.WorldMap(
			"Figure 1a: users in ISPs hosting ≥2 hypergiants", points))
	})

	run("reachability-plot", func() error {
		// Reachability plot of the busiest analyzed ISP: the raw material the
		// ξ extraction works on (the OPTICS paper's signature diagram), read
		// from the colocation result the stage above computed.
		sp := tr.Start("reachability-plot")
		defer sp.End()
		col, err := p.ColocationContext(ctx)
		if err != nil {
			return err
		}
		if len(col.Reachability) < 2 {
			return nil
		}
		if err := writeFile("reachability.svg", svgplot.Bars(
			"OPTICS reachability plot (busiest analyzed ISP)",
			"processing order", "reachability distance (ms)", col.Reachability)); err != nil {
			return err
		}
		fmt.Fprintf(&md, "![reachability](reachability.svg)\n\n")
		return nil
	})

	run("peering-survey", func() error {
		ps, err := p.PeeringSurveyContext(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(&md, "## Peering survey (§4.2.1)\n\n```\n%s```\n\n", ps)
		return nil
	})

	run("capacity-study", func() error {
		cs, err := p.CapacityStudyContext(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(&md, "## Capacity (§4.1, §4.2.2)\n\n```\n%s```\n\n![diurnal](diurnal.svg)\n\n", cs)

		var nearby, distant svgplot.Series
		nearby.Name, distant.Name = "nearby (offnet)", "distant (interdomain)"
		for _, pt := range cs.Diurnal {
			nearby.X = append(nearby.X, float64(pt.Hour))
			nearby.Y = append(nearby.Y, pt.NearbyPct)
			distant.X = append(distant.X, float64(pt.Hour))
			distant.Y = append(distant.Y, pt.DistantPct)
		}
		return writeFile("diurnal.svg", svgplot.Lines(
			"§4.1: where traffic is served, by hour", "hour of day", "% of traffic",
			[]svgplot.Series{nearby, distant}))
	})

	run("cascade-study", func() error {
		cas, err := p.CascadeStudyContext(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(&md, "## Cascades (§3.3, §4.3)\n\n```\n%s```\n\n", cas)
		return nil
	})

	run("mapping-study", func() error {
		mp, err := p.MappingStudyContext(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(&md, "## DNS mapping methodology (§3.2)\n\n```\n%s```\n\n", mp)
		return nil
	})

	run("mitigation-study", func() error {
		mit, err := p.MitigationStudyContext(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(&md, "## Isolation what-if (§6)\n\n```\n%s```\n", mit)
		return nil
	})

	run("sensitivity-sweeps", func() error {
		sp := tr.Start("sensitivity-sweeps")
		defer sp.End()
		var tables strings.Builder
		for _, s := range []struct {
			name   string
			run    func(int64, []float64) (sweep.Result, error)
			values []float64
		}{
			{"colocation-propensity", sweep.ColocationPropensity, []float64{0.3, 0.6, 0.86, 0.95}},
			{"shared-headroom", sweep.SharedHeadroom, []float64{1.05, 1.25, 1.5, 2.0}},
			{"demand-spike", sweep.DemandSpike, []float64{1.0, 1.3, 1.58, 2.0, 3.0}},
		} {
			r, err := s.run(common.Seed, s.values)
			if err != nil {
				return fmt.Errorf("%s sweep: %w", s.name, err)
			}
			tables.WriteString(r.String())
		}
		fmt.Fprintf(&md, "## Sensitivity sweeps (DESIGN.md §5)\n\n```\n%s```\n\n", tables.String())
		return nil
	})

	// Temporal replay runs only when -hours/-schedule requested it.
	var traj *temporal.Trajectory
	if hours > 0 {
		run("temporal-replay", func() error {
			t, err := p.TemporalReplayContext(ctx, hours, sched, common.EventSink())
			if err != nil {
				return err
			}
			traj = t
			fmt.Fprintf(&md, "## Temporal replay (DESIGN.md §14)\n\n```\n%s\n```\n\n", traj.Summary())
			fmt.Fprintf(&md, "| t (h) | demand (Gbps) | offnet %% | interdomain %% | congested links | collateral ISPs |\n")
			fmt.Fprintf(&md, "|---|---|---|---|---|---|\n")
			for _, st := range traj.Steps {
				a := st.Agg
				off, inter := 0.0, 0.0
				if a.Demand > 0 {
					off = 100 * a.Offnet / a.Demand
					inter = 100 * (a.PNI + a.IXP + a.UpstreamOffnet + a.Transit) / a.Demand
				}
				fmt.Fprintf(&md, "| %g | %.0f | %.1f | %.1f | %d | %d |\n",
					st.AtHours, a.Demand, off, inter,
					a.CongestedIXPs+a.CongestedTransits, a.CollateralISPs)
			}
			fmt.Fprintf(&md, "\n")
			return nil
		})
	}

	var passed, total int
	run("conformance", func() error {
		suite, err := p.ConformanceContext(ctx)
		if err != nil {
			return err
		}
		passed, total = suite.Passed(), len(suite.Checks)
		fmt.Fprintf(&md, "## Conformance against the paper\n\n%s\n", suite.Markdown())
		return nil
	})

	// The run's one manifest, built after the last experiment stage: the
	// closing sections render from it, and -manifest writes it.
	m := obs.BuildManifest("reproduce", common.Seed, scale.String(), tr, start)
	if common.Scenario != "" {
		m.Scenario = p.Scenario().Name
		m.ScenarioHash = p.Scenario().Hash()
	}
	m.Snapshot = common.Snapshot
	if traj != nil {
		m.TrajectoryDigest = traj.Digest()
		m.TemporalHours = traj.Hours
		m.TemporalSchedule = traj.ScheduleName
	}
	chaos.Annotate(m, p.Chaos, chaos.DefaultThresholds())

	if len(m.Funnels) > 0 {
		fmt.Fprintf(&md, "\n## Data funnel (Appendix A accounting)\n\nPer filtering stage: items in, items kept, and the drop breakdown. Every\nrow satisfies in == kept + dropped; these are the denominators behind the\ntables above.\n\n%s", obs.FunnelTable(m.Funnels))
	}

	// Degradation verdict: under chaos, a stage losing more than its
	// threshold to injected faults marks the run degraded — reported, not
	// failed. Clean runs skip the section entirely.
	if p.Chaos.Enabled() {
		fmt.Fprintf(&md, "\n## Fault injection (chaos)\n\nProfile `%s`, chaos-seed %d. Injected faults are accounted in the\nchaos.* counters and the chaos_* drop reasons of the funnel table above.\n\n",
			m.ChaosProfile, m.ChaosSeed)
		if len(m.DegradedStages) == 0 {
			fmt.Fprintf(&md, "No stage exceeded its degradation threshold: the run is **not degraded**.\n")
		} else {
			fmt.Fprintf(&md, "**Run degraded** — stages over their chaos-loss threshold: %s.\n",
				strings.Join(m.DegradedStages, ", "))
		}
	}

	// Evidence appendix: sampled evidence chains from the lineage recorder;
	// each stage's counts are its row of the data funnel above. Lineage-off
	// runs skip the section entirely.
	if lr := obs.ActiveLineage(); lr != nil {
		fmt.Fprintf(&md, "\n## Evidence appendix (lineage)\n\nPer-decision provenance sampled by the lineage recorder (digest `%s`).\nEach stage's counts are its row of the data funnel table above; below is\na deterministic sample of its evidence chains. Query the full capture\nwith cmd/explain.\n%s",
			m.LineageDigest, obs.LineageMarkdown(lr, 2))
	}

	// Timeline analysis of the run itself: critical path, exclusive
	// self-times, worker utilization. Wall-clock numbers, so the section —
	// like the manifest's profile block — varies run to run and is excluded
	// from determinism comparisons; the experiment sections above are not.
	if m.Profile != nil {
		fmt.Fprintf(&md, "\n## Performance profile\n\n%s", m.Profile.Markdown())
	}

	run("report", func() error {
		return writeFile("REPORT.md", md.String())
	})

	if *manifestPath != "" {
		run("manifest", func() error {
			if err := m.WriteFile(*manifestPath); err != nil {
				return err
			}
			logger.Info("manifest written", "path", *manifestPath,
				"stages", m.StageCount(), "metrics", len(m.Metrics))
			return nil
		})
	}

	if ctx.Err() != nil {
		logger.Error("run interrupted", "elapsed", time.Since(start).Round(time.Millisecond))
		os.Exit(1)
	}
	if len(failures) > 0 {
		logger.Error("run finished with failures",
			"failed", len(failures), "elapsed", time.Since(start).Round(time.Millisecond))
		for _, f := range failures {
			logger.Error("failed stage", "stage", f.stage, "err", f.err)
		}
		os.Exit(1)
	}
	logger.Info("report written",
		"path", filepath.Join(*outDir, "REPORT.md"),
		"conformance", fmt.Sprintf("%d/%d", passed, total),
		"elapsed", time.Since(start).Round(time.Millisecond))
}
