// Package sweep runs parameter sweeps over the reproduction's design knobs
// and records how the paper's headline quantities respond — the sensitivity
// analysis behind the calibration choices in DESIGN.md. Each sweep rebuilds
// the affected pipeline per point, deterministically.
//
// Every sweep runs the default scenario's deployments and capacity
// calibration on the registry's tiny world, whatever scenario and scale the
// caller runs: the directions under test are scale-independent.
package sweep

import (
	"context"
	"fmt"
	"time"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/cascade"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

// Point is one sweep sample: the parameter value and the observed metrics.
type Point struct {
	Param   float64
	Metrics map[string]float64
	// ElapsedMS is the wall-clock cost of computing this point. It is
	// excluded from String() so the default rendering (used in REPORT.md and
	// conformance) stays deterministic; TimedString() includes it.
	ElapsedMS float64
}

// Result is a named sweep.
type Result struct {
	Name   string
	Param  string
	Points []Point
}

// String renders the sweep as an aligned table. Timing is deliberately
// omitted: this rendering feeds REPORT.md and must be identical across runs
// of the same seed.
func (r Result) String() string {
	return r.render(false)
}

// TimedString is String plus a wall-clock column per point.
func (r Result) TimedString() string {
	return r.render(true)
}

func (r Result) render(timed bool) string {
	out := fmt.Sprintf("sweep %s over %s:\n", r.Name, r.Param)
	if len(r.Points) == 0 {
		return out
	}
	keys := sortedKeys(r.Points[0].Metrics)
	header := fmt.Sprintf("%10s", r.Param)
	for _, k := range keys {
		header += fmt.Sprintf(" %18s", k)
	}
	if timed {
		header += fmt.Sprintf(" %10s", "wall(ms)")
	}
	out += header + "\n"
	for _, p := range r.Points {
		row := fmt.Sprintf("%10.2f", p.Param)
		for _, k := range keys {
			row += fmt.Sprintf(" %18.3f", p.Metrics[k])
		}
		if timed {
			row += fmt.Sprintf(" %10.2f", p.ElapsedMS)
		}
		out += row + "\n"
	}
	return out
}

// msSince is the wall-clock time since start, in milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ColocationPropensity sweeps the probability that ISPs concentrate offnets
// in their primary facility and reports how ground-truth colocation and the
// correlated-failure measure respond — the knob behind §3.1's operational
// story.
func ColocationPropensity(seed int64, values []float64) (Result, error) {
	res := Result{Name: "colocation-propensity", Param: "propensity"}
	sp := scenario.Default()
	for _, v := range values {
		start := time.Now()
		cfg := hypergiant.DeployConfigFromScenario(sp, seed)
		cfg.ColocationPropensity = v
		d, m, err := tinyWorld(sp, cfg)
		if err != nil {
			return res, fmt.Errorf("sweep: propensity %v: %w", v, err)
		}

		// Ground-truth share of multi-HG ISPs whose top facility hosts ALL
		// their hypergiants (full concentration), plus the mean HGs hit by a
		// top-facility failure.
		var multi, allAtTop int
		for _, as := range d.HostingISPs() {
			hgs := len(d.HGsIn(as))
			if hgs < 2 {
				continue
			}
			multi++
			if _, top := cascade.TopFacility(d, as); top == hgs {
				allAtTop++
			}
		}
		st, err := cascade.SweepContext(context.Background(), m, d, d.HostingISPs(), 1)
		if err != nil {
			return res, fmt.Errorf("sweep: propensity %v: %w", v, err)
		}
		res.Points = append(res.Points, Point{
			Param: v,
			Metrics: map[string]float64{
				"all-at-top-frac": frac(allAtTop, multi),
				"hg-per-failure":  st.MeanHGsPerFailure,
			},
			ElapsedMS: msSince(start),
		})
	}
	return res, nil
}

// SharedHeadroom sweeps the spare capacity of shared links and reports the
// fraction of facility-failure scenarios that congest one — §4.3's argument
// that headroom, not topology, decides whether spillover cascades.
func SharedHeadroom(seed int64, values []float64) (Result, error) {
	res := Result{Name: "shared-headroom", Param: "headroom"}
	sp := scenario.Default()
	d, m, err := tinyWorld(sp, hypergiant.DeployConfigFromScenario(sp, seed))
	if err != nil {
		return res, err
	}
	hosts := d.HostingISPs()
	// Headroom sizes links from the no-failure loads without changing them,
	// so every point's scenarios share one baseline.
	b := cascade.NewBaseline(m, d, cascade.DefaultScenario().DemandMult)
	for _, v := range values {
		start := time.Now()
		var congested, scenarios int
		var collateral float64
		for _, as := range hosts {
			fid, n := cascade.TopFacility(d, as)
			if n <= 0 {
				continue
			}
			sc := cascade.DefaultScenario()
			sc.SharedHeadroom = v
			sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
			rep := b.Simulate(sc)
			scenarios++
			if len(rep.CongestedIXPs())+len(rep.CongestedTransits()) > 0 {
				congested++
			}
			collateral += float64(len(rep.CollateralISPs))
		}
		res.Points = append(res.Points, Point{
			Param: v,
			Metrics: map[string]float64{
				"congesting-frac": frac(congested, scenarios),
				"collateral-isps": collateral / float64(max(scenarios, 1)),
			},
			ElapsedMS: msSince(start),
		})
	}
	return res, nil
}

// DemandSpike sweeps the §4.1 demand multiplier and reports offnet vs
// interdomain growth — the curve whose 1.58 point is the paper's COVID
// observation.
func DemandSpike(seed int64, values []float64) (Result, error) {
	res := Result{Name: "demand-spike", Param: "multiplier"}
	sp := scenario.Default()
	_, m, err := tinyWorld(sp, hypergiant.DeployConfigFromScenario(sp, seed))
	if err != nil {
		return res, err
	}
	for _, v := range values {
		start := time.Now()
		rep := capacity.CovidReplay(m, traffic.Netflix, v)
		res.Points = append(res.Points, Point{
			Param: v,
			Metrics: map[string]float64{
				"offnet-growth":      rep.OffnetGrowth(),
				"interdomain-growth": rep.InterdomainGrowth(),
			},
			ElapsedMS: msSince(start),
		})
	}
	return res, nil
}

// tinyWorld deploys cfg's 2023 hypergiants on the tiny world of cfg's seed
// and builds the deployment's capacity model under sp's calibration.
func tinyWorld(sp *scenario.Spec, cfg hypergiant.DeployConfig) (*hypergiant.Deployment, *capacity.Model, error) {
	w := inet.Generate(inet.TinyConfig(cfg.Seed))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, cfg)
	if err != nil {
		return nil, nil, err
	}
	return d, capacity.Build(d, capacity.ConfigFromScenario(sp, cfg.Seed)), nil
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
