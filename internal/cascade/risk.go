package cascade

import (
	"context"
	"sort"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/par"
	"offnetrisk/internal/rngutil"
)

// This file quantifies the paper's central claim — colocation of offnets
// "centralizes traffic in a risky way" — as a risk curve: the probability
// that a random k-facility outage disrupts at least X users, compared
// between today's colocated deployments and a counterfactual in which each
// ISP spreads its hypergiants across facilities.

// RiskPoint is one point of an exceedance curve: the probability that a
// scenario affects at least Users users.
type RiskPoint struct {
	Users float64
	Prob  float64
}

// RiskCurve summarizes a Monte Carlo failure study.
type RiskCurve struct {
	Trials int
	// MeanAffected is the expected users affected per scenario (direct ISP
	// users scaled by lost offnet share, plus collateral).
	MeanAffected float64
	// MeanHGs is the expected number of hypergiants losing capacity per
	// scenario — the correlated-failure measure.
	MeanHGs float64
	Curve   []RiskPoint
}

// MonteCarloContext samples `trials` scenarios, each failing k uniformly
// random offnet-hosting facilities at peak, and returns the exceedance
// curve of affected users. Each trial draws its facility sample from an
// independent substream derived from (seed, trial), so the curve is
// invariant to worker count and scheduling. Trials run concurrently on a
// worker pool against one shared no-failure baseline, each worker through
// its own Scratch, and merge in trial order.
func MonteCarloContext(ctx context.Context, m *capacity.Model, d *hypergiant.Deployment, k, trials int, seed int64, workers int) (RiskCurve, error) {
	// Facilities actually hosting offnets.
	facHGs := hgsByFacility(d)
	if k > len(facHGs) {
		k = len(facHGs)
	}
	if k < 1 || trials < 1 {
		return RiskCurve{}, nil
	}
	b := newBaseline(m, d, DefaultScenario().DemandMult, facHGs)
	facs := b.facilities()

	type outcome struct {
		hgs      float64
		affected float64
	}
	outs, err := par.MapLocal(ctx, trials, par.Options{Workers: workers, Name: "risk-trials"}, newWorker,
		func(_ context.Context, trial int, wk *worker) (outcome, error) {
			r := rngutil.New(rngutil.Derive(seed, 0x415c, int64(trial)))
			clear(wk.fail)
			for _, idx := range rngutil.SampleWithoutReplacement(r, len(facs), k) {
				wk.fail[facs[idx]] = true
			}
			sc := DefaultScenario()
			sc.FailFacilities = wk.fail
			t := b.Tally(&wk.s, sc)
			return outcome{
				hgs:      float64(t.HGsImpacted),
				affected: t.DirectUsers + t.CollateralUsers,
			}, nil
		})
	if err != nil {
		return RiskCurve{}, err
	}

	affected := make([]float64, 0, trials)
	var hgSum float64
	for _, o := range outs {
		hgSum += o.hgs
		affected = append(affected, o.affected)
	}

	sort.Float64s(affected)
	curve := make([]RiskPoint, 0, len(affected))
	for i, u := range affected {
		curve = append(curve, RiskPoint{Users: u, Prob: float64(len(affected)-i) / float64(len(affected))})
	}
	var sum float64
	for _, u := range affected {
		sum += u
	}
	return RiskCurve{
		Trials:       trials,
		MeanAffected: sum / float64(trials),
		MeanHGs:      hgSum / float64(trials),
		Curve:        curve,
	}, nil
}

// Decolocate builds the counterfactual deployment: within every ISP, each
// hypergiant's servers move to a facility of their own where the ISP has
// enough facilities (round-robin assignment per hypergiant). Single-facility
// ISPs cannot spread — exactly the constraint that makes real
// de-colocation hard for small ISPs.
func Decolocate(d *hypergiant.Deployment) *hypergiant.Deployment {
	w := d.World
	out := &hypergiant.Deployment{
		Epoch:     d.Epoch,
		World:     w,
		ContentAS: d.ContentAS,
		Peerings:  d.Peerings,
	}
	for _, s := range d.Servers {
		ns := *s
		isp := w.ISPs[s.ISP]
		if isp != nil && len(isp.Facilities) > 1 {
			// Deterministic per-hypergiant facility: offset into the ISP's
			// facility list by the hypergiant index.
			ns.Facility = isp.Facilities[int(s.HG)%len(isp.Facilities)]
		}
		out.Servers = append(out.Servers, &ns)
	}
	out.Reindex()
	return out
}
