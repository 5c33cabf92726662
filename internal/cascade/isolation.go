package cascade

import (
	"context"
	"fmt"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/par"
	"offnetrisk/internal/traffic"
)

// fMitigation accounts the §4.3/§6 isolation sweep: ISPs attempted vs.
// scenarios whose collateral the capacity slices fully neutralized.
var fMitigation = obs.NewFunnel("cascade.mitigation",
	"isolation-sweep ISPs attempted vs. collateral fully neutralized")

// §6 sketches mitigations: "isolation mechanisms deployed in colocation
// facilities, ISPs, IXPs, and transit, to protect capacity for each
// hypergiant and for other Internet traffic". This file implements that
// mechanism for shared links: each hypergiant gets a capacity slice of every
// shared link proportional to its normal-peak usage, and a failure's
// spillover can then only congest the offender's own slice — innocent
// hypergiants' traffic (and their ISPs) stay clean.

// IsolatedReport extends a Report with per-hypergiant accounting under
// capacity isolation. Only tests build one: AssessIsolated's callers are
// the temporal engine's reference loop and this package's kernel tests.
type IsolatedReport struct {
	*Report
	// OffendingHGs exceeded their slice on some shared link.
	OffendingHGs []traffic.HG
	// IsolatedCollateralISPs is the collateral set when slices are
	// enforced: only ISPs whose flows ride an offending hypergiant's
	// over-slice traffic.
	IsolatedCollateralISPs map[inet.ASN]bool
}

// AssessIsolated re-evaluates a report the baseline assessed under
// per-hypergiant capacity slices without re-serving the flows. It reruns
// the scenario kernel over the report's flows and scenario, which Assess
// produced, with the per-hypergiant loads on. It has no production caller:
// the temporal engine gets the same counts from one isolated AssessInto
// pass, and AssessIsolated stays as the report form its reference loop
// (internal/temporal's referenceRun) and this package's kernel tests
// compare against.
func (b *Baseline) AssessIsolated(rep *Report) *IsolatedReport {
	b.checkFlows(rep.Flows)
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	b.run(s, rep.Scenario, rep.Flows, true)
	out := &IsolatedReport{
		Report:                 rep,
		OffendingHGs:           s.offend.list(),
		IsolatedCollateralISPs: make(map[inet.ASN]bool, s.iso),
	}
	for i, mark := range s.isps {
		if mark&ispIsolated != 0 {
			out.IsolatedCollateralISPs[b.idx.isps[i]] = true
		}
	}
	return out
}

// offenders returns the hypergiants whose load on a link exceeds their
// slice of it.
func offenders(load *hgLoads, slices hgLoads) hgSet {
	var out hgSet
	if load == nil {
		return out
	}
	for _, hg := range traffic.All {
		if load[hg] > slices[hg] {
			out |= 1 << hg
		}
	}
	return out
}

// slicesOf divides a link's capacity into per-hypergiant slices
// proportional to baseline usage; hypergiants with no baseline get an equal
// split of whatever is left (at least a minimal share, so new entrants are
// not starved). The baseline total sums in traffic.All order.
func slicesOf(base *hgLoads, cap float64) hgLoads {
	var out hgLoads
	var total float64
	if base != nil {
		for _, hg := range traffic.All {
			total += base[hg]
		}
	}
	if total <= 0 {
		for _, hg := range traffic.All {
			out[hg] = cap / float64(len(traffic.All))
		}
		return out
	}
	for _, hg := range traffic.All {
		out[hg] = cap * base[hg] / total
	}
	return out
}

// MitigationStats compares collateral damage with and without isolation
// over a sweep of top-facility failures.
type MitigationStats struct {
	Scenarios                 int
	MeanCollateralShared      float64
	MeanCollateralIsolated    float64
	ScenariosFullyNeutralized int // isolation removed all collateral
}

// MitigationSweepContext runs the §4.3 sweep under both regimes on a
// worker pool. The no-failure baseline is built once and shared read-only,
// each ISP's shared-vs-isolated scenario pair is one task through its
// worker's Scratch, and the aggregates are commutative sums, so the stats
// match at any worker count.
func MitigationSweepContext(ctx context.Context, m *capacity.Model, d *hypergiant.Deployment, isps []inet.ASN, workers int) (MitigationStats, error) {
	type outcome struct {
		ok               bool
		shared, isolated float64
		neutralized      bool
	}
	lr := obs.ActiveLineage()
	// mitigationDrop counts one dropped sweep scenario and, under lineage,
	// samples it. Counts are commutative atomic adds and each ISP is exactly
	// one task, so the accounting and the sample are identical at any worker
	// count.
	mitigationDrop := func(as inet.ASN, reason string, build func() []obs.LineageKV) {
		fMitigation.In(1)
		fMitigation.Drop(reason, 1)
		if lr != nil {
			lr.Record(fMitigation.Name(), "reason="+reason, fmt.Sprintf("isp=%d", as),
				obs.LineageDropped, reason, build)
		}
	}
	b := NewBaseline(m, d, DefaultScenario().DemandMult)
	outs, err := par.MapLocal(ctx, len(isps), par.Options{Workers: workers, Name: "mitigation-sweep"}, newWorker,
		func(_ context.Context, i int, wk *worker) (outcome, error) {
			as := isps[i]
			fid, nHGs := TopFacility(d, as)
			if nHGs <= 0 {
				mitigationDrop(as, "no_shared_facility", nil)
				return outcome{}, nil
			}
			sc := DefaultScenario()
			sc.SharedHeadroom = 1.1
			b.simulateInto(&wk.s, wk.failing(sc, fid), true)
			shared, isolated, offend := wk.s.collateral, wk.s.iso, wk.s.offend
			o := outcome{
				ok:          true,
				shared:      float64(shared),
				isolated:    float64(isolated),
				neutralized: shared > 0 && isolated == 0,
			}
			var evidence func() []obs.LineageKV
			if lr != nil {
				evidence = func() []obs.LineageKV {
					kvs := []obs.LineageKV{
						{K: "failed_facility", V: fmt.Sprint(fid)},
						{K: "hgs_at_facility", V: fmt.Sprint(nHGs)},
						{K: "collateral_shared", V: fmt.Sprint(shared)},
						{K: "collateral_isolated", V: fmt.Sprint(isolated)},
					}
					for _, hg := range offend.list() {
						kvs = append(kvs, obs.LineageKV{K: "offender", V: hg.String()})
					}
					return kvs
				}
			}
			switch {
			case o.neutralized:
				fMitigation.In(1)
				fMitigation.Out(1)
				if lr != nil {
					lr.Record(fMitigation.Name(), "", fmt.Sprintf("isp=%d", as),
						obs.LineageKept, "neutralized", evidence)
				}
			case o.shared == 0:
				mitigationDrop(as, "no_collateral", evidence)
			default:
				mitigationDrop(as, "residual_collateral", evidence)
			}
			return o, nil
		})
	if err != nil {
		return MitigationStats{}, err
	}
	var st MitigationStats
	var shared, isolated float64
	for _, o := range outs {
		if !o.ok {
			continue
		}
		st.Scenarios++
		shared += o.shared
		isolated += o.isolated
		if o.neutralized {
			st.ScenariosFullyNeutralized++
		}
	}
	if st.Scenarios > 0 {
		st.MeanCollateralShared = shared / float64(st.Scenarios)
		st.MeanCollateralIsolated = isolated / float64(st.Scenarios)
	}
	return st, nil
}
