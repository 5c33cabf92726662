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

// lnMitigation is the lineage stage name of the §4.3/§6 isolation sweep
// (DESIGN.md §13).
const lnMitigation = "cascade.mitigation"

// fMitigation accounts the isolation sweep: ISPs attempted vs. scenarios
// whose collateral the capacity slices fully neutralized. Lazily registered
// and fed only under lineage, so lineage-off runs keep golden manifests
// byte-identical.
var fMitigation = obs.NewLazyFunnel("cascade.mitigation",
	"isolation-sweep ISPs attempted vs. collateral fully neutralized")

// §6 sketches mitigations: "isolation mechanisms deployed in colocation
// facilities, ISPs, IXPs, and transit, to protect capacity for each
// hypergiant and for other Internet traffic". This file implements that
// mechanism for shared links: each hypergiant gets a capacity slice of every
// shared link proportional to its normal-peak usage, and a failure's
// spillover can then only congest the offender's own slice — innocent
// hypergiants' traffic (and their ISPs) stay clean.

// IsolatedReport extends a Report with per-hypergiant accounting under
// capacity isolation.
type IsolatedReport struct {
	*Report
	// OffendingHGs exceeded their slice on some shared link.
	OffendingHGs []traffic.HG
	// IsolatedCollateralISPs is the collateral set when slices are
	// enforced: only ISPs whose flows ride an offending hypergiant's
	// over-slice traffic.
	IsolatedCollateralISPs map[inet.ASN]bool
}

// IsolatedCollateralUsers sums users behind the isolated collateral set.
func (r *IsolatedReport) IsolatedCollateralUsers(w *inet.World) float64 {
	return w.UsersInISPs(r.IsolatedCollateralISPs)
}

// SimulateIsolated runs the scenario twice over the same flows: once with
// the plain shared-fate model (the Report) and once with per-hypergiant
// capacity slices on every shared link.
func SimulateIsolated(m *capacity.Model, d *hypergiant.Deployment, sc Scenario) *IsolatedReport {
	sc = sc.sanitized()
	b := NewBaseline(m, d, sc.DemandMult)
	return b.AssessIsolated(b.Simulate(sc))
}

// AssessIsolated re-evaluates a report the baseline assessed under
// per-hypergiant capacity slices without re-serving the flows, so the
// temporal engine can toggle isolation mid-trajectory over the step it
// already assessed.
func (b *Baseline) AssessIsolated(rep *Report) *IsolatedReport {
	out := &IsolatedReport{
		Report:                 rep,
		IsolatedCollateralISPs: make(map[inet.ASN]bool),
	}
	w := b.d.World

	// Per-(link, hypergiant) scenario loads; the baseline's are precomputed.
	ixpHG := ixpLoadsByHG(b.m, rep.Flows)
	trHG := transitLoadsByHG(w, rep.Flows)

	// Isolation is work-conserving: unused capacity is shareable, so a
	// hypergiant only offends when the link is actually congested AND its
	// own load exceeds its slice (baseline share × link capacity).
	var offend hgSet
	ixpOffenders := make(map[inet.IXPID]hgSet)
	for id, l := range rep.IXPLoad {
		if !l.Congested() {
			continue
		}
		if o := offenders(ixpHG[id], slicesOf(b.ixpHG[id], l.CapacityGbps)); o != 0 {
			offend |= o
			ixpOffenders[id] = o
		}
	}
	trOffenders := make(map[inet.ASN]hgSet)
	for as, l := range rep.TransitLoad {
		if !l.Congested() {
			continue
		}
		if o := offenders(trHG[as], slicesOf(b.transitHG[as], l.CapacityGbps)); o != 0 {
			offend |= o
			trOffenders[as] = o
		}
	}
	for _, hg := range traffic.All {
		if offend.has(hg) {
			out.OffendingHGs = append(out.OffendingHGs, hg)
		}
	}

	// Collateral under isolation: only flows of an offending hypergiant on
	// the link where it offends.
	for _, f := range rep.Flows {
		if rep.DirectISPs[f.ISP] {
			continue
		}
		if f.IXP > 0 {
			if id, ok := b.m.IXPIDOf[f.HG][f.ISP]; ok && ixpOffenders[id].has(f.HG) {
				out.IsolatedCollateralISPs[f.ISP] = true
			}
		}
		if f.Transit+f.UpstreamOffnet > 0 {
			if isp, ok := w.ISPs[f.ISP]; ok {
				for _, prov := range isp.Providers {
					if trOffenders[prov].has(f.HG) {
						out.IsolatedCollateralISPs[f.ISP] = true
					}
				}
			}
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

// MitigationSweep runs the §4.3 sweep under both regimes.
func MitigationSweep(m *capacity.Model, d *hypergiant.Deployment, isps []inet.ASN) MitigationStats {
	st, _ := MitigationSweepContext(context.Background(), m, d, isps, 1)
	return st
}

// MitigationSweepContext is MitigationSweep with cancellation and a worker
// pool; the no-failure baseline is built once and shared read-only, each
// ISP's shared-vs-isolated scenario pair is one task, and the aggregates are
// commutative sums, so the stats match at any worker count.
func MitigationSweepContext(ctx context.Context, m *capacity.Model, d *hypergiant.Deployment, isps []inet.ASN, workers int) (MitigationStats, error) {
	type outcome struct {
		ok               bool
		shared, isolated float64
		neutralized      bool
	}
	lr := obs.ActiveLineage()
	var f *obs.Funnel
	if lr != nil {
		// Lazily registered and fed only under lineage (golden protection).
		f = fMitigation.Get()
	}
	// mitigationDrop accounts and samples one dropped sweep scenario. Counts
	// are commutative atomic adds and each ISP is exactly one task, so the
	// accounting and the sample are identical at any worker count.
	mitigationDrop := func(as inet.ASN, reason string, build func() []obs.LineageKV) {
		f.In(1)
		f.Drop(reason, 1)
		lr.CountIn(lnMitigation, 1)
		lr.CountDrop(lnMitigation, reason, 1)
		lr.Record(lnMitigation, "reason="+reason, fmt.Sprintf("isp=%d", as),
			obs.LineageDropped, reason, build)
	}
	b := NewBaseline(m, d, DefaultScenario().DemandMult)
	outs, err := par.Map(ctx, len(isps), par.Options{Workers: workers, Name: "mitigation-sweep"},
		func(_ context.Context, i int) (outcome, error) {
			as := isps[i]
			fid, nHGs := TopFacility(d, as)
			if nHGs <= 0 {
				if lr != nil {
					mitigationDrop(as, "no_shared_facility", nil)
				}
				return outcome{}, nil
			}
			sc := DefaultScenario()
			sc.SharedHeadroom = 1.1
			sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
			rep := b.AssessIsolated(b.Simulate(sc))
			o := outcome{
				ok:          true,
				shared:      float64(len(rep.CollateralISPs)),
				isolated:    float64(len(rep.IsolatedCollateralISPs)),
				neutralized: len(rep.CollateralISPs) > 0 && len(rep.IsolatedCollateralISPs) == 0,
			}
			if lr != nil {
				evidence := func() []obs.LineageKV {
					kvs := []obs.LineageKV{
						{K: "failed_facility", V: fmt.Sprint(fid)},
						{K: "hgs_at_facility", V: fmt.Sprint(nHGs)},
						{K: "collateral_shared", V: fmt.Sprint(len(rep.CollateralISPs))},
						{K: "collateral_isolated", V: fmt.Sprint(len(rep.IsolatedCollateralISPs))},
					}
					for _, hg := range rep.OffendingHGs {
						kvs = append(kvs, obs.LineageKV{K: "offender", V: hg.String()})
					}
					return kvs
				}
				switch {
				case o.neutralized:
					f.In(1)
					f.Out(1)
					lr.CountIn(lnMitigation, 1)
					lr.CountKept(lnMitigation, 1)
					lr.Record(lnMitigation, "", fmt.Sprintf("isp=%d", as),
						obs.LineageKept, "neutralized", evidence)
				case o.shared == 0:
					mitigationDrop(as, "no_collateral", evidence)
				default:
					mitigationDrop(as, "residual_collateral", evidence)
				}
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
