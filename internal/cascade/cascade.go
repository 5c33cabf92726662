// Package cascade simulates the failure scenarios of §3.3 and §4.3: a
// facility hosting colocated offnets from several hypergiants fails (or a
// demand surge hits), the lost offnet capacity spills over interdomain
// links, the spill lands on shared IXP fabrics and transit providers that
// "do not have enough capacity to handle hypergiant traffic without
// congestion", and the congestion collaterally damages networks that had
// nothing to do with the original failure.
package cascade

import (
	"context"
	"sort"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/par"
	"offnetrisk/internal/traffic"
)

var mScenariosSimulated = obs.NewCounter("cascade.scenarios_simulated",
	"failure/surge scenarios run through the spillover simulator")

// Scenario describes one what-if.
type Scenario struct {
	// FailFacilities lists facilities that go dark.
	FailFacilities map[inet.FacilityID]bool
	// Surge multiplies one or more hypergiants' demand (flash crowd, bad
	// software update shifting load).
	Surge map[traffic.HG]float64
	// DemandMult is the diurnal multiplier; 1.0 = peak hour.
	DemandMult float64
	// SharedHeadroom is how much headroom shared links (IXP fabrics,
	// transit) have above their normal peak load; §4.3 argues it is small.
	SharedHeadroom float64
}

// DefaultScenario returns a peak-hour scenario with the paper's pessimistic
// (but evidenced) shared-link headroom.
func DefaultScenario() Scenario {
	return Scenario{DemandMult: 1.0, SharedHeadroom: 1.25}
}

// LinkLoad is the load/capacity state of one shared resource.
type LinkLoad struct {
	LoadGbps     float64
	CapacityGbps float64
}

// Congested reports whether the link is at or beyond capacity. The boundary
// is inclusive: a positively loaded link whose load equals its capacity has
// zero headroom and Utilization() == 1.0, and temporal event schedules can
// land load exactly on capacity, so load == capacity counts as congested.
// An unused link (load 0) is never congested, whatever its capacity.
func (l LinkLoad) Congested() bool { return l.LoadGbps > 0 && l.LoadGbps >= l.CapacityGbps }

// Utilization returns load/capacity (0 when capacity is 0).
func (l LinkLoad) Utilization() float64 {
	if l.CapacityGbps <= 0 {
		return 0
	}
	return l.LoadGbps / l.CapacityGbps
}

// Report is the outcome of one scenario.
type Report struct {
	Scenario Scenario
	Baseline []capacity.Flow
	Flows    []capacity.Flow
	// IXPLoad / TransitLoad after the scenario; capacities derive from the
	// baseline loads times the shared headroom.
	IXPLoad     map[inet.IXPID]LinkLoad
	TransitLoad map[inet.ASN]LinkLoad
	// DirectISPs lost offnet capacity (their facility failed); their users
	// see degraded service first.
	DirectISPs map[inet.ASN]bool
	// CollateralISPs did not fail but route over a congested shared link.
	CollateralISPs map[inet.ASN]bool
	// HGsImpacted lost offnet capacity somewhere.
	HGsImpacted []traffic.HG
}

// DirectUsers sums users in directly affected ISPs.
func (r *Report) DirectUsers(w *inet.World) float64 { return w.UsersInISPs(r.DirectISPs) }

// CollateralUsers sums users in collaterally affected ISPs.
func (r *Report) CollateralUsers(w *inet.World) float64 { return w.UsersInISPs(r.CollateralISPs) }

// CongestedIXPs returns the exchanges pushed past capacity, ascending.
func (r *Report) CongestedIXPs() []inet.IXPID {
	var out []inet.IXPID
	for id, l := range r.IXPLoad {
		if l.Congested() {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CongestedTransits returns the transit providers pushed past capacity,
// ascending.
func (r *Report) CongestedTransits() []inet.ASN {
	var out []inet.ASN
	for as, l := range r.TransitLoad {
		if l.Congested() {
			out = append(out, as)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sanitized fills the zero-value scenario fields with the defaults Simulate
// has always applied; idempotent.
func (sc Scenario) sanitized() Scenario {
	if sc.DemandMult <= 0 {
		sc.DemandMult = 1.0
	}
	if sc.SharedHeadroom <= 1 {
		sc.SharedHeadroom = 1.25
	}
	return sc
}

// Simulate runs the scenario: serve demand with the failed facilities
// removed, aggregate spill onto shared links, size those links from the
// baseline (no-failure) loads, and trace the collateral damage. It is the
// one-shot form of NewBaseline(m, d, sc.DemandMult).Simulate(sc); a caller
// running many scenarios at one multiplier builds the Baseline once.
func Simulate(m *capacity.Model, d *hypergiant.Deployment, sc Scenario) *Report {
	sc = sc.sanitized()
	return NewBaseline(m, d, sc.DemandMult).Simulate(sc)
}

// TopFacility returns the ISP's facility hosting offnets from the most
// hypergiants (ties: more servers, then the lowest ID), plus that
// hypergiant count — the "single facility – perhaps even a single rack"
// the paper worries about.
func TopFacility(d *hypergiant.Deployment, as inet.ASN) (inet.FacilityID, int) {
	type acc struct {
		fid     inet.FacilityID
		hgs     hgSet
		servers int
	}
	// An ISP hosts offnets in a handful of facilities, so a linear scan of
	// a small stack buffer beats a map.
	var buf [8]acc
	per := buf[:0]
	for _, s := range d.ServersIn(as) {
		i := 0
		for i < len(per) && per[i].fid != s.Facility {
			i++
		}
		if i == len(per) {
			per = append(per, acc{fid: s.Facility})
		}
		per[i].hgs |= 1 << s.HG
		per[i].servers++
	}
	var best inet.FacilityID
	bestHGs, bestServers := -1, -1
	for _, a := range per {
		n := a.hgs.count()
		if n > bestHGs || n == bestHGs && (a.servers > bestServers || a.servers == bestServers && a.fid < best) {
			best, bestHGs, bestServers = a.fid, n, a.servers
		}
	}
	return best, bestHGs
}

// SweepStats aggregates a fail-the-top-facility sweep across ISPs.
type SweepStats struct {
	Scenarios int
	// MeanHGsPerFailure is the average number of hypergiants knocked out
	// by a single facility failure — the correlated-risk headline.
	MeanHGsPerFailure float64
	// CongestionFraction is the share of scenarios congesting at least one
	// shared link.
	CongestionFraction float64
	// MeanCollateralISPs is the average number of uninvolved ISPs behind a
	// congested shared link.
	MeanCollateralISPs float64
}

// SweepContext fails the top facility of each given ISP in turn and
// aggregates, one scenario per task on a bounded worker pool. The
// no-failure baseline is built once and shared read-only by every task,
// each worker runs its scenarios through its own Scratch, and the stats
// are commutative sums, so the aggregate is identical at any worker count.
func SweepContext(ctx context.Context, m *capacity.Model, d *hypergiant.Deployment, isps []inet.ASN, workers int) (SweepStats, error) {
	type outcome struct {
		ok        bool
		hgs, coll float64
		congested bool
	}
	b := NewBaseline(m, d, DefaultScenario().DemandMult)
	outs, err := par.MapLocal(ctx, len(isps), par.Options{Workers: workers, Name: "facility-sweep"}, newWorker,
		func(_ context.Context, i int, wk *worker) (outcome, error) {
			fid, nHGs := TopFacility(d, isps[i])
			if nHGs <= 0 {
				return outcome{}, nil
			}
			t := b.Tally(&wk.s, wk.failing(DefaultScenario(), fid))
			return outcome{
				ok:        true,
				hgs:       float64(nHGs),
				coll:      float64(t.CollateralISPs),
				congested: t.Congested,
			}, nil
		})
	if err != nil {
		return SweepStats{}, err
	}
	var st SweepStats
	var hgSum, collSum float64
	for _, o := range outs {
		if !o.ok {
			continue
		}
		st.Scenarios++
		hgSum += o.hgs
		collSum += o.coll
		if o.congested {
			st.CongestionFraction++
		}
	}
	if st.Scenarios > 0 {
		st.MeanHGsPerFailure = hgSum / float64(st.Scenarios)
		st.MeanCollateralISPs = collSum / float64(st.Scenarios)
		st.CongestionFraction /= float64(st.Scenarios)
	}
	return st, nil
}

// worker is one sweep worker's reusable state: its scratch and the failure
// set its scenarios fail, rewritten per scenario.
type worker struct {
	s    Scratch
	fail map[inet.FacilityID]bool
}

func newWorker() *worker { return &worker{fail: make(map[inet.FacilityID]bool)} }

// failing returns sc failing just fid, through the worker's failure set.
func (wk *worker) failing(sc Scenario, fid inet.FacilityID) Scenario {
	clear(wk.fail)
	wk.fail[fid] = true
	sc.FailFacilities = wk.fail
	return sc
}
