// Package mlab simulates the paper's vantage-point latency campaign
// (Appendix A): pings from 163 globally distributed measurement sites to
// every discovered offnet address, keeping the second-smallest of 8 RTTs,
// discarding unresponsive addresses and addresses whose latency combinations
// violate the speed of light, and gating ISPs on having at least 100 usable
// sites.
//
// The latency model is built so the structure OPTICS exploits survives:
// servers in the same facility share, per vantage point, an identical stable
// route offset on top of the great-circle fiber time; servers in different
// facilities — even in the same city — take different routes and therefore
// different offsets. Per-probe jitter rides on top and is mostly suppressed
// by the second-smallest-of-8 statistic.
package mlab

import (
	"context"
	"fmt"
	"math"
	"sort"

	"offnetrisk/internal/chaos"
	"offnetrisk/internal/geo"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/par"
	"offnetrisk/internal/rngutil"
)

// Campaign accounting metrics (Appendix A). Counters are cumulative over the
// process; the run manifest snapshots them per run.
var (
	mRTTsMeasured = obs.NewCounter("ping.rtts_measured",
		"per-(site,target) RTT summaries kept by the campaign")
	mUnresponsive = obs.NewCounter("ping.targets_unresponsive",
		"offnet targets discarded as unresponsive")
	mImpossible = obs.NewCounter("ping.targets_impossible",
		"targets discarded for speed-of-light violations")
	mISPsGated = obs.NewCounter("ping.isps_gated",
		"ISPs discarded by the minimum-usable-sites gate")
	mRTTHist = obs.NewHistogram("ping.rtt_ms",
		"distribution of kept RTT summaries in milliseconds",
		[]float64{1, 2, 5, 10, 20, 50, 100, 200, 500})
)

// Funnels mirror the Appendix A accounting as explicit in/out/drop stages.
// They are fed from the serial merge and gate loops, so snapshots are
// byte-identical at any worker count and reconcile exactly with the counters
// above (ping.filter drops == targets_unresponsive + targets_impossible;
// ping.isp_gate drops == isps_gated).
var (
	fFilter = obs.NewFunnel("ping.filter",
		"offnet targets entering the campaign vs. kept after the responsiveness and speed-of-light filters")
	fFilterUnresponsive = fFilter.Reason("unresponsive")
	fFilterSOL          = fFilter.Reason("sol_violation")
	fISPGate            = obs.NewFunnel("ping.isp_gate",
		"measured ISPs entering the minimum-usable-sites gate vs. kept")
	fGateLT100 = fISPGate.Reason("lt_100_vps")
)

// Site is one measurement vantage point.
type Site struct {
	ID   int
	Name string
	Loc  geo.Point
}

// Sites generates n vantage points spread over the metro catalogue,
// round-robin with location jitter — M-Lab style coverage.
func Sites(n int, seed int64) []Site {
	r := rngutil.New(seed ^ 0x14ab5)
	out := make([]Site, 0, n)
	for i := 0; i < n; i++ {
		m := geo.Metros[i%len(geo.Metros)]
		out = append(out, Site{
			ID:   i,
			Name: m.Code,
			Loc: geo.Point{
				LatDeg: m.Loc.LatDeg + (r.Float64()*2-1)*0.1,
				LonDeg: m.Loc.LonDeg + (r.Float64()*2-1)*0.1,
			},
		})
	}
	return out
}

// Statistic selects which order statistic of the probe RTTs is kept.
type Statistic int

// Statistics. The paper keeps the second-smallest of 8 (Appendix A,
// following Calder et al. 2013); Min and Median exist for the ablation
// benches.
const (
	StatSecondSmallest Statistic = iota
	StatMin
	StatMedian
)

// Config controls the campaign.
type Config struct {
	// Seed drives probe noise.
	Seed int64
	// Probes per (site, target); the paper sends 8.
	Probes int
	// Stat is the per-(site,target) summary statistic.
	Stat Statistic
	// ProbeLoss is the per-probe loss probability.
	ProbeLoss float64
	// MinSites is the per-ISP usability gate: ISPs with fewer sites having
	// successful measurements to all their offnets are discarded (100 in
	// the paper).
	MinSites int
	// Workers bounds the campaign's fan-out across targets; <= 0 means
	// GOMAXPROCS. Any worker count produces identical results: every
	// (site, target) probe stream is derived independently, never advanced
	// across targets.
	Workers int
	// Chaos injects deterministic faults (target blackouts, extra probe
	// loss, stragglers, transient errors); nil runs clean. Fault decisions
	// are pure per-item hashes on streams separate from the probe noise, so
	// unaffected targets measure byte-identically to a clean run.
	Chaos *chaos.Injector
}

func (c Config) sanitized() Config {
	if c.Probes <= 0 {
		c.Probes = 8
	}
	if c.ProbeLoss < 0 || c.ProbeLoss >= 1 {
		c.ProbeLoss = 0.01
	}
	if c.MinSites <= 0 {
		c.MinSites = 100
	}
	return c
}

// Measurement is the per-target latency vector: RTT in milliseconds per
// site, NaN where all probes were lost.
type Measurement struct {
	Target *hypergiant.Server
	RTTms  []float64
}

// Campaign is the outcome of measuring a deployment.
type Campaign struct {
	Sites []Site
	// ByISP holds usable measurements grouped by hosting ISP; only ISPs
	// passing the MinSites gate appear.
	ByISP map[inet.ASN][]*Measurement
	// GoodSites lists, per usable ISP, the site indices with successful
	// measurements to every offnet in the ISP; distances are computed over
	// these.
	GoodSites map[inet.ASN][]int
	// Discard accounting (Appendix A reports 12K unresponsive, 1.9K
	// impossible, plus ISPs failing the site gate).
	Unresponsive  int
	Impossible    int
	GatedISPs     int
	MeasuredISPs  int
	TotalMeasured int
	// Chaos accounting: targets lost to injected blackouts/transients and
	// ISPs gated because one of their offnets was chaos-lost (an ISP whose
	// target set is incomplete cannot be clustered against full vectors).
	// Zero on clean runs.
	ChaosLost      int
	ChaosGatedISPs int
}

// MeasureContext runs the campaign against every offnet server in the
// deployment. The campaign fans out across targets on cfg.Workers
// goroutines and aborts early (returning a non-nil error and no campaign)
// when the context is cancelled. Results are merged in deployment order, so
// they are byte-identical at any worker count.
func MeasureContext(ctx context.Context, d *hypergiant.Deployment, sites []Site, cfg Config) (*Campaign, error) {
	cfg = cfg.sanitized()
	c := &Campaign{
		Sites:     sites,
		ByISP:     make(map[inet.ASN][]*Measurement),
		GoodSites: make(map[inet.ASN][]int),
	}
	w := d.World

	// The per-facility RTT floors are shared by every server in a facility;
	// precompute them (in parallel, keyed by ascending facility ID) so the
	// per-target pass below is read-only on the cache.
	var facs []inet.FacilityID
	seen := make(map[inet.FacilityID]bool)
	for _, s := range d.Servers {
		if s.Responsive && !s.Anycast && !seen[s.Facility] {
			seen[s.Facility] = true
			facs = append(facs, s.Facility)
		}
	}
	sort.Slice(facs, func(i, j int) bool { return facs[i] < facs[j] })
	opts := par.Options{Workers: cfg.Workers, Name: "ping-campaign"}
	bases, err := par.Map(ctx, len(facs), opts, func(_ context.Context, i int) ([]float64, error) {
		return facilityBase(w.Facilities[facs[i]], sites), nil
	})
	if err != nil {
		return nil, err
	}
	baseCache := make(map[inet.FacilityID][]float64, len(facs))
	for i, fid := range facs {
		baseCache[fid] = bases[i]
	}

	// The speed-of-light floor between two sites is the same for every
	// target, so the check reads it from one table per campaign.
	minRTT := minRTTTable(sites)

	// One task per server. Each target's probe streams are derived from
	// (seed, addr, site) — never advanced across targets — so the fan-out
	// cannot change a single RTT.
	type outcome struct {
		m            *Measurement
		unresponsive bool
		impossible   bool
		blackout     bool
		transient    bool
	}
	outcomes, err := par.MapLocal(ctx, len(d.Servers), opts, newProbeScratch, func(_ context.Context, i int, sc *probeScratch) (outcome, error) {
		s := d.Servers[i]
		if !s.Responsive {
			mUnresponsive.Inc()
			return outcome{unresponsive: true}, nil
		}
		// Injected faults replace the measurement, never run alongside it: a
		// blacked-out or transiently-failed target is measured zero times, a
		// retried target exactly once — so the filter funnel counts every
		// target once no matter how many attempts it took (the retry
		// attempts themselves land in chaos.retries_total inside Attempts).
		if cfg.Chaos.TargetBlackout(int64(s.Addr)) {
			return outcome{blackout: true}, nil
		}
		if _, ok := cfg.Chaos.Attempts(chaos.StagePing, int64(s.Addr), 0); !ok {
			return outcome{transient: true}, nil
		}
		m := measureServer(w, s, sites, cfg, baseCache[s.Facility], sc)
		if violatesSpeedOfLight(m.RTTms, minRTT, sc) {
			mImpossible.Inc()
			return outcome{impossible: true}, nil
		}
		// Published once per target; the batch skips the NaN holes.
		for _, rtt := range m.RTTms {
			sc.rtts.Observe(rtt)
		}
		mRTTsMeasured.Add(sc.rtts.Flush())
		return outcome{m: m}, nil
	})
	if err != nil {
		return nil, err
	}

	// Serial merge in deployment order — identical to the old single-loop
	// accounting. The filter funnel is fed here, not in the parallel tasks,
	// so its snapshot is deterministic at any worker count. Chaos drop
	// reasons are bound lazily so clean snapshots carry no chaos_* rows.
	var cBlackout, cTransient, cGateLost *obs.Counter
	if cfg.Chaos.Enabled() {
		cBlackout = fFilter.Reason("chaos_blackout")
		cTransient = fFilter.Reason("chaos_transient")
		cGateLost = fISPGate.Reason("chaos_lost_offnets")
	}
	lr := obs.ActiveLineage()
	// filterDrop samples one filter-funnel drop's evidence. Targets group by
	// hosting ISP so every ISP's losses keep sampled evidence; evidence is
	// pure per (target, config), so duplicate decisions from re-measured
	// deployments dedupe byte-identically.
	filterDrop := func(s *hypergiant.Server, reason string) {
		if lr != nil {
			lr.Record(fFilter.Name(), fmt.Sprintf("isp=%d|reason=%s", s.ISP, reason),
				s.Addr.String(), obs.LineageDropped, reason, func() []obs.LineageKV {
					return []obs.LineageKV{
						{K: "hg", V: s.HG.String()},
						{K: "isp", V: fmt.Sprint(s.ISP)},
						{K: "facility", V: fmt.Sprint(s.Facility)},
					}
				})
		}
	}
	fFilter.In(int64(len(outcomes)))
	perISP := make(map[inet.ASN][]*Measurement)
	lost := make(map[inet.ASN]int)
	for i, o := range outcomes {
		s := d.Servers[i]
		switch {
		case o.unresponsive:
			c.Unresponsive++
			fFilterUnresponsive.Inc()
			filterDrop(s, "unresponsive")
		case o.blackout:
			c.ChaosLost++
			lost[s.ISP]++
			cBlackout.Inc()
			cfg.Chaos.Blackouts.Inc()
			filterDrop(s, "chaos_blackout")
		case o.transient:
			c.ChaosLost++
			lost[s.ISP]++
			cTransient.Inc()
			filterDrop(s, "chaos_transient")
		case o.impossible:
			c.Impossible++
			fFilterSOL.Inc()
			filterDrop(s, "sol_violation")
		default:
			perISP[s.ISP] = append(perISP[s.ISP], o.m)
			c.TotalMeasured++
			fFilter.Out(1)
			if lr != nil {
				m := o.m
				lr.Record(fFilter.Name(), fmt.Sprintf("isp=%d", s.ISP), s.Addr.String(),
					obs.LineageKept, "measured", func() []obs.LineageKV {
						sitesOK := 0
						for _, rtt := range m.RTTms {
							if !math.IsNaN(rtt) {
								sitesOK++
							}
						}
						return []obs.LineageKV{
							{K: "hg", V: s.HG.String()},
							{K: "isp", V: fmt.Sprint(s.ISP)},
							{K: "facility", V: fmt.Sprint(s.Facility)},
							{K: "sites_with_rtt", V: fmt.Sprint(sitesOK)},
						}
					})
			}
		}
	}

	// Per-ISP gate: count sites with successful measurements to all offnets.
	// An ISP that chaos-lost any offnet is gated first: its surviving
	// vectors describe an incomplete target set, and — because blackout and
	// transient fault sets are nested across profiles while survivors'
	// streams are untouched — this rule makes the usable-ISP set shrink
	// monotonically with the fault rate (prop_test.go asserts it).
	fISPGate.In(int64(len(perISP)))
	for as, ms := range perISP {
		if lost[as] > 0 {
			c.ChaosGatedISPs++
			cGateLost.Inc()
			if lr != nil {
				as, nLost, nMs := as, lost[as], len(ms)
				lr.Record(fISPGate.Name(), fmt.Sprintf("isp=%d", as), fmt.Sprintf("isp=%d", as),
					obs.LineageDropped, "chaos_lost_offnets", func() []obs.LineageKV {
						return []obs.LineageKV{
							{K: "offnets_lost", V: fmt.Sprint(nLost)},
							{K: "offnets_measured", V: fmt.Sprint(nMs)},
						}
					})
			}
			continue
		}
		var good []int
		for si := range sites {
			ok := true
			for _, m := range ms {
				if math.IsNaN(m.RTTms[si]) {
					ok = false
					break
				}
			}
			if ok {
				good = append(good, si)
			}
		}
		if len(good) < cfg.MinSites {
			c.GatedISPs++
			mISPsGated.Inc()
			fGateLT100.Inc()
			if lr != nil {
				as, nGood, nMs := as, len(good), len(ms)
				lr.Record(fISPGate.Name(), fmt.Sprintf("isp=%d", as), fmt.Sprintf("isp=%d", as),
					obs.LineageDropped, "lt_100_vps", func() []obs.LineageKV {
						return []obs.LineageKV{
							{K: "good_sites", V: fmt.Sprint(nGood)},
							{K: "min_sites", V: fmt.Sprint(cfg.MinSites)},
							{K: "offnets_measured", V: fmt.Sprint(nMs)},
						}
					})
			}
			continue
		}
		c.ByISP[as] = ms
		c.GoodSites[as] = good
		c.MeasuredISPs++
		fISPGate.Out(1)
		if lr != nil {
			as, nGood, nMs := as, len(good), len(ms)
			lr.Record(fISPGate.Name(), fmt.Sprintf("isp=%d", as), fmt.Sprintf("isp=%d", as),
				obs.LineageKept, "usable", func() []obs.LineageKV {
					return []obs.LineageKV{
						{K: "good_sites", V: fmt.Sprint(nGood)},
						{K: "min_sites", V: fmt.Sprint(cfg.MinSites)},
						{K: "offnets_measured", V: fmt.Sprint(nMs)},
					}
				})
		}
	}
	return c, nil
}

// facilityBase precomputes, per site, the stable RTT floor toward a
// facility: fiber propagation plus the route detour. Shared by every server
// in the facility — the invariant the clustering relies on.
func facilityBase(f *inet.Facility, sites []Site) []float64 {
	out := make([]float64, len(sites))
	for si, site := range sites {
		base := float64(geo.FiberRTT(site.Loc, f.Loc, 1.25)) / 1e6 // ms
		out[si] = base + routeOffsetMs(site.ID, f.ID, false, nil)
	}
	return out
}

// probeScratch is the per-worker campaign state: the per-(site,target)
// probe RTTs are collected into a reused slice, the speed-of-light check
// keeps its lowest-RTT candidates in another, and a kept target's RTTs are
// tallied into a ping.rtt_ms batch.
type probeScratch struct {
	got  []float64
	low  []siteRTT
	rtts *obs.HistogramBatch
}

func newProbeScratch() *probeScratch { return &probeScratch{rtts: mRTTHist.Batch()} }

// measureServer produces the per-site RTT vector, each site's entry the
// cfg.Stat order statistic of its surviving probes (NaN when fewer than two
// survive). base may be nil for anycast targets, which are located per-site.
func measureServer(w *inet.World, s *hypergiant.Server, sites []Site, cfg Config, base []float64, sc *probeScratch) *Measurement {
	rtts := make([]float64, len(sites))
	if cap(sc.got) < cfg.Probes {
		sc.got = make([]float64, 0, cfg.Probes)
	}

	// Anycast targets answer from several distinct locations.
	var anycastLocs []geo.Point
	if s.Anycast {
		r := rngutil.NewFast(uint64(cfg.Seed) ^ uint64(s.Addr)*0x9e3779b9)
		for k := 0; k < 3; k++ {
			anycastLocs = append(anycastLocs, geo.Metros[r.Intn(len(geo.Metros))].Loc)
		}
	}

	for si, site := range sites {
		r := rngutil.NewFast(uint64(cfg.Seed) ^ uint64(s.Addr)<<7 ^ uint64(si)*0x85ebca6b)
		var floor float64
		if !s.Anycast {
			// Rack-level structure: servers in one rack share a top-of-rack
			// path and an identical sub-millisecond detour; racks within a
			// facility differ slightly. This is what separates the paper's
			// two ξ settings: ξ=0.1 is steep enough to split some rack
			// groups apart, ξ=0.9 never is.
			floor = rackOffsetMs(si, s.Facility, s.Rack)
		}
		if s.Anycast {
			// The anycast catchment picks the closest answering location.
			best := math.Inf(1)
			loc := sites[si].Loc
			for _, al := range anycastLocs {
				if d := geo.DistanceKm(site.Loc, al); d < best {
					best = d
					loc = al
				}
			}
			floor = float64(geo.FiberRTT(site.Loc, loc, 1.25)) / 1e6
			floor += routeOffsetMs(site.ID, s.Facility, true, s.Addr)
		} else {
			floor += base[si]
		}
		// Chaos straggler: the whole (target, site) path inflates. Drawn
		// from the injector's own stream, so unaffected paths are untouched.
		if ms, ok := cfg.Chaos.Straggler(int64(s.Addr), int64(si)); ok {
			floor += ms
			cfg.Chaos.Stragglers.Inc()
		}

		got := sc.got[:0]
		for p := 0; p < cfg.Probes; p++ {
			if r.Float64() < cfg.ProbeLoss {
				continue
			}
			// Queueing jitter: exponential-ish tail plus a small floor. The
			// scale keeps the second-smallest-of-8 residual (~0.2 ms) well
			// below typical inter-facility route-offset gaps (~2 ms), the
			// separation the validated clustering technique relies on.
			jitter := -0.8 * math.Log(1-r.Float64())
			// Chaos probe loss is checked after the jitter draw so the
			// natural stream advances exactly as in a clean run: dropping
			// probe p never changes probe p+1's RTT.
			if cfg.Chaos.ProbeLost(int64(s.Addr), int64(si), int64(p)) {
				cfg.Chaos.ProbesLost.Inc()
				continue
			}
			got = append(got, floor+0.1+jitter)
		}
		if len(got) < 2 {
			rtts[si] = math.NaN()
			continue
		}
		rtts[si] = orderStat(got, cfg.Stat)
	}
	return &Measurement{Target: s, RTTms: rtts}
}

// orderStat returns the stat order statistic of the probe RTTs got (at
// least two): the smallest and second-smallest in one pass, the ablation's
// median by sorting got. Equal RTTs are bit-identical (probe RTTs are
// positive, so no ±0 pair), so the pass returns the value a sort would put
// at index 0 or 1.
func orderStat(got []float64, stat Statistic) float64 {
	if stat == StatMedian {
		sort.Float64s(got)
		return got[len(got)/2]
	}
	lo, second := math.Inf(1), math.Inf(1)
	for _, v := range got {
		if v < lo {
			lo, second = v, lo
		} else if v < second {
			second = v
		}
	}
	if stat == StatMin {
		return lo
	}
	return second // second smallest (Appendix A)
}

// routeOffsetMs is the stable routing detour from a site toward a facility:
// identical for all servers in one facility, different across facilities.
// It is a pure hash so campaigns are reproducible and co-facility servers
// agree exactly.
func routeOffsetMs(siteID int, fac inet.FacilityID, anycast bool, addr interface{ String() string }) float64 {
	var h uint64 = 1469598103934665603
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(siteID) + 1)
	if anycast {
		// Anycast addresses do not share facility routing; key on address.
		for _, b := range []byte(addr.String()) {
			mix(uint64(b))
		}
	} else {
		mix(uint64(fac) * 2654435761)
	}
	// Map to 0.5–6.5 ms.
	return 0.5 + float64(h%6000)/1000.0
}

// rackOffsetMs is the stable per-(site,facility,rack) detour, 0–1.2 ms:
// co-rack servers agree exactly, racks differ.
func rackOffsetMs(siteID int, fac inet.FacilityID, rack int) float64 {
	var h uint64 = 14695981039346656037
	for _, v := range []uint64{uint64(siteID) + 1, uint64(fac) * 2654435761, uint64(rack)*0x9e3779b9 + 7} {
		h ^= v
		h *= 1099511628211
	}
	return float64(h%1200) / 1000.0
}

// minRTTTable returns the speed-of-light round-trip floor between every two
// sites in milliseconds, row-major: cell i·len(sites)+j is
// float64(geo.MinRTT(sites[i].Loc, sites[j].Loc)) / 1e6.
func minRTTTable(sites []Site) []float64 {
	n := len(sites)
	out := make([]float64, n*n)
	for i := range sites {
		for j := range sites {
			out[i*n+j] = float64(geo.MinRTT(sites[i].Loc, sites[j].Loc)) / 1e6
		}
	}
	return out
}

// solCandidates is how many of a target's lowest RTTs the speed-of-light
// check compares pairwise.
const solCandidates = 20

// siteRTT is one site's RTT toward a target.
type siteRTT struct {
	rtt float64
	idx int
}

// violatesSpeedOfLight reports whether the latency vector is physically
// impossible for a single destination: two sites i, j with
// RTT_i + RTT_j < minimum RTT between the sites themselves (a packet
// site_i→dst→site_j cannot beat the direct great-circle path). Only the
// lowest-latency sites can participate in violations, so the check is
// restricted to the 20 smallest entries; among equal RTTs the lower site
// index is kept. minRTT is minRTTTable of the sites rtts is indexed by, and
// a pair is looked up lower RTT first. The candidates live in sc, so a warm
// check allocates nothing.
func violatesSpeedOfLight(rtts, minRTT []float64, sc *probeScratch) bool {
	n := len(rtts)
	low := sc.low[:0]
	for i, v := range rtts {
		if math.IsNaN(v) {
			continue
		}
		// Bounded insertion behind every RTT ≤ v: sites arrive in index
		// order, so an equal RTT never displaces a lower index.
		p := len(low)
		for p > 0 && low[p-1].rtt > v {
			p--
		}
		if p == solCandidates {
			continue
		}
		if len(low) < solCandidates {
			low = append(low, siteRTT{})
		}
		copy(low[p+1:], low[p:])
		low[p] = siteRTT{v, i}
	}
	sc.low = low
	for i, a := range low {
		for _, b := range low[i+1:] {
			if a.rtt+b.rtt < minRTT[a.idx*n+b.idx] {
				return true
			}
		}
	}
	return false
}
