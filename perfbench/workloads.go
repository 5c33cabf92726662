package main

import (
	"fmt"
	"strings"
	"time"

	"offnetrisk"
	"offnetrisk/internal/capacity"
	"offnetrisk/internal/cascade"
	"offnetrisk/internal/coloc"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/mlab"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/offnetmap"
	"offnetrisk/internal/rdns"
	"offnetrisk/internal/report"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scan"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/session"
	"offnetrisk/internal/steer"
	"offnetrisk/internal/sweep"
	"offnetrisk/internal/temporal"
	"offnetrisk/internal/tracert"
	"offnetrisk/internal/traffic"
)

// workers is Pipeline.Workers for every workload: the benchmark machine's
// nproc. One client runs the stages one after another (a closed loop).
const workers = 2

// conformanceChecks pins the size of the conformance suite from outside:
// ConformanceContext drops a sweep's check when the sweep errors, so a
// shorter suite means missing checks.
const conformanceChecks = 29

// size is how large a workload's inputs are. The benchmark runs full; its
// own test runs smallest.
type size struct {
	scale       offnetrisk.Scale
	replayHours int
}

var (
	full     = size{scale: offnetrisk.ScaleDefault, replayHours: 4 * 7 * 24}
	smallest = size{scale: offnetrisk.ScaleTiny, replayHours: 48}
)

// tinyScenarios are the registry's distinctive scenarios; tiny and large
// only resize the default world.
var tinyScenarios = []string{scenario.DefaultName, "open-connect-everywhere", "ios-flash-crowd", "meta-cdn", "ocdn"}

// storms are the PerfectStorm calls of whatif-default: failed facilities
// and the demand surge on every hypergiant.
var storms = []struct {
	failures int
	surge    float64
}{{6, 1.25}, {12, 1.5}, {24, 2.0}}

type workload struct {
	name string
	run  func(it *iteration)
	// check reports what makes an otherwise clean iteration incorrect.
	check func(it *iteration) error
}

var workloads = []workload{
	{name: "report-default", run: reportDefault, check: allChecksPass},
	{name: "whatif-default", run: whatifDefault, check: replayRan},
	{name: "scenarios-tiny", run: scenariosTiny, check: func(*iteration) error { return nil }},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// reportDefault is the whole paper at default scale in cmd/reproduce's
// stage order.
func reportDefault(it *iteration) {
	pp := it.newPipe(scenario.DefaultName, it.size.scale)
	if !pp.setup(true, hypergiant.Epoch2021, hypergiant.Epoch2023) || !it.endSetup() {
		return
	}
	it.beginRun()
	pp.paper()
	it.endRun()
}

// scenariosTiny sets up every distinctive scenario as a fresh tiny
// pipeline, then runs the report-default stage list on each.
func scenariosTiny(it *iteration) {
	var pipes []*pipe
	for _, name := range tinyScenarios {
		pp := it.newPipe(name, offnetrisk.ScaleTiny)
		if !pp.setup(true, hypergiant.Epoch2021, hypergiant.Epoch2023) {
			return
		}
		pipes = append(pipes, pp)
	}
	if !it.endSetup() {
		return
	}
	it.beginRun()
	for _, pp := range pipes {
		pp.paper()
	}
	it.endRun()
}

// whatifDefault is what cmd/spillover -mitigate -risk -storm -hours runs,
// on one resident default-scale 2023 deployment.
func whatifDefault(it *iteration) {
	pp := it.newPipe(scenario.DefaultName, it.size.scale)
	if !pp.setup(false, hypergiant.Epoch2023) || !it.endSetup() {
		return
	}
	sched := newSchedule(rngutil.Derive(it.seed, rngutil.Label("perfbench/schedule")), pp.d23, it.size.replayHours)
	it.beginRun()
	pp.op("capacity", plainOp, pp.capacity)
	pp.op("cascade", scenarioOp, pp.cascade)
	pp.op("mitigation", scenarioOp, pp.mitigation)
	pp.monteCarlo()
	for _, s := range storms {
		pp.op(fmt.Sprintf("storm-%d-%g", s.failures, s.surge), scenarioOp, func() (string, error) {
			return pp.storm(s.failures, s.surge)
		})
	}
	pp.op("temporal", plainOp, func() (string, error) { return pp.replay(sched) })
	it.endRun()
}

// recordedSeed is the seed whose report-default conformance is on record
// at 29 of 29 checks. Another seed may miss a band — seed 12 misses the
// propensity sweep's direction — which lowers conformance_passed but is no
// failed operation, so the full pass is required at this seed only.
const recordedSeed = 42

func allChecksPass(it *iteration) error {
	if it.seed == recordedSeed && it.passed != conformanceChecks*it.checkRuns {
		return fmt.Errorf("conformance passed %d of %d checks", it.passed, conformanceChecks*it.checkRuns)
	}
	return nil
}

func replayRan(it *iteration) error {
	if it.simHours != it.size.replayHours {
		return fmt.Errorf("replayed %d of %d hours", it.simHours, it.size.replayHours)
	}
	return nil
}

// pipe is one pipeline under measurement: the offnetrisk.Pipeline the
// plain stages call and, in a traced iteration, the worlds the benchmark
// builds itself for the traced stages, which call each layer directly in
// the order the Pipeline methods call it.
type pipe struct {
	it       *iteration
	spec     *scenario.Spec
	scale    offnetrisk.Scale
	p        *offnetrisk.Pipeline
	w21, w23 *inet.World
	d21, d23 *hypergiant.Deployment
}

func (it *iteration) newPipe(name string, scale offnetrisk.Scale) *pipe {
	sp := scenario.MustLookup(name)
	p := offnetrisk.NewPipelineFromSpec(sp, it.seed)
	p.Scale = scale
	p.Workers = workers
	return &pipe{it: it, spec: sp, scale: scale, p: p}
}

// setup builds the worlds of the given epochs. A traced iteration builds
// them through inet and hypergiant; when the stage list calls the Pipeline
// (conformance), the pipeline then builds its own under offnetrisk.worlds,
// and both builds must agree.
func (pp *pipe) setup(pipelineWorlds bool, epochs ...hypergiant.Epoch) bool {
	it := pp.it
	for _, epoch := range epochs {
		var w *inet.World
		var d *hypergiant.Deployment
		var err error
		if it.tr == nil {
			w, d, err = pp.pipelineWorld(epoch)
		} else {
			w, d, err = pp.build(epoch)
			if err == nil && pipelineWorlds {
				err = it.tr.call("offnetrisk.worlds", func() error {
					pw, pd, err := pp.pipelineWorld(epoch)
					if err == nil && (len(pw.ISPs) != len(w.ISPs) || len(pd.Servers) != len(d.Servers)) {
						err = fmt.Errorf("traced %d world differs from the pipeline's", epoch)
					}
					return err
				})
			}
		}
		if err != nil {
			it.attempted++
			it.fail(pp.spec.Name+"/setup", 1, err)
			return false
		}
		if epoch == hypergiant.Epoch2021 {
			pp.w21, pp.d21 = w, d
		} else {
			pp.w23, pp.d23 = w, d
		}
	}
	return true
}

func (pp *pipe) pipelineWorld(epoch hypergiant.Epoch) (*inet.World, *hypergiant.Deployment, error) {
	if epoch == hypergiant.Epoch2021 {
		return pp.p.World2021()
	}
	return pp.p.World2023()
}

// build synthesizes and deploys one epoch the way the pipeline does.
func (pp *pipe) build(epoch hypergiant.Epoch) (*inet.World, *hypergiant.Deployment, error) {
	tr, seed := pp.it.tr, pp.it.seed
	var w *inet.World
	err := tr.call("inet.LoadOrGenerate", func() error {
		var err error
		w, _, err = inet.LoadOrGenerate("", pp.worldConfig(), pp.spec.Hash())
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var d *hypergiant.Deployment
	err = tr.call("hypergiant.Deploy", func() error {
		var err error
		d, err = hypergiant.Deploy(w, epoch, hypergiant.DeployConfigFromScenario(pp.spec, seed))
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	pp.it.servers += len(d.Servers)
	return w, d, nil
}

// worldConfig mirrors the pipeline's: the tiny scale replaces the
// scenario's topology.
func (pp *pipe) worldConfig() inet.Config {
	var cfg inet.Config
	if pp.scale == offnetrisk.ScaleTiny {
		cfg = inet.TinyConfig(pp.it.seed)
	} else {
		cfg = inet.ConfigFromScenario(pp.spec, pp.it.seed)
	}
	cfg.GenWorkers = workers
	return cfg
}

func (pp *pipe) op(name string, kind opKind, fn func() (string, error)) {
	pp.it.op(pp.spec.Name, name, kind, fn)
}

// paper runs cmd/reproduce's stage list: seven experiments, the three
// sensitivity sweeps and the conformance suite.
func (pp *pipe) paper() {
	pp.op("table1", plainOp, pp.table1)
	pp.op("colocation", plainOp, pp.colocation)
	pp.op("peering", plainOp, pp.peering)
	pp.op("capacity", plainOp, pp.capacity)
	pp.op("cascade", scenarioOp, pp.cascade)
	pp.op("mapping", plainOp, pp.mapping)
	pp.op("mitigation", scenarioOp, pp.mitigation)
	pp.sweeps()
	pp.conformance()
}

func rendered[T fmt.Stringer](r T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.String(), nil
}

func (pp *pipe) table1() (string, error) {
	it := pp.it
	tr, seed := it.tr, it.seed
	if tr == nil {
		return rendered(pp.p.Table1Context(it.ctx))
	}
	scfg := scan.ConfigFromScenario(pp.spec, seed)
	var recs21, recs23 []scan.Record
	err := tr.call("scan.Simulate", func() error {
		var err error
		recs21, err = scan.Simulate(pp.d21, scfg)
		return err
	})
	if err != nil {
		return "", err
	}
	err = tr.call("scan.Simulate", func() error {
		var err error
		recs23, err = scan.Simulate(pp.d23, scfg)
		return err
	})
	if err != nil {
		return "", err
	}
	var res21, res23, stale *offnetmap.Result
	tr.do("offnetmap.InferLineage", func() { res21 = offnetmap.InferLineage(pp.w21, recs21, offnetmap.Rules2021(), nil, "2021") })
	tr.do("offnetmap.InferLineage", func() { res23 = offnetmap.InferLineage(pp.w23, recs23, offnetmap.Rules2023(), nil, "2023") })
	tr.do("offnetmap.InferLineage", func() { stale = offnetmap.InferLineage(pp.w23, recs23, offnetmap.Rules2021(), nil, "stale-2021") })
	var b strings.Builder
	for _, row := range offnetmap.Table1(res21, res23) {
		fmt.Fprintf(&b, "%v %d %d %d\n", row.HG, row.ISPs2021, row.ISPs2023, stale.ISPCount(row.HG))
	}
	fmt.Fprintf(&b, "%d offnets in %d ISPs\n", len(res23.Offnets), len(res23.HostingISPs()))
	return b.String(), nil
}

func (pp *pipe) colocation() (string, error) {
	it := pp.it
	tr, seed := it.tr, it.seed
	if tr == nil {
		return rendered(pp.p.ColocationContext(it.ctx))
	}
	var campaign *mlab.Campaign
	err := tr.call("mlab.MeasureContext", func() error {
		mcfg := mlab.ConfigFromScenario(pp.spec, seed)
		mcfg.Workers = workers
		var err error
		campaign, err = mlab.MeasureContext(it.ctx, pp.d23, mlab.Sites(pp.spec.Measurement.PingSites, seed), mcfg)
		return err
	})
	if err != nil {
		return "", err
	}
	var analysis *coloc.Analysis
	err = tr.call("coloc.AnalyzeMixContext", func() error {
		var err error
		analysis, err = coloc.AnalyzeMixContext(it.ctx, pp.w23, campaign, offnetrisk.Xis, workers, pp.spec.Mix())
		return err
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	tr.do("coloc.aggregate", func() {
		fmt.Fprintf(&b, "%v\n", analysis.Table2())
		for _, xi := range offnetrisk.Xis {
			fmt.Fprintf(&b, "ξ=%g: %d CCDF points, %g ≥25%%, HHI %g, single-site",
				xi, len(analysis.Figure2(xi)), analysis.UserShareAtLeast(xi, 0.25), analysis.MeanTrafficHHI(xi))
			for _, hg := range traffic.All {
				fmt.Fprintf(&b, " %g", analysis.SingleSiteFrac(hg, xi))
			}
			b.WriteString("\n")
		}
		hosting := make(map[inet.ASN][]traffic.HG)
		for _, as := range pp.d23.HostingISPs() {
			hosting[as] = pp.d23.HGsIn(as)
		}
		one, two, three, four := coloc.GlobalUserShares(pp.w23, hosting)
		fmt.Fprintf(&b, "%d countries; users %g %g %g %g\n", len(coloc.Figure1(pp.w23, hosting)), one, two, three, four)
	})
	var ptrs rdns.PTRTable
	tr.do("rdns.Synthesize", func() { ptrs = rdns.Synthesize(pp.d23, rdns.ConfigFromScenario(pp.spec, seed)) })
	for _, xi := range offnetrisk.Xis {
		clusters := clustersAt(analysis, campaign, xi)
		tr.do("rdns.Validate", func() { fmt.Fprintf(&b, "%+v\n", rdns.Validate(ptrs, clusters, xi)) })
	}
	return b.String(), nil
}

// clustersAt groups each analyzed ISP's offnet addresses by OPTICS label at
// ξ, the input the rDNS validation scores.
func clustersAt(a *coloc.Analysis, c *mlab.Campaign, xi float64) map[string][][]netaddr.Addr {
	clusters := make(map[string][][]netaddr.Addr)
	for as, isp := range a.PerISP {
		ms := c.ByISP[as]
		byLabel := make(map[int][]netaddr.Addr)
		for i, l := range isp.PerXi[xi].Labels {
			if l >= 0 {
				byLabel[l] = append(byLabel[l], ms[i].Target.Addr)
			}
		}
		var list [][]netaddr.Addr
		for _, members := range byLabel {
			list = append(list, members)
		}
		clusters[fmt.Sprint(as)] = list
	}
	return clusters
}

func (pp *pipe) peering() (string, error) {
	it := pp.it
	tr := it.tr
	if tr == nil {
		return rendered(pp.p.PeeringSurveyContext(it.ctx))
	}
	cfg := tracert.ConfigFromScenario(pp.spec, it.seed)
	cfg.Workers = workers
	if pp.scale == offnetrisk.ScaleTiny {
		cfg.VMs = 24
	}
	var traces map[inet.ASN][]tracert.Trace
	err := tr.call("tracert.SurveyContext", func() error {
		var err error
		traces, err = tracert.SurveyContext(it.ctx, pp.d23, traffic.Google, cfg)
		return err
	})
	if err != nil {
		return "", err
	}
	var st tracert.SurveyStats
	tr.do("tracert.Infer", func() {
		inf := tracert.Infer(pp.w23, traffic.Google, pp.d23.ContentAS[traffic.Google], traces)
		st = tracert.Stats(pp.d23, traffic.Google, inf)
	})
	return st.String(), nil
}

func (pp *pipe) capacity() (string, error) {
	it := pp.it
	tr, seed := it.tr, it.seed
	if tr == nil {
		return rendered(pp.p.CapacityStudyContext(it.ctx))
	}
	d := pp.d23
	var m *capacity.Model
	tr.do("capacity.Build", func() { m = capacity.Build(d, capacity.ConfigFromScenario(pp.spec, seed)) })
	var b strings.Builder
	for _, hg := range traffic.All {
		tr.do("capacity.CovidReplay", func() { fmt.Fprintf(&b, "%+v\n", capacity.CovidReplay(m, hg, 1.58)) })
	}
	var points []capacity.DiurnalPoint
	err := tr.call("capacity.DiurnalSweepContext", func() error {
		var err error
		points, err = capacity.DiurnalSweepContext(it.ctx, m, workers)
		return err
	})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "%+v\n", points)
	for _, hg := range traffic.All {
		tr.do("capacity.CensusPNIs", func() { fmt.Fprintf(&b, "%+v\n", capacity.CensusPNIs(m, hg)) })
	}
	// The apartment panel sits in the largest all-four access ISP, falling
	// back to the largest access host.
	var panelISP inet.ASN
	var best float64
	for _, as := range d.HostingISPs() {
		isp := d.World.ISPs[as]
		if !isp.IsAccess() {
			continue
		}
		score := isp.Users
		if len(d.HGsIn(as)) == 4 {
			score *= 10
		}
		if score > best {
			best, panelISP = score, as
		}
	}
	if panelISP != 0 {
		tr.do("capacity.ApartmentStudy", func() {
			apts := capacity.ApartmentsMix(530, panelISP, seed, pp.spec.Mix())
			fmt.Fprintf(&b, "%+v\n", capacity.Summarize(capacity.ApartmentStudy(m, apts)))
		})
	}
	return b.String(), nil
}

func (pp *pipe) cascade() (string, error) {
	it := pp.it
	tr, seed := it.tr, it.seed
	if tr == nil {
		return rendered(pp.p.CascadeStudyContext(it.ctx))
	}
	w, d := pp.w23, pp.d23
	var m *capacity.Model
	tr.do("capacity.Build", func() { m = capacity.Build(d, capacity.ConfigFromScenario(pp.spec, seed)) })
	hosts := d.HostingISPs()
	var st cascade.SweepStats
	err := tr.call("cascade.SweepContext", func() error {
		var err error
		st, err = cascade.SweepContext(it.ctx, m, d, hosts, workers)
		return err
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", st)
	// The worst case fails the facility hosting the most hypergiants in the
	// ISP with the most users among multi-hypergiant facilities.
	var worstFID inet.FacilityID
	var worstScore float64
	tr.do("cascade.TopFacility", func() {
		for _, as := range hosts {
			fid, n := cascade.TopFacility(d, as)
			if n < 2 {
				continue
			}
			if score := float64(n) * w.ISPs[as].Users; score > worstScore {
				worstScore, worstFID = score, fid
			}
		}
	})
	if worstScore == 0 {
		return b.String(), nil
	}
	sc := cascade.DefaultScenario()
	sc.SharedHeadroom = 1.1
	sc.FailFacilities = map[inet.FacilityID]bool{worstFID: true}
	var worst, base *cascade.Report
	tr.do("cascade.Simulate", func() { worst = cascade.Simulate(m, d, sc) })
	tr.do("cascade.Simulate", func() { base = cascade.Simulate(m, d, cascade.DefaultScenario()) })
	scfg := session.ConfigFromScenario(pp.spec, seed)
	scfg.Workers = workers
	for _, rep := range []*cascade.Report{base, worst} {
		var ss []session.Session
		err := tr.call("session.RunContext", func() error {
			var err error
			ss, err = session.RunContext(it.ctx, m, d, rep, scfg)
			return err
		})
		if err != nil {
			return "", err
		}
		it.sessions += len(ss)
		fmt.Fprintf(&b, "%+v\n", session.Score(ss))
	}
	fmt.Fprintf(&b, "worst: %d collateral ISPs, %d IXPs, %d transits\n",
		len(worst.CollateralISPs), len(worst.CongestedIXPs()), len(worst.CongestedTransits()))
	return b.String(), nil
}

func (pp *pipe) mapping() (string, error) {
	it := pp.it
	tr, seed := it.tr, it.seed
	if tr == nil {
		return rendered(pp.p.MappingStudyContext(it.ctx))
	}
	var resolvers []steer.Resolver
	tr.do("steer.Resolvers", func() { resolvers = steer.Resolvers(pp.w23, 8, seed) })
	sample := 6
	if pp.scale == offnetrisk.ScaleDefault {
		sample = 3
	}
	var b strings.Builder
	for _, modes := range []map[traffic.HG]steer.Mode{steer.Modes2013(), steer.Modes2023()} {
		tr.do("steer.MapUsers", func() {
			for _, r := range steer.MapUsers(pp.d23, modes, resolvers, sample, seed) {
				fmt.Fprintf(&b, "%s\n", r)
			}
		})
	}
	return b.String(), nil
}

func (pp *pipe) mitigation() (string, error) {
	it := pp.it
	tr := it.tr
	if tr == nil {
		return rendered(pp.p.MitigationStudyContext(it.ctx))
	}
	var m *capacity.Model
	tr.do("capacity.Build", func() { m = capacity.Build(pp.d23, capacity.ConfigFromScenario(pp.spec, it.seed)) })
	var st cascade.MitigationStats
	err := tr.call("cascade.MitigationSweepContext", func() error {
		var err error
		st, err = cascade.MitigationSweepContext(it.ctx, m, pp.d23, pp.d23.HostingISPs(), workers)
		return err
	})
	return fmt.Sprintf("%+v", st), err
}

// sweeps runs the sensitivity sweeps with cmd/reproduce's parameter
// values. Their errors count here, since ConformanceContext drops them.
func (pp *pipe) sweeps() {
	seed := pp.it.seed
	for _, s := range []struct {
		name   string
		fn     func(int64, []float64) (sweep.Result, error)
		values []float64
	}{
		{"ColocationPropensity", sweep.ColocationPropensity, []float64{0.3, 0.6, 0.86, 0.95}},
		{"SharedHeadroom", sweep.SharedHeadroom, []float64{1.05, 1.25, 1.5, 2.0}},
		{"DemandSpike", sweep.DemandSpike, []float64{1.0, 1.3, 1.58, 2.0, 3.0}},
	} {
		pp.op("sweep-"+s.name, plainOp, func() (string, error) {
			var r sweep.Result
			err := pp.it.tr.call("sweep."+s.name, func() error {
				var err error
				r, err = s.fn(seed, s.values)
				return err
			})
			return rendered(r, err)
		})
	}
}

// conformance calls ConformanceContext once; each of its pinned checks is
// one operation, and a missing check is a failed one.
func (pp *pipe) conformance() {
	it := pp.it
	funnels := obs.Default.FunnelSnapshots()
	var suite *report.Suite
	err := it.tr.call("offnetrisk.conformance", func() error {
		var err error
		suite, err = pp.p.ConformanceContext(it.ctx)
		return err
	})
	if err == nil {
		err = unbalanced(funnels, obs.Default.FunnelSnapshots())
	}
	it.attempted += conformanceChecks
	it.checkRuns++
	name := pp.spec.Name + "/conformance"
	if err != nil {
		it.fail(name, conformanceChecks, err)
		return
	}
	switch n := len(suite.Checks); {
	case n < conformanceChecks:
		it.fail(name, conformanceChecks-n, fmt.Errorf("%d of %d checks missing", conformanceChecks-n, conformanceChecks))
	case n > conformanceChecks:
		it.fail(name, 0, fmt.Errorf("%d checks, more than the pinned %d", n, conformanceChecks))
	}
	it.checks += len(suite.Checks)
	it.passed += suite.Passed()
	fmt.Fprintf(it.digest, "== %s\n%s\n", name, suite.Markdown())
}

// monteCarlo is cmd/spillover -risk: the colocated deployment against
// cascade.Decolocate, three random facility outages, 120 trials each.
func (pp *pipe) monteCarlo() {
	it := pp.it
	tr, seed := it.tr, it.seed
	ccfg := capacity.ConfigFromScenario(pp.spec, seed)
	risk := func(d *hypergiant.Deployment) (string, error) {
		var m *capacity.Model
		tr.do("capacity.Build", func() { m = capacity.Build(d, ccfg) })
		var rc cascade.RiskCurve
		err := tr.call("cascade.MonteCarloContext", func() error {
			var err error
			rc, err = cascade.MonteCarloContext(it.ctx, m, d, 3, 120, seed, workers)
			return err
		})
		return fmt.Sprintf("%+v", rc), err
	}
	pp.op("montecarlo-colocated", scenarioOp, func() (string, error) { return risk(pp.d23) })
	pp.op("montecarlo-decolocated", scenarioOp, func() (string, error) {
		var decol *hypergiant.Deployment
		tr.do("cascade.Decolocate", func() { decol = cascade.Decolocate(pp.d23) })
		return risk(decol)
	})
}

func (pp *pipe) storm(failures int, surge float64) (string, error) {
	it := pp.it
	tr := it.tr
	if tr == nil {
		sc, err := pp.p.PerfectStormContext(it.ctx, failures, surge)
		return fmt.Sprintf("%+v", sc), err
	}
	d := pp.d23
	var m *capacity.Model
	tr.do("capacity.Build", func() { m = capacity.Build(d, capacity.ConfigFromScenario(pp.spec, it.seed)) })
	sc := cascade.DefaultScenario()
	sc.Surge = map[traffic.HG]float64{}
	for _, hg := range traffic.All {
		sc.Surge[hg] = surge
	}
	sc.FailFacilities = make(map[inet.FacilityID]bool)
	tr.do("cascade.TopFacility", func() {
		for _, as := range d.HostingISPs() {
			if len(sc.FailFacilities) >= failures {
				break
			}
			if fid, n := cascade.TopFacility(d, as); n >= 2 {
				sc.FailFacilities[fid] = true
			}
		}
	})
	var rep *cascade.Report
	tr.do("cascade.Simulate", func() { rep = cascade.Simulate(m, d, sc) })
	return fmt.Sprintf("%d facilities, %v, %d direct ISPs, %d collateral ISPs, %d IXPs, %d transits",
		len(sc.FailFacilities), rep.HGsImpacted, len(rep.DirectISPs), len(rep.CollateralISPs),
		len(rep.CongestedIXPs()), len(rep.CongestedTransits())), nil
}

// replay is the temporal engine over the schedule; its hours feed
// sim_hours_per_s.
func (pp *pipe) replay(sched *scenario.Schedule) (string, error) {
	it := pp.it
	tr, hours := it.tr, it.size.replayHours
	var traj *temporal.Trajectory
	t0 := time.Now()
	var err error
	if tr == nil {
		traj, err = pp.p.TemporalReplayContext(it.ctx, hours, sched, nil)
	} else {
		var m *capacity.Model
		tr.do("capacity.Build", func() { m = capacity.Build(pp.d23, capacity.ConfigFromScenario(pp.spec, it.seed)) })
		var eng *temporal.Engine
		err = tr.call("temporal.New", func() error {
			var err error
			eng, err = temporal.New(m, pp.d23, sched, temporal.Config{Hours: hours})
			return err
		})
		if err == nil {
			err = tr.call("temporal.Run", func() error {
				var err error
				traj, err = eng.Run(it.ctx)
				return err
			})
		}
	}
	if err != nil {
		return "", err
	}
	it.simHours += traj.Hours
	it.simWall += time.Since(t0)
	return fmt.Sprintf("%d steps, %d events, trajectory %s", len(traj.Steps), len(traj.Events), traj.Digest()), nil
}
