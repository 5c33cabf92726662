package main

import "strings"

// perLayer names the per-layer metrics of the result line: those every
// workload exercises, so each reads non-zero on every workload. The record
// line carries the whole table, including the layers only some workloads
// use (scan, mlab, coloc, optics, rdns, steer, tracert, sweep, report,
// temporal).
var perLayer = []string{
	"offnetrisk.capacity_ms", "offnetrisk.cascade_ms", "offnetrisk.mitigation_ms", "offnetrisk.self_ms",
	"inet.generate_ms", "inet.worlds", "inet.isps",
	"hypergiant.deploy_ms", "hypergiant.servers",
	"capacity.build_ms", "capacity.diurnal_ms", "capacity.models", "capacity.flows",
	"cascade.sweep_ms", "cascade.mitigation_ms", "cascade.scenarios", "cascade.ms_per_scenario",
	"session.run_ms", "session.sessions",
	"par.tasks", "par.regions", "par.cpu_util",
	"runtime.alloc_mb", "runtime.mallocs", "runtime.gc_cycles", "runtime.gc_pause_ms", "runtime.peak_rss_mb",
}

// experiments are the offnetrisk stages timed as offnetrisk.<stage>_ms; a
// top-level span "offnetrisk.storm-6-1.25" counts as stage storm.
var experiments = []string{"table1", "colocation", "peering", "capacity", "cascade", "mapping", "mitigation", "storm", "temporal", "conformance"}

// layers computes one traced iteration's per-layer metrics from its spans.
// Times are summed span durations per layer call; counts are the deltas of
// the obs.Default counters and funnels over the top-level spans, except
// offnetrisk.worlds, the pipeline's second build of the setup worlds.
func layers(it *iteration, tr *tracer) map[string]metric {
	dur := map[string]float64{}
	stage := map[string]float64{}
	c := map[string]int64{}
	var glue, covered, scenMS float64
	var scenN int64
	runStart := float64(it.runStart.Sub(tr.origin).Nanoseconds()) / 1e6
	for _, s := range tr.spans {
		if s.Run != it.id {
			continue
		}
		dur[s.Name] += s.ms()
		switch s.Name {
		case "cascade.SweepContext", "cascade.MitigationSweepContext", "cascade.MonteCarloContext", "cascade.Simulate":
			scenMS += s.ms()
			scenN += s.Counts["cascade.scenarios_simulated"]
		}
		if s.Parent != -1 || s.Name == "offnetrisk.worlds" {
			continue
		}
		for k, v := range s.Counts {
			c[k] += v
		}
		if s.Start >= runStart {
			covered += s.ms()
		}
		if name, ok := strings.CutPrefix(s.Name, "offnetrisk."); ok {
			name, _, _ = strings.Cut(name, "-")
			stage[name] += s.ms()
			if name != "conformance" { // one call, timed as offnetrisk.conformance_ms
				glue += s.Self
			}
		}
	}
	ms := func(names ...string) metric {
		var v float64
		for _, n := range names {
			v += dur[n]
		}
		return metric{v, "ms"}
	}
	count := func(v int64) metric { return metric{float64(v), "count"} }
	ratio := func(num, den int64) metric {
		if den == 0 {
			return metric{0, "ratio"}
		}
		return metric{float64(num) / float64(den), "ratio"}
	}
	runMS := float64(it.run.Nanoseconds()) / 1e6
	m := map[string]metric{
		"offnetrisk.self_ms": {glue, "ms"},
		"inet.generate_ms":   ms("inet.LoadOrGenerate"),
		"inet.worlds":        count(c["inet.worlds_generated"]),
		"inet.isps":          count(c["inet.isps_generated"]),

		"hypergiant.deploy_ms": ms("hypergiant.Deploy"),
		"hypergiant.servers":   count(int64(it.servers)),

		"scan.simulate_ms":           ms("scan.Simulate"),
		"scan.records":               count(c["scan.records_simulated"]),
		"offnetmap.infer_ms":         ms("offnetmap.InferLineage"),
		"offnetmap.classify_in":      count(c["offnetmap.classify.in"]),
		"offnetmap.classified_ratio": ratio(c["offnetmap.classify.out"], c["offnetmap.classify.in"]),

		"mlab.campaign_ms": ms("mlab.MeasureContext"),
		"mlab.targets":     count(c["ping.filter.in"]),
		"mlab.kept_ratio":  ratio(c["ping.filter.out"], c["ping.filter.in"]),
		"mlab.rtts":        count(c["ping.rtts_measured"]),

		"coloc.analyze_ms":         ms("coloc.AnalyzeMixContext", "coloc.aggregate"),
		"coloc.distances":          count(c["coloc.distances_computed"]),
		"coloc.samples":            count(c["coloc.pairs.in"]),
		"coloc.samples_kept_ratio": ratio(c["coloc.pairs.out"], c["coloc.pairs.in"]),
		"optics.runs":              count(c["optics.runs_total"]),
		"optics.points":            count(c["optics.points_clustered"]),

		"rdns.validate_ms": ms("rdns.Synthesize", "rdns.Validate"),
		"steer.map_ms":     ms("steer.Resolvers", "steer.MapUsers"),

		"tracert.survey_ms":         ms("tracert.SurveyContext"),
		"tracert.infer_ms":          ms("tracert.Infer"),
		"tracert.traces":            count(c["tracert.traces_run"]),
		"tracert.hops":              count(c["tracert.hops.in"]),
		"tracert.hops_mapped_ratio": ratio(c["tracert.hops.out"], c["tracert.hops.in"]),

		"capacity.build_ms":   ms("capacity.Build"),
		"capacity.diurnal_ms": ms("capacity.DiurnalSweepContext"),
		"capacity.models":     count(c["capacity.models_built"]),
		"capacity.flows":      count(c["capacity.flows_served"]),

		"cascade.sweep_ms":        ms("cascade.SweepContext"),
		"cascade.mitigation_ms":   ms("cascade.MitigationSweepContext"),
		"cascade.montecarlo_ms":   ms("cascade.MonteCarloContext"),
		"cascade.scenarios":       count(scenN),
		"cascade.ms_per_scenario": {0, "ms"},
		"session.run_ms":          ms("session.RunContext"),
		"session.sessions":        count(int64(it.sessions)),

		"temporal.run_ms":          ms("temporal.New", "temporal.Run"),
		"temporal.steps":           count(c["temporal.steps_total"]),
		"temporal.events":          count(c["temporal.events_total"]),
		"temporal.sim_hours":       count(int64(it.simHours)),
		"temporal.ms_per_sim_hour": {0, "ms"},

		"sweep.run_ms":  ms("sweep.ColocationPropensity", "sweep.SharedHeadroom", "sweep.DemandSpike"),
		"report.checks": count(int64(it.checks)),
		"report.passed": count(int64(it.passed)),

		"par.tasks":           count(c["par.tasks_total"]),
		"par.regions":         count(c["par.regions_total"]),
		"par.cpu_util":        {it.cpu.Seconds() / (it.run.Seconds() * workers), "ratio"},
		"runtime.alloc_mb":    {float64(it.rt.allocBytes) / 1e6, "MB"},
		"runtime.mallocs":     count(int64(it.rt.mallocs)),
		"runtime.gc_cycles":   count(int64(it.rt.gcCycles)),
		"runtime.gc_pause_ms": {float64(it.rt.gcPause.Nanoseconds()) / 1e6, "ms"},
		"runtime.peak_rss_mb": {float64(it.peakRSS) / 1e6, "MB"},
		"trace.coverage":      {covered / runMS, "ratio"},
	}
	if scenN > 0 {
		m["cascade.ms_per_scenario"] = metric{scenMS / float64(scenN), "ms"}
	}
	if it.simHours > 0 {
		m["temporal.ms_per_sim_hour"] = metric{dur["temporal.Run"] / float64(it.simHours), "ms"}
	}
	for _, e := range experiments {
		m["offnetrisk."+e+"_ms"] = metric{stage[e], "ms"}
	}
	return m
}

// medianLayers is the per-metric median over the traced iterations.
func medianLayers(its []*iteration, tr *tracer) map[string]metric {
	all := map[string][]float64{}
	units := map[string]string{}
	for _, it := range its {
		for k, v := range layers(it, tr) {
			all[k] = append(all[k], v.Value)
			units[k] = v.Unit
		}
	}
	out := make(map[string]metric, len(all))
	for k, vs := range all {
		out[k] = metric{median(vs), units[k]}
	}
	return out
}

// pick selects the named metrics.
func pick(m map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		out[n] = m[n]
	}
	return out
}

// called drops the layers a workload never called, which read 0.
func called(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(m))
	for k, v := range m {
		if v.Value != 0 {
			out[k] = v
		}
	}
	return out
}
