package cascade_test

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/cascade"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/temporal"
)

// stepSchedule is a seeded schedule that exercises every kind of step the
// engine assesses: demand steps, facility failures, capacity cuts on each
// layer (served by WithCuts models) and isolation toggles, over two days.
func stepSchedule(r *rand.Rand, d *hypergiant.Deployment) *scenario.Schedule {
	seen := make(map[inet.FacilityID]bool)
	var facs []inet.FacilityID
	for _, s := range d.Servers {
		if !seen[s.Facility] {
			seen[s.Facility] = true
			facs = append(facs, s.Facility)
		}
	}
	sort.Slice(facs, func(i, j int) bool { return facs[i] < facs[j] })
	hgs := []string{"google", "netflix", "meta", "akamai"}
	s := &scenario.Schedule{Version: scenario.ScheduleVersion, Name: "kernel-steps"}
	win := func() (float64, float64) {
		return math.Round(r.Float64()*80) / 2, 2 + math.Round(r.Float64()*16)/2
	}
	for _, i := range rngutil.SampleWithoutReplacement(r, len(hgs), 2) {
		at, dur := win()
		s.Events = append(s.Events, scenario.TimedEvent{AtHours: at, DurationHours: dur,
			DemandStep: &scenario.DemandStep{HG: hgs[i], Multiplier: 1 + r.Float64()*2}})
	}
	for _, i := range rngutil.SampleWithoutReplacement(r, len(facs), min(3, len(facs))) {
		at, dur := win()
		s.Events = append(s.Events, scenario.TimedEvent{AtHours: at, DurationHours: dur,
			FacilityFailure: &scenario.FacilityFailure{Facility: int(facs[i])}})
	}
	for _, layer := range scenario.ScheduleLayers {
		at, dur := win()
		s.Events = append(s.Events, scenario.TimedEvent{AtHours: at, DurationHours: dur,
			CapacityCut: &scenario.CapacityCut{Layer: layer, HG: hgs[r.Intn(len(hgs))], CutFraction: 0.3 + r.Float64()*0.7}})
	}
	for i, on := range []bool{true, false} {
		s.Events = append(s.Events, scenario.TimedEvent{AtHours: float64(24*i) + math.Round(r.Float64()*22),
			Isolation: &scenario.IsolationToggle{Enabled: on}})
	}
	return s
}

// TestTemporalStepsMatchReference compares every step the temporal engine
// assesses — steady, burst and cut steps, with and without isolation — with
// the reference assessment of the same flows, at tiny seeds 1-30 and
// default seed 42 (skipped under -short).
func TestTemporalStepsMatchReference(t *testing.T) {
	cfgs := make([]inet.Config, 0, 31)
	for seed := int64(1); seed <= 30; seed++ {
		cfgs = append(cfgs, inet.TinyConfig(seed))
	}
	if !testing.Short() {
		cfgs = append(cfgs, inet.ConfigFromScenario(scenario.Default(), 42))
	}
	var burst, cut, isolated int
	for _, cfg := range cfgs {
		d, err := hypergiant.Deploy(inet.Generate(cfg), hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), cfg.Seed))
		if err != nil {
			t.Fatal(err)
		}
		m := capacity.Build(d, capacity.ConfigFromScenario(scenario.Default(), cfg.Seed))
		sched := stepSchedule(rngutil.New(rngutil.Derive(cfg.Seed, rngutil.Label("cascade.kernel.steps"))), d)
		eng, err := temporal.New(m, d, sched, temporal.Config{Hours: 48})
		if err != nil {
			t.Fatal(err)
		}
		traj, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ref := cascade.NewReferenceChecker(m, d)
		for _, st := range traj.Steps {
			if err := ref.Check(st.Report, st.IsoReport); err != nil {
				t.Fatalf("seed %d t=%g: %v", cfg.Seed, st.AtHours, err)
			}
			if st.Burst {
				burst++
			}
			if st.IsoReport != nil {
				isolated++
			}
		}
		for _, ev := range traj.Events {
			if ev.Kind == "capacity_cut_start" {
				cut++
			}
		}
	}
	if burst == 0 || cut == 0 || isolated == 0 {
		t.Fatalf("%d burst steps, %d cuts, %d isolated steps: some step kind is not exercised", burst, cut, isolated)
	}
}
