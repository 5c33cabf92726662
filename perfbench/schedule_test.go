package main

import (
	"testing"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
)

// TestScheduleValidOnOffnetFacilities generates the what-if schedule for
// 100 derived seeds at tiny scale: every schedule must pass validation and
// fail only facilities that host offnets, and together they must use every
// kind of event.
func TestScheduleValidOnOffnetFacilities(t *testing.T) {
	kinds := map[string]int{}
	for i := int64(0); i < 100; i++ {
		seed := rngutil.Derive(42, i)
		w := inet.Generate(inet.TinyConfig(seed))
		d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), seed))
		if err != nil {
			t.Fatal(err)
		}
		hosts := map[int]bool{}
		for _, f := range offnetFacilities(d) {
			hosts[int(f)] = true
		}
		s := newSchedule(seed, d, full.replayHours)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, e := range s.Events {
			switch {
			case e.DemandStep != nil:
				kinds["demand_step"]++
			case e.FacilityFailure != nil:
				kinds["facility_failure"]++
				if !hosts[e.FacilityFailure.Facility] {
					t.Errorf("seed %d fails facility %d, which hosts no offnet", seed, e.FacilityFailure.Facility)
				}
			case e.CapacityCut != nil:
				kinds["capacity_cut"]++
			case e.Isolation != nil:
				kinds["isolation"]++
			}
		}
	}
	for _, k := range []string{"demand_step", "facility_failure", "capacity_cut", "isolation"} {
		if kinds[k] == 0 {
			t.Errorf("no %s event in 100 schedules", k)
		}
	}
}
