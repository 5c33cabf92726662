package temporal

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

// buildWorldConfig deploys the 2023 hypergiants on a world of the config
// and builds the deployment's capacity model.
func buildWorldConfig(t testing.TB, cfg inet.Config) (*hypergiant.Deployment, *capacity.Model) {
	t.Helper()
	d, err := hypergiant.Deploy(inet.Generate(cfg), hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return d, capacity.Build(d, capacity.ConfigFromScenario(scenario.Default(), cfg.Seed))
}

// weeksSchedule is a seeded what-if over the horizon, day by day: flash
// crowds on one hypergiant or all of them, failures of offnet-hosting
// facilities, capacity cuts on every layer (on one hypergiant or all,
// on one hosting ISP or every network) and isolation toggles.
func weeksSchedule(seed int64, d *hypergiant.Deployment, hours int) *scenario.Schedule {
	r := rngutil.New(seed)
	seen := make(map[inet.FacilityID]bool)
	var facilities []inet.FacilityID
	for _, srv := range d.Servers {
		if !seen[srv.Facility] {
			seen[srv.Facility] = true
			facilities = append(facilities, srv.Facility)
		}
	}
	sort.Slice(facilities, func(i, j int) bool { return facilities[i] < facilities[j] })
	hosts := d.HostingISPs()
	hg := func() string { // "" is every hypergiant
		if i := r.Intn(len(traffic.All) + 1); i < len(traffic.All) {
			return strings.ToLower(traffic.All[i].String())
		}
		return ""
	}
	half := func(lo, hi int) float64 { return float64(rngutil.IntBetween(r, 2*lo, 2*hi)) / 2 }
	s := &scenario.Schedule{Version: scenario.ScheduleVersion, Name: fmt.Sprintf("weeks-%d", seed)}
	for day := 0; 24*day < hours; day++ {
		base := float64(24 * day)
		if r.Float64() < 0.6 {
			s.Events = append(s.Events, scenario.TimedEvent{
				AtHours: base + half(8, 14), DurationHours: half(2, 8),
				DemandStep: &scenario.DemandStep{HG: hg(), Multiplier: 1.2 + 1.8*r.Float64()},
			})
		}
		if len(facilities) > 0 && r.Float64() < 0.5 {
			s.Events = append(s.Events, scenario.TimedEvent{
				AtHours: base + half(0, 19), DurationHours: half(1, 4),
				FacilityFailure: &scenario.FacilityFailure{Facility: int(facilities[r.Intn(len(facilities))])},
			})
		}
		if r.Float64() < 0.4 {
			cut := &scenario.CapacityCut{
				Layer:       scenario.ScheduleLayers[r.Intn(len(scenario.ScheduleLayers))],
				HG:          hg(),
				CutFraction: 0.1 + 0.8*r.Float64(),
			}
			if len(hosts) > 0 && r.Intn(2) == 0 {
				cut.ISP = uint32(hosts[r.Intn(len(hosts))])
			}
			s.Events = append(s.Events, scenario.TimedEvent{AtHours: base + half(6, 18), DurationHours: half(1, 6), CapacityCut: cut})
		}
		if r.Float64() < 0.3 {
			s.Events = append(s.Events, scenario.TimedEvent{
				AtHours:   base + half(16, 22),
				Isolation: &scenario.IsolationToggle{Enabled: r.Intn(2) == 0},
			})
		}
	}
	return s
}

// weeksSeed seeds a world's weeks schedule.
func weeksSeed(world int64) int64 { return rngutil.Derive(world, rngutil.Label("temporal.weeks")) }

var sinkWeeks *Trajectory

// BenchmarkEngineFourWeeks replays four weeks of a seeded weeks schedule
// on the default seed-42 world, the horizon of the what-if benchmark, with
// the model built once: undisturbed hours repeat, so most steps reuse an
// earlier evaluation.
func BenchmarkEngineFourWeeks(b *testing.B) {
	d, m := buildWorldConfig(b, inet.ConfigFromScenario(scenario.Default(), 42))
	const hours = 4 * 7 * 24
	sched := weeksSchedule(weeksSeed(42), d, hours)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkWeeks = mustRun(b, m, d, sched, Config{Hours: hours})
	}
}
