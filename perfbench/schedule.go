package main

import (
	"fmt"
	"sort"
	"strings"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

// newSchedule generates whatif-default's event schedule from a seed: over a
// horizon of hours, each simulated day holds at most one demand step, one
// failure of a facility hosting offnets in d, one capacity cut and one
// isolation toggle. Every window closes inside its own day, so events on
// one target never overlap, which scenario.Schedule.Validate requires.
func newSchedule(seed int64, d *hypergiant.Deployment, hours int) *scenario.Schedule {
	r := rngutil.New(seed)
	facilities := offnetFacilities(d)
	hosts := d.HostingISPs()
	hg := func() string { // "" is every hypergiant
		if i := r.Intn(len(traffic.All) + 1); i < len(traffic.All) {
			return strings.ToLower(traffic.All[i].String())
		}
		return ""
	}
	half := func(lo, hi int) float64 { return float64(rngutil.IntBetween(r, 2*lo, 2*hi)) / 2 }
	s := &scenario.Schedule{
		Version:     scenario.ScheduleVersion,
		Name:        fmt.Sprintf("perfbench-%d", seed),
		Description: "seeded what-if: flash crowds, failures of offnet-hosting facilities, capacity cuts, isolation toggles",
	}
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

// offnetFacilities lists, ascending, the facilities hosting at least one
// offnet server.
func offnetFacilities(d *hypergiant.Deployment) []inet.FacilityID {
	seen := make(map[inet.FacilityID]bool)
	var out []inet.FacilityID
	for _, srv := range d.Servers {
		if srv.Facility > 0 && !seen[srv.Facility] {
			seen[srv.Facility] = true
			out = append(out, srv.Facility)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
