package temporal

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/cascade"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
)

func buildWorld(t testing.TB, seed int64) (*hypergiant.Deployment, *capacity.Model) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	return d, capacity.Build(d, capacity.ConfigFromScenario(scenario.Default(), seed))
}

func mustRun(t testing.TB, m *capacity.Model, d *hypergiant.Deployment, sched *scenario.Schedule, cfg Config) *Trajectory {
	t.Helper()
	eng, err := New(m, d, sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	traj, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return traj
}

// servedFacility returns a facility that actually hosts offnet servers in
// the deployment, so failing it perturbs the serving model.
func servedFacility(t testing.TB, d *hypergiant.Deployment) inet.FacilityID {
	t.Helper()
	var ids []inet.FacilityID
	seen := map[inet.FacilityID]bool{}
	for _, s := range d.Servers {
		if !seen[s.Facility] {
			seen[s.Facility] = true
			ids = append(ids, s.Facility)
		}
	}
	if len(ids) == 0 {
		t.Fatal("deployment hosts no servers")
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// The facility shared by the most hypergiants perturbs the most flows.
	bestN := -1
	best := ids[0]
	for _, id := range ids {
		hgs := map[int]bool{}
		for _, s := range d.Servers {
			if s.Facility == id {
				hgs[int(s.HG)] = true
			}
		}
		if len(hgs) > bestN {
			bestN, best = len(hgs), id
		}
	}
	return best
}

// The steady-state differential oracle: with an empty schedule the engine's
// flows at each hour h must equal capacity.Model.Serve(Diurnal[h], ...)
// bit-exactly, across 100 derived seeds (ISSUE 10 acceptance criterion).
func TestSteadyStateMatchesServe(t *testing.T) {
	base := int64(42)
	for i := 0; i < 100; i++ {
		seed := rngutil.Derive(base, rngutil.Label("temporal.oracle"), int64(i))
		d, m := buildWorld(t, seed)
		traj := mustRun(t, m, d, nil, Config{Hours: 24})
		if len(traj.Steps) != 24 {
			t.Fatalf("seed %d: %d steps, want 24", seed, len(traj.Steps))
		}
		for _, st := range traj.Steps {
			want := m.Serve(capacity.Diurnal[st.Hour%24], nil, nil)
			if !reflect.DeepEqual(st.Flows, want) {
				t.Fatalf("seed %d hour %d: engine flows diverge from Serve", seed, st.Hour)
			}
			if st.Burst {
				t.Fatalf("seed %d hour %d: steady state must not burst", seed, st.Hour)
			}
			// ServeHour is the same entry point the engine's identity relies on.
			if got := m.ServeHour(st.Hour, nil, nil, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d hour %d: ServeHour diverges from Serve", seed, st.Hour)
			}
		}
	}
}

// The failure differential oracle: a scheduled facility failure must land on
// cascade.Simulate's report — flows, congested IXP/transit sets, direct and
// collateral ISP sets — bit-exactly, across 100 derived seeds.
func TestFailureTrajectoryMatchesSimulate(t *testing.T) {
	base := int64(42)
	const failAt = 5
	for i := 0; i < 100; i++ {
		seed := rngutil.Derive(base, rngutil.Label("temporal.oracle.fail"), int64(i))
		d, m := buildWorld(t, seed)
		fid := servedFacility(t, d)
		sched := &scenario.Schedule{
			Version: scenario.ScheduleVersion,
			Name:    "differential-failure",
			Events: []scenario.TimedEvent{{
				AtHours:         failAt,
				FacilityFailure: &scenario.FacilityFailure{Facility: int(fid)},
			}},
		}
		traj := mustRun(t, m, d, sched, Config{Hours: 12})
		for _, st := range traj.Steps {
			if st.AtHours < failAt {
				if st.Burst {
					t.Fatalf("seed %d t=%g: burst before the failure", seed, st.AtHours)
				}
				continue
			}
			sc := cascade.Scenario{
				FailFacilities: map[inet.FacilityID]bool{fid: true},
				DemandMult:     capacity.Diurnal[st.Hour%24],
				SharedHeadroom: 1.25,
			}
			want := cascade.Simulate(m, d, sc)
			if !reflect.DeepEqual(st.Flows, want.Flows) {
				t.Fatalf("seed %d t=%g: flows diverge from Simulate", seed, st.AtHours)
			}
			if !reflect.DeepEqual(st.Report.CongestedIXPs(), want.CongestedIXPs()) {
				t.Fatalf("seed %d t=%g: congested IXPs %v vs %v",
					seed, st.AtHours, st.Report.CongestedIXPs(), want.CongestedIXPs())
			}
			if !reflect.DeepEqual(st.Report.CongestedTransits(), want.CongestedTransits()) {
				t.Fatalf("seed %d t=%g: congested transits %v vs %v",
					seed, st.AtHours, st.Report.CongestedTransits(), want.CongestedTransits())
			}
			if !reflect.DeepEqual(st.Report.DirectISPs, want.DirectISPs) {
				t.Fatalf("seed %d t=%g: direct ISPs diverge", seed, st.AtHours)
			}
			if !reflect.DeepEqual(st.Report.CollateralISPs, want.CollateralISPs) {
				t.Fatalf("seed %d t=%g: collateral ISPs diverge", seed, st.AtHours)
			}
		}
	}
}

func TestEventOrderingAndDigest(t *testing.T) {
	d, m := buildWorld(t, 7)
	fid := servedFacility(t, d)
	sched := &scenario.Schedule{
		Version: scenario.ScheduleVersion,
		Name:    "ordering",
		Events: []scenario.TimedEvent{
			{AtHours: 2.5, DurationHours: 3, DemandStep: &scenario.DemandStep{HG: "akamai", Multiplier: 2}},
			{AtHours: 4, DurationHours: 2, FacilityFailure: &scenario.FacilityFailure{Facility: int(fid)}},
			{AtHours: 5, Isolation: &scenario.IsolationToggle{Enabled: true}},
		},
	}
	traj := mustRun(t, m, d, sched, Config{Hours: 10})
	// Events are (timestamp, seq)-ordered with dense sequence numbers.
	for i, ev := range traj.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if i > 0 && ev.AtHours < traj.Events[i-1].AtHours {
			t.Fatalf("event %d at %g precedes event %d at %g",
				i, ev.AtHours, i-1, traj.Events[i-1].AtHours)
		}
	}
	// Evaluation instants: the 10 ticks plus the fractional window edges at
	// t=2.5 and t=5.5 (the on-the-hour schedule items coincide with ticks).
	if len(traj.Steps) != 12 {
		t.Fatalf("%d steps, want 12 (10 ticks + t=2.5 + t=5.5)", len(traj.Steps))
	}
	// Isolation from t=5 onward only.
	for _, st := range traj.Steps {
		if st.Isolated != (st.AtHours >= 5) {
			t.Fatalf("t=%g: isolated=%v", st.AtHours, st.Isolated)
		}
	}
	// Re-running is byte-identical.
	again := mustRun(t, m, d, sched, Config{Hours: 10})
	if traj.Digest() != again.Digest() {
		t.Fatal("same inputs produced different trajectory digests")
	}
	if !strings.HasPrefix(traj.Digest(), "sha256:") {
		t.Fatalf("digest %q lacks scheme prefix", traj.Digest())
	}
	// Summary is deterministic and carries the digest.
	if a, b := traj.Summary(), again.Summary(); a != b || !strings.Contains(a, traj.Digest()) {
		t.Fatal("summary not deterministic or missing the digest")
	}
}

func TestEngineEmitsOnSink(t *testing.T) {
	d, m := buildWorld(t, 3)
	var buf bytes.Buffer
	sink := obs.NewEventSink(&buf)
	traj := mustRun(t, m, d, nil, Config{Hours: 3, Sink: sink})
	sink.Close()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(traj.Events) {
		t.Fatalf("%d stream lines for %d events", len(lines), len(traj.Events))
	}
	for _, line := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("unparsable stream line %q: %v", line, err)
		}
		if ev.Type != "temporal" {
			t.Fatalf("stream event type %q, want temporal", ev.Type)
		}
		if ev.Attrs["event"] == nil {
			t.Fatalf("stream event missing payload: %q", line)
		}
	}
}

func TestNewValidates(t *testing.T) {
	d, m := buildWorld(t, 3)
	if _, err := New(m, d, nil, Config{Hours: 0}); err == nil {
		t.Fatal("hours 0 accepted")
	}
	if _, err := New(m, d, nil, Config{Hours: MaxHours + 1}); err == nil {
		t.Fatal("hours beyond MaxHours accepted")
	}
	if _, err := New(nil, d, nil, Config{Hours: 1}); err == nil {
		t.Fatal("nil model accepted")
	}
	bad := &scenario.Schedule{Version: 99, Name: "bad"}
	if _, err := New(m, d, bad, Config{Hours: 1}); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}

// A capacity cut must shift serving off the cut layer, and the cut model
// must leave the pristine baseline untouched once the window closes.
func TestCapacityCutShiftsServing(t *testing.T) {
	d, m := buildWorld(t, 11)
	sched := &scenario.Schedule{
		Version: scenario.ScheduleVersion,
		Name:    "pni-cut",
		Events: []scenario.TimedEvent{{
			AtHours: 2, DurationHours: 3,
			CapacityCut: &scenario.CapacityCut{Layer: "pni", CutFraction: 1},
		}},
	}
	traj := mustRun(t, m, d, sched, Config{Hours: 8})
	var inWindow, outWindow *Step
	for i := range traj.Steps {
		st := &traj.Steps[i]
		switch {
		case st.AtHours >= 2 && st.AtHours < 5:
			inWindow = st
		case st.AtHours >= 5:
			if outWindow == nil {
				outWindow = st
			}
		}
	}
	if inWindow == nil || outWindow == nil {
		t.Fatal("missing steps around the cut window")
	}
	if inWindow.Agg.PNI != 0 {
		t.Fatalf("PNI served %.3f Gbps during a 100%% PNI cut", inWindow.Agg.PNI)
	}
	if outWindow.Agg.PNI <= 0 {
		t.Fatalf("PNI did not recover after the cut window (%.3f Gbps)", outWindow.Agg.PNI)
	}
	// After the window the state is quiet again: flows equal the baseline.
	want := m.Serve(capacity.Diurnal[outWindow.Hour%24], nil, nil)
	if !reflect.DeepEqual(outWindow.Flows, want) {
		t.Fatal("post-window flows diverge from the pristine baseline")
	}
}
