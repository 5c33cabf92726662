package cascade

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/traffic"
)

// sweepByScenario is SweepContext as a loop of one-shot Simulate calls,
// each serving its own baseline.
func sweepByScenario(m *capacity.Model, d *hypergiant.Deployment, isps []inet.ASN) SweepStats {
	var st SweepStats
	var hgSum, collSum float64
	for _, as := range isps {
		fid, nHGs := TopFacility(d, as)
		if nHGs <= 0 {
			continue
		}
		sc := DefaultScenario()
		sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
		rep := Simulate(m, d, sc)
		st.Scenarios++
		hgSum += float64(nHGs)
		collSum += float64(len(rep.CollateralISPs))
		if len(rep.CongestedIXPs()) > 0 || len(rep.CongestedTransits()) > 0 {
			st.CongestionFraction++
		}
	}
	if st.Scenarios > 0 {
		st.MeanHGsPerFailure = hgSum / float64(st.Scenarios)
		st.MeanCollateralISPs = collSum / float64(st.Scenarios)
		st.CongestionFraction /= float64(st.Scenarios)
	}
	return st
}

// mitigationByScenario is MitigationSweepContext as a loop of one-shot
// SimulateIsolated calls.
func mitigationByScenario(m *capacity.Model, d *hypergiant.Deployment, isps []inet.ASN) MitigationStats {
	var st MitigationStats
	var shared, isolated float64
	for _, as := range isps {
		fid, nHGs := TopFacility(d, as)
		if nHGs <= 0 {
			continue
		}
		sc := DefaultScenario()
		sc.SharedHeadroom = 1.1
		sc.FailFacilities = map[inet.FacilityID]bool{fid: true}
		rep := SimulateIsolated(m, d, sc)
		st.Scenarios++
		shared += float64(len(rep.CollateralISPs))
		isolated += float64(len(rep.IsolatedCollateralISPs))
		if len(rep.CollateralISPs) > 0 && len(rep.IsolatedCollateralISPs) == 0 {
			st.ScenariosFullyNeutralized++
		}
	}
	if st.Scenarios > 0 {
		st.MeanCollateralShared = shared / float64(st.Scenarios)
		st.MeanCollateralIsolated = isolated / float64(st.Scenarios)
	}
	return st
}

// monteCarloByScenario is MonteCarloContext as a loop of one-shot Simulate
// calls over the same per-trial facility samples.
func monteCarloByScenario(m *capacity.Model, d *hypergiant.Deployment, k, trials int, seed int64) RiskCurve {
	w := d.World
	seen := make(map[inet.FacilityID]bool)
	var facs []inet.FacilityID
	for _, s := range d.Servers {
		if !seen[s.Facility] {
			seen[s.Facility] = true
			facs = append(facs, s.Facility)
		}
	}
	sort.Slice(facs, func(i, j int) bool { return facs[i] < facs[j] })
	affected := make([]float64, 0, trials)
	var hgSum float64
	for trial := 0; trial < trials; trial++ {
		r := rngutil.New(rngutil.Derive(seed, 0x415c, int64(trial)))
		sc := DefaultScenario()
		sc.FailFacilities = make(map[inet.FacilityID]bool, k)
		for _, idx := range rngutil.SampleWithoutReplacement(r, len(facs), k) {
			sc.FailFacilities[facs[idx]] = true
		}
		rep := Simulate(m, d, sc)
		hgSum += float64(len(rep.HGsImpacted))
		affected = append(affected, rep.DirectUsers(w)+rep.CollateralUsers(w))
	}
	sort.Float64s(affected)
	rc := RiskCurve{Trials: trials, MeanHGs: hgSum / float64(trials)}
	var sum float64
	for i, u := range affected {
		rc.Curve = append(rc.Curve, RiskPoint{Users: u, Prob: float64(len(affected)-i) / float64(len(affected))})
		sum += u
	}
	rc.MeanAffected = sum / float64(trials)
	return rc
}

// TestSweepsMatchPerScenarioSimulate: the facility, mitigation and Monte
// Carlo sweeps share one read-only baseline across their workers, and their
// stats equal a loop of one-shot simulations at workers 1 and 4 (the race
// detector, under `make race`, checks the sharing).
func TestSweepsMatchPerScenarioSimulate(t *testing.T) {
	ctx := context.Background()
	d, m := setup(t, 1)
	hosts := d.HostingISPs()
	wantSweep := sweepByScenario(m, d, hosts)
	wantMit := mitigationByScenario(m, d, hosts)
	wantRisk := monteCarloByScenario(m, d, 3, 40, 9)
	if wantSweep.Scenarios == 0 || wantMit.Scenarios == 0 || wantRisk.MeanAffected == 0 {
		t.Fatal("the per-scenario loops ran no scenario")
	}
	for _, workers := range []int{1, 4} {
		st, err := SweepContext(ctx, m, d, hosts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if st != wantSweep {
			t.Errorf("workers=%d: SweepContext %+v, per-scenario loop %+v", workers, st, wantSweep)
		}
		mit, err := MitigationSweepContext(ctx, m, d, hosts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if mit != wantMit {
			t.Errorf("workers=%d: MitigationSweepContext %+v, per-scenario loop %+v", workers, mit, wantMit)
		}
		rc, err := MonteCarloContext(ctx, m, d, 3, 40, 9, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rc, wantRisk) {
			t.Errorf("workers=%d: MonteCarloContext differs from the per-scenario loop", workers)
		}
	}
}

// TestSlicesOfSumsInHGOrder guards the baseline total the slices divide by:
// loads of 1, 1, 1 and 1e16 Gbps total 1e16+4 in traffic.All order but 1e16
// when the large one comes first, so a total in map iteration order gives
// run-dependent slices.
func TestSlicesOfSumsInHGOrder(t *testing.T) {
	base := hgLoads{traffic.Google: 1, traffic.Netflix: 1, traffic.Meta: 1, traffic.Akamai: 1e16}
	var total float64
	for _, hg := range traffic.All {
		total += base[hg]
	}
	if total == 1e16 {
		t.Fatal("loads are not order-sensitive; the guard proves nothing")
	}
	for i := 0; i < 100; i++ {
		s := slicesOf(&base, 1e16)
		for _, hg := range traffic.All {
			if want := 1e16 * base[hg] / total; s[hg] != want {
				t.Fatalf("pass %d: %s slice %v, want %v", i, hg, s[hg], want)
			}
		}
	}
}
