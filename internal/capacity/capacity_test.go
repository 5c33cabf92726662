package capacity

import (
	"context"
	"math"
	"testing"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

func buildModel(t *testing.T, seed int64) (*hypergiant.Deployment, *Model) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	return d, Build(d, ConfigFromScenario(scenario.Default(), seed))
}

func TestBuildCoversDeployment(t *testing.T) {
	d, m := buildModel(t, 1)
	for _, hg := range traffic.All {
		hosts := d.HostISPs(hg)
		if len(m.Sites[hg])+len(m.Upstream[hg]) != len(hosts) {
			t.Errorf("%s: %d+%d sites for %d hosts", hg, len(m.Sites[hg]), len(m.Upstream[hg]), len(hosts))
		}
		for _, as := range hosts {
			site := m.Sites[hg][as]
			if site == nil {
				site = m.Upstream[hg][as]
			}
			if site == nil {
				t.Fatalf("%s: no site in AS%d", hg, as)
			}
			if d.World.ISPs[as].Tier == inet.TierTransit && m.Upstream[hg][as] == nil {
				t.Fatalf("%s: transit host AS%d not an upstream site", hg, as)
			}
			if site.NominalGbps <= 0 || site.BurstGbps < site.NominalGbps {
				t.Errorf("%s/AS%d: bad capacities %v/%v", hg, as, site.NominalGbps, site.BurstGbps)
			}
			var share float64
			for _, v := range site.Facilities {
				share += v
			}
			if math.Abs(share-1) > 1e-9 {
				t.Errorf("%s/AS%d: facility shares sum to %v", hg, as, share)
			}
		}
	}
}

func TestServeConservation(t *testing.T) {
	_, m := buildModel(t, 1)
	for _, mult := range []float64{0.3, 0.7, 1.0, 1.5} {
		for _, f := range m.Serve(mult, nil, nil) {
			sum := f.Offnet + f.PNI + f.IXP + f.UpstreamOffnet + f.Transit
			if math.Abs(sum-f.Demand) > 1e-6 {
				t.Fatalf("flow not conserved: %v != %v (%+v)", sum, f.Demand, f)
			}
			for _, v := range []float64{f.Offnet, f.PNI, f.IXP, f.UpstreamOffnet, f.Transit} {
				if v < -1e-9 {
					t.Fatalf("negative flow component: %+v", f)
				}
			}
		}
	}
}

func TestOffnetsRunNearCapacity(t *testing.T) {
	// §4.1's premise: at peak, offnets serve ≈ their nominal capacity, and
	// the cacheable share of demand is close to what they can hold.
	_, m := buildModel(t, 1)
	flows := m.Serve(1.0, nil, nil)
	var nearCap, total int
	for _, f := range flows {
		site := m.Sites[f.HG][f.ISP]
		total++
		util := f.Offnet / site.NominalGbps
		if util > 0.85 {
			nearCap++
		}
	}
	if frac := float64(nearCap) / float64(total); frac < 0.8 {
		t.Errorf("only %.2f of sites near capacity at peak; model premise broken", frac)
	}
}

func TestOffPeakServedLocally(t *testing.T) {
	// At the overnight trough, nearly all cacheable traffic fits the local
	// offnet — the §4.1 "vast majority of traffic comes from nearby
	// servers" observation.
	_, m := buildModel(t, 1)
	flows := m.Serve(Diurnal[3], nil, nil)
	for _, f := range flows {
		wantOffnet := f.Demand * f.HG.OffnetFraction()
		if math.Abs(f.Offnet-wantOffnet) > 1e-6 {
			t.Fatalf("trough flow should be fully cache-served: %+v", f)
		}
	}
}

func TestCovidReplayShape(t *testing.T) {
	// §4.1: +58% Netflix demand → offnet growth small (≈20%), interdomain
	// growth large (more than doubled).
	_, m := buildModel(t, 1)
	rep := CovidReplay(m, traffic.Netflix, 1.58)
	og, ig := rep.OffnetGrowth(), rep.InterdomainGrowth()
	if og > 0.30 {
		t.Errorf("offnet growth %.2f, want ≤0.30 (paper: 0.20)", og)
	}
	if og < 0 {
		t.Errorf("offnet growth negative: %.2f", og)
	}
	if ig < 1.0 {
		t.Errorf("interdomain growth %.2f, want >1.0 (paper: more than doubled)", ig)
	}
	if ig < 3*og {
		t.Errorf("interdomain growth (%.2f) should dwarf offnet growth (%.2f)", ig, og)
	}
	if rep.OffnetSharePre < 0.5 || rep.OffnetSharePre > 1.0 {
		t.Errorf("pre-spike offnet share = %.2f, want high (paper: 0.63+)", rep.OffnetSharePre)
	}
}

func TestDiurnalDistantServerEffect(t *testing.T) {
	// Distant share must be higher at peak (hour 19) than at trough (hour
	// 3) — the 530-apartment observation.
	_, m := buildModel(t, 1)
	pts, err := DiurnalSweepContext(context.Background(), m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 24 {
		t.Fatalf("got %d hours", len(pts))
	}
	trough, peak := pts[3], pts[19]
	if peak.DistantShare <= trough.DistantShare {
		t.Errorf("distant share at peak (%.3f) not above trough (%.3f)",
			peak.DistantShare, trough.DistantShare)
	}
	if peak.Demand <= trough.Demand {
		t.Error("peak demand should exceed trough demand")
	}
	for _, p := range pts {
		if s := p.NearbyShare + p.DistantShare; math.Abs(s-1) > 1e-6 {
			t.Fatalf("hour %d: shares sum to %v", p.Hour, s)
		}
	}
}

func TestPNICensusShape(t *testing.T) {
	// §4.2.2: a substantial share of PNIs in deficit, ≈10% severe, mean
	// exceedance ≥13%. Aggregate over all four hypergiants — per-hypergiant
	// PNI counts in the tiny world are too small for the 10% tail.
	_, m := buildModel(t, 1)
	var total, deficit, severe int
	var excess float64
	for _, hg := range traffic.All {
		c := CensusPNIs(m, hg)
		total += c.Total
		deficit += c.Deficit
		severe += int(c.SevereFraction*float64(c.Total) + 0.5)
		excess += c.MeanExcessPct * float64(c.Deficit)
	}
	if total == 0 {
		t.Fatal("no PNIs in census")
	}
	if deficit == 0 {
		t.Fatal("no deficit PNIs; §4.2.2 requires under-provisioning")
	}
	if mean := excess / float64(deficit); mean < 10 {
		t.Errorf("mean excess %.1f%%, want ≥10%% (paper: ≥13%%)", mean)
	}
	if f := float64(severe) / float64(total); f < 0.01 || f > 0.4 {
		t.Errorf("severe fraction %.2f, want ≈0.10", f)
	}
	if f := float64(deficit) / float64(total); f < 0.2 || f > 0.9 {
		t.Errorf("deficit fraction %.2f, want substantial (Meta study: 'most sites constrained on some paths')", f)
	}
}

func TestFailedFacilityReducesOffnet(t *testing.T) {
	d, m := buildModel(t, 1)
	// Fail every facility of the first access-network Google host: its
	// offnet flow must drop to zero and spill interdomain.
	var as inet.ASN
	for _, cand := range d.HostISPs(traffic.Google) {
		if d.World.ISPs[cand].IsAccess() {
			as = cand
			break
		}
	}
	failed := make(map[inet.FacilityID]bool)
	for fid := range m.Sites[traffic.Google][as].Facilities {
		failed[fid] = true
	}
	flows := m.Serve(1.0, nil, failed)
	for _, f := range flows {
		if f.HG == traffic.Google && f.ISP == as {
			if f.Offnet != 0 {
				t.Errorf("failed facilities still serving: %+v", f)
			}
			if f.Interdomain() <= 0 {
				t.Error("failure must push traffic interdomain")
			}
		}
	}
}

func TestFlowHelpers(t *testing.T) {
	f := Flow{Demand: 10, Offnet: 4, PNI: 2, IXP: 2, UpstreamOffnet: 1, Transit: 1}
	if f.Interdomain() != 6 {
		t.Errorf("Interdomain = %v", f.Interdomain())
	}
	if f.SharedSpill() != 4 {
		t.Errorf("SharedSpill = %v", f.SharedSpill())
	}
}

func TestCovidReportZeroGuards(t *testing.T) {
	r := CovidReport{}
	if r.OffnetGrowth() != 0 || r.InterdomainGrowth() != 0 {
		t.Error("zero baselines must not divide by zero")
	}
}

// TestServeHourMatchesDiurnal: ServeHour is exactly Serve at the diurnal
// multiplier for that wall-clock hour, with hour wrapping mod 24 — the
// identity the temporal engine's steady-state oracle leans on.
func TestServeHourMatchesDiurnal(t *testing.T) {
	_, m := buildModel(t, 3)
	for h := 0; h < 24; h++ {
		want := m.Serve(Diurnal[h], nil, nil)
		got := m.ServeHour(h, nil, nil, false)
		if len(got) != len(want) {
			t.Fatalf("hour %d: %d flows vs %d", h, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("hour %d flow %d differs", h, i)
			}
		}
	}
	// Hours wrap: 25 ≡ 1, negative hours count back from midnight.
	for _, pair := range [][2]int{{25, 1}, {-1, 23}, {48, 0}} {
		a := m.ServeHour(pair[0], nil, nil, false)
		b := m.ServeHour(pair[1], nil, nil, false)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("hour %d and %d should serve identically", pair[0], pair[1])
			}
		}
	}
}

func sumPNI(flows []Flow) float64 {
	var s float64
	for _, f := range flows {
		s += f.PNI
	}
	return s
}

// TestWithCuts pins the cut-model contract: empty cut lists alias the
// receiver, the receiver is never mutated, cuts scale exactly their layer,
// wildcards hit everything they cover, and stacked cuts multiply.
func TestWithCuts(t *testing.T) {
	_, m := buildModel(t, 3)
	if m.WithCuts(nil) != m {
		t.Fatal("empty cut list must return the receiver itself")
	}

	before := m.Serve(1.0, nil, nil)
	cut := m.WithCuts([]Cut{{Layer: LayerPNI, AllHGs: true, Frac: 1}})
	after := m.Serve(1.0, nil, nil)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("WithCuts mutated the pristine model")
		}
	}
	if pni := sumPNI(cut.Serve(1.0, nil, nil)); pni != 0 {
		t.Fatalf("100%% all-HG PNI cut still serves %.3f Gbps over PNI", pni)
	}

	// A half cut on one hypergiant halves exactly that hypergiant's PNI pool.
	for as, v := range m.PNIGbps[traffic.Akamai] {
		half := m.WithCuts([]Cut{{Layer: LayerPNI, HG: traffic.Akamai, Frac: 0.5}})
		if got := half.PNIGbps[traffic.Akamai][as]; math.Abs(got-v/2) > 1e-12 {
			t.Fatalf("half cut: PNI %v -> %v, want %v", v, got, v/2)
		}
		if got := half.IXPPort[traffic.Akamai][as]; got != m.IXPPort[traffic.Akamai][as] {
			t.Fatal("PNI cut leaked into the IXP layer")
		}
		if half.PNIGbps[traffic.Google][as] != m.PNIGbps[traffic.Google][as] {
			t.Fatal("akamai cut leaked onto google")
		}
		break
	}

	// ISP-scoped cuts hit only that ISP; stacked cuts compose multiplicatively.
	for as, v := range m.IXPPort[traffic.Google] {
		if v == 0 {
			continue
		}
		scoped := m.WithCuts([]Cut{
			{Layer: LayerIXP, HG: traffic.Google, ISP: as, Frac: 0.5},
			{Layer: LayerIXP, HG: traffic.Google, ISP: as, Frac: 0.5},
		})
		if got := scoped.IXPPort[traffic.Google][as]; math.Abs(got-v/4) > 1e-12 {
			t.Fatalf("stacked 50%% cuts: %v -> %v, want %v", v, got, v/4)
		}
		for other, ov := range m.IXPPort[traffic.Google] {
			if other != as && scoped.IXPPort[traffic.Google][other] != ov {
				t.Fatal("ISP-scoped cut leaked onto another ISP")
			}
		}
		break
	}

	// Offnet cuts scale both nominal and burst site capacity.
	for as, site := range m.Sites[traffic.Netflix] {
		c := m.WithCuts([]Cut{{Layer: LayerOffnet, HG: traffic.Netflix, Frac: 0.25}})
		got := c.Sites[traffic.Netflix][as]
		if math.Abs(got.NominalGbps-site.NominalGbps*0.75) > 1e-9 ||
			math.Abs(got.BurstGbps-site.BurstGbps*0.75) > 1e-9 {
			t.Fatalf("offnet cut: nominal %v->%v burst %v->%v, want 75%%",
				site.NominalGbps, got.NominalGbps, site.BurstGbps, got.BurstGbps)
		}
		break
	}
}
