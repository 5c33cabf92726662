package cascade

import (
	"context"
	"testing"

	"offnetrisk/internal/capacity"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/scenario"
)

// monteCarlo runs MonteCarloContext on one worker, failing the test on error.
func monteCarlo(t *testing.T, m *capacity.Model, d *hypergiant.Deployment, k, trials int, seed int64) RiskCurve {
	t.Helper()
	rc, err := MonteCarloContext(context.Background(), m, d, k, trials, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

func TestMonteCarloBasics(t *testing.T) {
	d, m := setup(t, 1)
	rc := monteCarlo(t, m, d, 3, 40, 1)
	if rc.Trials != 40 || len(rc.Curve) != 40 {
		t.Fatalf("trials=%d curve=%d", rc.Trials, len(rc.Curve))
	}
	if rc.MeanAffected <= 0 {
		t.Error("no users affected across trials")
	}
	if rc.MeanHGs < 1 {
		t.Errorf("mean HGs per scenario = %.2f", rc.MeanHGs)
	}
	// Exceedance curve: Users ascending, Prob non-increasing, in (0,1].
	for i := 1; i < len(rc.Curve); i++ {
		if rc.Curve[i].Users < rc.Curve[i-1].Users {
			t.Fatal("curve users not ascending")
		}
		if rc.Curve[i].Prob > rc.Curve[i-1].Prob {
			t.Fatal("curve prob not non-increasing")
		}
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	d, m := setup(t, 2)
	a := monteCarlo(t, m, d, 2, 20, 7)
	b := monteCarlo(t, m, d, 2, 20, 7)
	if a.MeanAffected != b.MeanAffected || a.MeanHGs != b.MeanHGs {
		t.Fatal("Monte Carlo not deterministic for same seed")
	}
}

func TestMonteCarloDegenerate(t *testing.T) {
	d, m := setup(t, 1)
	if rc := monteCarlo(t, m, d, 0, 10, 1); rc.Trials != 0 {
		t.Error("k=0 should return empty curve")
	}
	if rc := monteCarlo(t, m, d, 3, 0, 1); rc.Trials != 0 {
		t.Error("trials=0 should return empty curve")
	}
}

func TestDecolocationReducesCorrelatedRisk(t *testing.T) {
	// The paper's central claim, quantified: random facility failures knock
	// out fewer hypergiants simultaneously when ISPs spread deployments
	// across facilities.
	d, _ := setup(t, 1)
	decol := Decolocate(d)

	// Same servers, same ISPs — only facilities change.
	if len(decol.Servers) != len(d.Servers) {
		t.Fatal("decolocation changed server count")
	}
	for i := range d.Servers {
		if decol.Servers[i].Addr != d.Servers[i].Addr || decol.Servers[i].ISP != d.Servers[i].ISP {
			t.Fatal("decolocation changed identity fields")
		}
	}

	mCol := capacity.Build(d, capacity.ConfigFromScenario(scenario.Default(), 1))
	mDecol := capacity.Build(decol, capacity.ConfigFromScenario(scenario.Default(), 1))
	col := monteCarlo(t, mCol, d, 3, 60, 11)
	dec := monteCarlo(t, mDecol, decol, 3, 60, 11)
	if dec.MeanHGs >= col.MeanHGs {
		t.Errorf("decolocation did not reduce correlated failures: %.2f vs %.2f HGs/scenario",
			dec.MeanHGs, col.MeanHGs)
	}
}

func TestDecolocateSpreadsWherePossible(t *testing.T) {
	d, _ := setup(t, 1)
	decol := Decolocate(d)
	improved := false
	for _, as := range d.HostingISPs() {
		isp := d.World.ISPs[as]
		if len(isp.Facilities) < 2 || len(d.HGsIn(as)) < 2 {
			continue
		}
		_, before := TopFacility(d, as)
		_, after := TopFacility(decol, as)
		if after < before {
			improved = true
		}
		if after > before {
			t.Errorf("AS%d: decolocation increased top-facility HGs %d→%d", as, before, after)
		}
	}
	if !improved {
		t.Error("decolocation never reduced any ISP's top-facility hypergiant count")
	}
}
