package rdns

import (
	"context"
	"testing"

	"offnetrisk/internal/coloc"
	"offnetrisk/internal/geo"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/mlab"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

func TestExtractMetro(t *testing.T) {
	cases := []struct {
		host string
		code string
		ok   bool
	}{
		{"cache-google-03.lhr2.as10014.example.net", "lhr", true},
		{"cache-netflix-01.han1.as10020.example.net", "han", true},
		{"static-55.as10014.example.net", "", false},
		{"", "", false},
		{"router.nyc.example.net", "nyc", true},
		{"core1-NYC3.example.net", "nyc", true}, // case-insensitive, digit-trimmed
		{"conflicting.lhr1.cdg2.example.net", "", false},
		{"agree.lhr1.lhr2.example.net", "lhr", true},
		{"host.zzz9.example.net", "", false}, // unknown code
	}
	for _, tc := range cases {
		m, ok := ExtractMetro(tc.host)
		if ok != tc.ok {
			t.Errorf("ExtractMetro(%q) ok = %v, want %v", tc.host, ok, tc.ok)
			continue
		}
		if ok && m.Code != tc.code {
			t.Errorf("ExtractMetro(%q) = %s, want %s", tc.host, m.Code, tc.code)
		}
	}
}

func TestExtractMetroHostertTrap(t *testing.T) {
	// The paper manually corrected HOIHO interpreting "host" as Hostert,
	// LU. Our extractor requires exactly-3-letter tokens, so "host" must
	// not match anything.
	if _, ok := ExtractMetro("host-12.example.net"); ok {
		t.Error("'host' label must not geolocate")
	}
}

func TestClassify(t *testing.T) {
	lhr, _ := geo.MetroByCode("lhr")
	ltn, _ := geo.MetroByCode("ltn") // Luton: London metro area
	cdg, _ := geo.MetroByCode("cdg")
	cases := []struct {
		name   string
		metros []geo.Metro
		want   ClusterConsistency
	}{
		{"empty", nil, TooFewIdentified},
		{"one", []geo.Metro{lhr}, TooFewIdentified},
		{"same city", []geo.Metro{lhr, lhr, lhr}, SingleCity},
		{"london area", []geo.Metro{lhr, ltn}, SingleMetroArea},
		{"different cities", []geo.Metro{lhr, cdg}, MultipleCities},
	}
	for _, tc := range cases {
		if got := Classify(tc.metros); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestConsistencyStrings(t *testing.T) {
	for c, want := range map[ClusterConsistency]string{
		TooFewIdentified: "too-few-identified",
		SingleCity:       "single-city",
		SingleMetroArea:  "single-metro-area",
		MultipleCities:   "multiple-cities",
	} {
		if c.String() != want {
			t.Errorf("String = %q, want %q", c.String(), want)
		}
	}
}

func TestSynthesizeCoverage(t *testing.T) {
	w := inet.Generate(inet.TinyConfig(1))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigFromScenario(scenario.Default(), 1)
	ptrs := Synthesize(d, cfg)
	frac := float64(len(ptrs)) / float64(len(d.Servers))
	if frac < cfg.CoverageFraction-0.1 || frac > cfg.CoverageFraction+0.1 {
		t.Errorf("PTR coverage = %.2f, want ≈%.2f", frac, cfg.CoverageFraction)
	}
	// Some PTRs carry geohints, some do not.
	var hinted, blind int
	for _, host := range ptrs {
		if _, ok := ExtractMetro(host); ok {
			hinted++
		} else {
			blind++
		}
	}
	if hinted == 0 || blind == 0 {
		t.Errorf("hinted=%d blind=%d; need both failure modes", hinted, blind)
	}
}

func TestEndToEndValidationMatchesPaperShape(t *testing.T) {
	// Full §3.2 validation loop: cluster, attach PTRs, check consistency.
	// The paper finds the overwhelming majority of evaluated clusters are
	// single-city (55/60 at ξ=0.1 plus 3 same-metro ⇒ ~97% consistent).
	w := inet.Generate(inet.TinyConfig(1))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := mlab.MeasureContext(ctx, d, mlab.Sites(163, 1), mlab.ConfigFromScenario(scenario.Default(), 1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := coloc.AnalyzeMixContext(ctx, w, c, []float64{0.1, 0.9}, 1, traffic.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	ptrs := Synthesize(d, ConfigFromScenario(scenario.Default(), 1))

	for _, xi := range []float64{0.1, 0.9} {
		clusters := make(map[string][][]netaddr.Addr)
		for as, isp := range a.PerISP {
			byLabel := make(map[int][]netaddr.Addr)
			ms := c.ByISP[as]
			for i, l := range isp.PerXi[xi].Labels {
				if l < 0 {
					continue
				}
				byLabel[l] = append(byLabel[l], ms[i].Target.Addr)
			}
			var list [][]netaddr.Addr
			for _, members := range byLabel {
				list = append(list, members)
			}
			clusters[string(rune(as))] = list
		}
		rep := Validate(ptrs, clusters, xi)
		if rep.ClustersEvaluated == 0 {
			t.Fatalf("ξ=%v: no clusters evaluated", xi)
		}
		if acc := rep.Accuracy(); acc < 0.85 {
			t.Errorf("ξ=%v: validation accuracy %.2f, paper ≈0.93–0.97", xi, acc)
		}
		if rep.SingleCity < rep.MultipleCities {
			t.Errorf("ξ=%v: single-city (%d) should dominate multi-city (%d)",
				xi, rep.SingleCity, rep.MultipleCities)
		}
	}
}

func TestAccuracyEmpty(t *testing.T) {
	if (ValidationReport{}).Accuracy() != 0 {
		t.Error("empty report accuracy should be 0")
	}
}

// deployForRDNS builds a deployment for PTR-based tests.
func deployForRDNS(t *testing.T, seed int64) *hypergiant.Deployment {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}
