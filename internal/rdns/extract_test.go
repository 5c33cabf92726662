package rdns

import (
	"strings"
	"testing"

	"offnetrisk/internal/geo"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/scenario"
)

// referenceExtractMetroDetail is extractMetroDetail as it was before it
// scanned tokens in place: it splits the hostname into labels and parts
// and collects every catalogue code it finds.
func referenceExtractMetroDetail(hostname string) (geo.Metro, string, bool) {
	labels := strings.Split(strings.ToLower(hostname), ".")
	var found []geo.Metro
	for _, label := range labels {
		for _, part := range strings.FieldsFunc(label, func(r rune) bool { return r == '-' || r == '_' }) {
			code := trimDigits(part)
			if len(code) != 3 {
				continue
			}
			if m, ok := geo.MetroByCode(code); ok {
				found = append(found, m)
			}
		}
	}
	if len(found) == 0 {
		return geo.Metro{}, "no_geo_token", false
	}
	// Multiple distinct tokens are ambiguous (HOIHO would score them; we
	// require agreement).
	for _, m := range found[1:] {
		if m.Code != found[0].Code {
			return geo.Metro{}, "ambiguous_token", false
		}
	}
	return found[0], "", true
}

// sameExtraction reports whether the in-place scan and the reference
// agree on a hostname: metro, reason and outcome.
func sameExtraction(t *testing.T, host string) {
	t.Helper()
	m, reason, ok := extractMetroDetail(host)
	wm, wreason, wok := referenceExtractMetroDetail(host)
	if m != wm || reason != wreason || ok != wok {
		t.Fatalf("%q: (%q, %q, %v), reference (%q, %q, %v)", host, m.Code, reason, ok, wm.Code, wreason, wok)
	}
}

// TestExtractMetroMatchesReference compares the in-place scan with the
// reference over every PTR of the tiny and default seed-42 tables (the
// default one skipped under -short), plus their upper-cased forms.
func TestExtractMetroMatchesReference(t *testing.T) {
	cfgs := []inet.Config{inet.TinyConfig(42)}
	if !testing.Short() {
		cfgs = append(cfgs, inet.ConfigFromScenario(scenario.Default(), 42))
	}
	for _, cfg := range cfgs {
		d, err := hypergiant.Deploy(inet.Generate(cfg), hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), 42))
		if err != nil {
			t.Fatal(err)
		}
		ptrs := Synthesize(d, ConfigFromScenario(scenario.Default(), 42))
		located := 0
		for _, host := range ptrs {
			sameExtraction(t, host)
			sameExtraction(t, strings.ToUpper(host))
			if _, ok := ExtractMetro(host); ok {
				located++
			}
		}
		if located == 0 || located == len(ptrs) {
			t.Fatalf("%d of %d PTRs located: the table exercises one outcome only", located, len(ptrs))
		}
	}
}

// TestExtractMetroAllocs: a lower-case hostname, located or not, costs no
// allocation.
func TestExtractMetroAllocs(t *testing.T) {
	for _, host := range []string{
		"cache-google-03.lhr2.as10014.example.net",
		"static-55.as10014.example.net",
		"conflicting.lhr1.cdg2.example.net",
	} {
		if n := testing.AllocsPerRun(50, func() { extractMetroDetail(host) }); n != 0 {
			t.Errorf("%q: %v allocations per extraction, want 0", host, n)
		}
	}
}
