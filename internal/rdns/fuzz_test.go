package rdns

import (
	"strings"
	"testing"

	"offnetrisk/internal/geo"
)

// FuzzExtractMetro checks the PTR geohint extractor is total, canonical
// (every extracted metro exists in the catalogue under its own code), and
// case-insensitive — the properties the atlas majority vote relies on —
// and that its in-place scan agrees with the split-based reference.
func FuzzExtractMetro(f *testing.F) {
	f.Add("cache-google-03.lhr2.as10014.example.net")
	f.Add("a23-45.deploy.akamaitechnologies.com")
	f.Add("lhr2.ams1.double-metro.example.net")
	f.Add("")
	f.Add("...")
	f.Add("LHR-nyc_fra3")
	f.Add("no-geohint-here.example")
	f.Fuzz(func(t *testing.T, hostname string) {
		sameExtraction(t, hostname)
		m, ok := ExtractMetro(hostname)
		if !ok {
			if m.Code != "" {
				t.Fatalf("miss returned a metro: %+v", m)
			}
			return
		}
		if len(m.Code) != 3 {
			t.Fatalf("metro code %q not three letters", m.Code)
		}
		got, exists := geo.MetroByCode(m.Code)
		if !exists || got.Code != m.Code {
			t.Fatalf("extracted metro %q not in the catalogue", m.Code)
		}
		um, uok := ExtractMetro(strings.ToUpper(hostname))
		if !uok || um.Code != m.Code {
			t.Fatalf("case sensitivity: %q → %q, upper-cased → (%q, %v)",
				hostname, m.Code, um.Code, uok)
		}
	})
}

// FuzzLearnedExtract checks a trained HOIHO extractor never panics on
// arbitrary hostnames and only ever returns catalogue metros.
func FuzzLearnedExtract(f *testing.F) {
	l := Learn([]TrainingSample{
		{Hostname: "cache-a.lhr1.example.net", Metro: "lhr"},
		{Hostname: "cache-b.lhr2.example.net", Metro: "lhr"},
		{Hostname: "cache-c.nyc1.example.net", Metro: "nyc"},
		{Hostname: "edge-1.fra3.other.org", Metro: "fra"},
		{Hostname: "edge-2.fra1.other.org", Metro: "fra"},
	}, 2, 0.5)
	f.Add("cache-z.lhr9.example.net")
	f.Add("edge-9.fra2.other.org")
	f.Add("unrelated.host.test")
	f.Add("")
	f.Add(".-.")
	f.Fuzz(func(t *testing.T, hostname string) {
		m, ok := l.Extract(hostname)
		if !ok {
			return
		}
		if _, exists := geo.MetroByCode(m.Code); !exists {
			t.Fatalf("learned extractor produced unknown metro %q from %q", m.Code, hostname)
		}
		if m2, ok2 := l.Extract(hostname); !ok2 || m2.Code != m.Code {
			t.Fatalf("learned extractor unstable on %q", hostname)
		}
	})
}
