package offnetmap

import (
	"testing"

	"offnetrisk/internal/cert"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/scan"
	"offnetrisk/internal/scenario"
)

// referenceMatchDetail is Rule.MatchDetail as it was before it read the
// certificate's names in place, kept verbatim as the oracle: it lists the
// names with cert.Certificate.Names for the exact-name check, asks
// AnyNameMatches whether a pattern matches, and lists them again to find
// which name did. AnyNameMatches now wraps cert.FirstNameMatching, which
// MatchDetail calls too; cert's own tests pin it.
func referenceMatchDetail(r Rule, c cert.Certificate) (MatchInfo, bool) {
	info := MatchInfo{RuleID: r.ID}
	for _, org := range r.Orgs {
		if c.SubjectOrg == org {
			info.Via, info.Name = "org", c.SubjectOrg
		}
	}
	if info.Via == "" {
		for _, n := range c.Names() {
			for _, e := range r.ExactNames {
				if n == e {
					info.Via, info.Name = "exact_name", n
				}
			}
		}
	}
	if info.Via == "" && len(r.Patterns) > 0 && c.AnyNameMatches(r.Patterns) {
		info.Via = "pattern"
	patternName:
		for _, n := range c.Names() {
			for _, p := range r.Patterns {
				if cert.MatchPattern(p, n) {
					info.Name = n
					break patternName
				}
			}
		}
	}
	if info.Via == "" {
		return MatchInfo{}, false
	}
	if len(r.RequireIssuer) > 0 {
		ok := false
		for _, iss := range r.RequireIssuer {
			if c.Issuer == iss {
				ok = true
			}
		}
		if !ok {
			return MatchInfo{}, false
		}
		info.Issuer = c.Issuer
	}
	return info, true
}

// allRules lists every rule of both methodology epochs.
func allRules() []Rule {
	return append(Rules2021(), Rules2023()...)
}

// matchesReferenceDetail fails the test unless MatchDetail and the
// reference agree on c for every rule, and tallies the matches by check.
func matchesReferenceDetail(t *testing.T, c cert.Certificate, via map[string]int) {
	t.Helper()
	for _, r := range allRules() {
		got, ok := r.MatchDetail(c)
		want, wantOK := referenceMatchDetail(r, c)
		if got != want || ok != wantOK {
			t.Fatalf("rule %s on %+v: MatchDetail = %+v, %v; reference %+v, %v", r.ID, c, got, ok, want, wantOK)
		}
		if ok {
			via[got.Via]++
		}
	}
}

// TestMatchDetailMatchesReference compares MatchDetail with the reference
// over every record of the tiny and default seed-42 scans of both epochs,
// under every rule of both epochs, and over hand-made certificates that put
// several matching names in one certificate, empty names, and a CN that
// only a SAN after it shares a match with.
func TestMatchDetailMatchesReference(t *testing.T) {
	scales := []struct {
		name string
		cfg  inet.Config
	}{
		{"tiny", inet.TinyConfig(42)},
		{"default", inet.ConfigFromScenario(scenario.Default(), 42)},
	}
	for _, sc := range scales {
		t.Run(sc.name, func(t *testing.T) {
			if sc.name == "default" && testing.Short() {
				t.Skip("scans the default world")
			}
			via := make(map[string]int)
			records := 0
			for _, epoch := range []hypergiant.Epoch{hypergiant.Epoch2021, hypergiant.Epoch2023} {
				d, err := hypergiant.Deploy(inet.Generate(sc.cfg), epoch, hypergiant.DeployConfigFromScenario(scenario.Default(), 42))
				if err != nil {
					t.Fatal(err)
				}
				recs, err := scan.Simulate(d, scan.ConfigFromScenario(scenario.Default(), 42))
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range recs {
					matchesReferenceDetail(t, rec.Cert, via)
				}
				records += len(recs)
			}
			// No scanned certificate matches by exact name: the 2021
			// rules' organizations claim each one first. The certificates
			// below cover that check.
			if via["org"] == 0 || via["pattern"] == 0 {
				t.Fatalf("matches by check over %d records: %v; want org and pattern matches", records, via)
			}
			t.Logf("%d records, matches by check %v", records, via)
		})
	}
	via := make(map[string]int)
	for _, c := range []cert.Certificate{
		{},
		{SubjectCN: "www.google.com", DNSNames: []string{"youtube.com", "", "ggc.google.com"}},
		{DNSNames: []string{"", "*.fbcdn.net", "a.b.fbcdn.net", "c.fbcdn.net"}},
		{SubjectCN: "example.org", DNSNames: []string{"x.googlevideo.com", "y.googlevideo.com"}, Issuer: "Google Trust Services LLC"},
		{SubjectCN: "X.GoogleVideo.com", Issuer: "Google Trust Services LLC"},
		{SubjectOrg: "Facebook, Inc.", SubjectCN: "*.fbcdn.net", DNSNames: []string{"a.fbcdn.net"}},
		{SubjectOrg: "Netflix, Inc.", DNSNames: []string{"*.nflxvideo.net"}},
	} {
		matchesReferenceDetail(t, c, via)
	}
	if via["org"] == 0 || via["exact_name"] == 0 || via["pattern"] == 0 {
		t.Fatalf("hand-made certificates match by check %v; want every check", via)
	}
}

// TestMatchDetailZeroAlloc guards the in-place name reads: MatchDetail
// allocates nothing on certificates that match by organization, by exact
// name, by pattern (with and without an issuer check), or not at all.
func TestMatchDetailZeroAlloc(t *testing.T) {
	google21, google23, meta23 := Rules2021()[0], Rules2023()[0], Rules2023()[2]
	cases := []struct {
		name string
		rule Rule
		c    cert.Certificate
		via  string
	}{
		{"org", google21, cert.Certificate{SubjectOrg: "Google LLC", SubjectCN: "a.example.org", DNSNames: []string{"b.example.org"}}, "org"},
		{"exact_name", google21, cert.Certificate{SubjectCN: "a.example.org", DNSNames: []string{"b.example.org", "www.google.com"}}, "exact_name"},
		{"pattern", meta23, cert.Certificate{SubjectCN: "a.example.org", DNSNames: []string{"*.fhan14-4.fna.fbcdn.net"}}, "pattern"},
		{"pattern-issuer", google23, cert.Certificate{SubjectCN: "*.googlevideo.com", Issuer: "Google Trust Services LLC"}, "pattern"},
		{"none", meta23, cert.Certificate{SubjectCN: "www.example.org", DNSNames: []string{"example.org", "cdn.example.net"}}, ""},
	}
	for _, tc := range cases {
		info, ok := tc.rule.MatchDetail(tc.c)
		if ok != (tc.via != "") || info.Via != tc.via {
			t.Fatalf("%s: MatchDetail = %+v, %v; want a match via %q", tc.name, info, ok, tc.via)
		}
		if n := testing.AllocsPerRun(100, func() { tc.rule.MatchDetail(tc.c) }); n != 0 {
			t.Errorf("%s: MatchDetail allocates %v times per call, want 0", tc.name, n)
		}
	}
}
