package offnetmap

import (
	"testing"

	"offnetrisk/internal/cert"
)

// FuzzRuleMatches drives arbitrary certificate fields through both rule
// epochs: Matches must be total, a rule with a RequireIssuer list must
// never accept a certificate whose issuer is outside it — the check that
// separates the 2021 methodology from lookalike certificates — and
// MatchDetail must agree with referenceMatchDetail.
func FuzzRuleMatches(f *testing.F) {
	f.Add("Google LLC", "mirror.example.com", "*.c.example.net", "Google Trust Services")
	f.Add("", "", "", "")
	f.Add("Netflix Inc", "oca001.example.org", "*.nflxvideo.net", "DigiCert")
	f.Add("evil", "*.fbcdn.net", "fbcdn.net", "Meta Platforms")
	f.Add("Akamai", "a248.e.akamai.net", "*.akamaized.net", "Let's Encrypt")
	rules := append(append([]Rule(nil), Rules2021()...), Rules2023()...)
	f.Fuzz(func(t *testing.T, org, cn, san, issuer string) {
		c := cert.Certificate{SubjectOrg: org, SubjectCN: cn, DNSNames: []string{san}, Issuer: issuer}
		for _, r := range rules {
			got := r.Matches(c)
			if !got || len(r.RequireIssuer) == 0 {
				continue
			}
			ok := false
			for _, want := range r.RequireIssuer {
				if issuer == want {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("rule for %v accepted issuer %q outside its RequireIssuer set %v",
					r.HG, issuer, r.RequireIssuer)
			}
		}
		// Matching must be deterministic for classification replays, and
		// report what the reference reports.
		for _, r := range rules {
			if r.Matches(c) != r.Matches(c) {
				t.Fatalf("rule for %v unstable on %+v", r.HG, c)
			}
			got, ok := r.MatchDetail(c)
			if want, wantOK := referenceMatchDetail(r, c); got != want || ok != wantOK {
				t.Fatalf("rule %s on %+v: MatchDetail = %+v, %v; reference %+v, %v", r.ID, c, got, ok, want, wantOK)
			}
		}
	})
}
