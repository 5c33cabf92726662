package cert

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestFingerprintStable(t *testing.T) {
	c := Certificate{SubjectOrg: "Netflix, Inc.", SubjectCN: "*.nflxvideo.net", Issuer: "DigiCert"}
	if c.Fingerprint() != c.Fingerprint() {
		t.Error("fingerprint not stable")
	}
	d := c
	d.SubjectCN = "*.example.com"
	if c.Fingerprint() == d.Fingerprint() {
		t.Error("different certs share fingerprint")
	}
}

func TestFingerprintFieldSeparation(t *testing.T) {
	// Moving bytes between fields must change the fingerprint (no ambiguous
	// concatenation).
	a := Certificate{SubjectOrg: "ab", SubjectCN: "c"}
	b := Certificate{SubjectOrg: "a", SubjectCN: "bc"}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("field boundary ambiguity in fingerprint encoding")
	}
	c := Certificate{DNSNames: []string{"a", "b"}}
	d := Certificate{DNSNames: []string{"a.b"}}
	if c.Fingerprint() == d.Fingerprint() {
		t.Error("SAN list ambiguity in fingerprint encoding")
	}
}

func TestFingerprintIsHex64(t *testing.T) {
	f := func(org, cn string) bool {
		fp := Certificate{SubjectOrg: org, SubjectCN: cn}.Fingerprint()
		if len(fp) != 64 {
			return false
		}
		return strings.Trim(fp, "0123456789abcdef") == ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"*.googlevideo.com", "r3---sn-abc.googlevideo.com", true},
		{"*.googlevideo.com", "googlevideo.com", false},
		{"*.googlevideo.com", "evil-googlevideo.com", false},
		{"*.googlevideo.com", "a.b.googlevideo.com", true},
		{"*.fbcdn.net", "scontent.fhan14-4.fna.fbcdn.net", true},
		{"*.fbcdn.net", "x.fbhx2-2.fna.fbcdn.net", true},
		{"*.fbcdn.net", "fbcdn.net", false},
		{"*.fbcdn.net", "notfbcdn.net", false},
		{"a248.e.akamai.net", "a248.e.akamai.net", true},
		{"a248.e.akamai.net", "a249.e.akamai.net", false},
		{"*.Nflxvideo.NET", "cache1.ISP.nflxvideo.net", true}, // case-insensitive
		{"", "anything", false},
		{"*.x.com", "", false},
		{"*.x.com", ".x.com", false},
	}
	for _, tc := range cases {
		if got := MatchPattern(tc.pattern, tc.name); got != tc.want {
			t.Errorf("MatchPattern(%q,%q) = %v, want %v", tc.pattern, tc.name, got, tc.want)
		}
	}
}

func TestMatchPatternNeverMatchesBareSuffixProperty(t *testing.T) {
	// For any label sequence, the bare suffix never matches its own wildcard.
	f := func(label string) bool {
		label = strings.Map(func(r rune) rune {
			if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
				return r
			}
			return 'x'
		}, label)
		if label == "" {
			label = "x"
		}
		domain := label + ".example.org"
		return !MatchPattern("*."+domain, domain) && MatchPattern("*."+domain, "h."+domain)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNames(t *testing.T) {
	c := Certificate{SubjectCN: "cn.example", DNSNames: []string{"a.example", "b.example"}}
	names := c.Names()
	if len(names) != 3 || names[0] != "cn.example" {
		t.Errorf("Names = %v", names)
	}
	empty := Certificate{DNSNames: []string{"a.example"}}
	if got := empty.Names(); len(got) != 1 || got[0] != "a.example" {
		t.Errorf("Names without CN = %v", got)
	}
}

func TestAnyNameMatches(t *testing.T) {
	c := Certificate{
		SubjectCN: "*.fhan14-4.fna.fbcdn.net",
		DNSNames:  []string{"*.fhan14-4.fna.fbcdn.net"},
	}
	if !c.AnyNameMatches([]string{"*.fbcdn.net"}) {
		t.Error("Meta site-specific cert should match *.fbcdn.net")
	}
	if c.AnyNameMatches([]string{"*.googlevideo.com"}) {
		t.Error("Meta cert should not match Google pattern")
	}
	if c.AnyNameMatches(nil) {
		t.Error("no patterns should match nothing")
	}
}

// TestFirstNameMatching pins Names' order: the CN when non-empty, then the
// SANs as listed, and the first name matching any pattern wins.
func TestFirstNameMatching(t *testing.T) {
	c := Certificate{
		SubjectCN: "edge.example",
		DNSNames:  []string{"a.nflxvideo.net", "b.fbcdn.net", "c.nflxvideo.net"},
	}
	for _, tc := range []struct {
		cert     Certificate
		patterns []string
		want     string
		ok       bool
	}{
		{c, []string{"*.fbcdn.net", "*.nflxvideo.net"}, "a.nflxvideo.net", true},
		{c, []string{"*.fbcdn.net"}, "b.fbcdn.net", true},
		{c, []string{"*.nflxvideo.net", "edge.example"}, "edge.example", true},
		{c, []string{"*.googlevideo.com"}, "", false},
		{c, nil, "", false},
		{Certificate{DNSNames: []string{"x.fbcdn.net"}}, []string{"*.fbcdn.net"}, "x.fbcdn.net", true},
		{Certificate{SubjectCN: "y.fbcdn.net"}, []string{"*.fbcdn.net"}, "y.fbcdn.net", true},
	} {
		got, ok := tc.cert.FirstNameMatching(tc.patterns)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%+v.FirstNameMatching(%q) = %q, %v; want %q, %v", tc.cert, tc.patterns, got, ok, tc.want, tc.ok)
		}
		if got := tc.cert.AnyNameMatches(tc.patterns); got != tc.ok {
			t.Errorf("%+v.AnyNameMatches(%q) = %v, want %v", tc.cert, tc.patterns, got, tc.ok)
		}
	}
}
