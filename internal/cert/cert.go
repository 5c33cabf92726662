// Package cert models the TLS end-entity certificates the paper's offnet
// discovery inspects. Censys-style scans record, per IP, the certificate's
// Subject Name (Organization and Common Name) and its SubjectAltName DNS
// entries; the 2021 methodology fingerprints hypergiants by Organization and
// by names matching onnet servers, and the 2023 update matches CN patterns
// instead (Google dropped the Organization entry; Meta moved to site-specific
// names like *.fhan14-4.fna.fbcdn.net).
//
// Certificates here are structural records, not DER blobs: the pipelines only
// ever consume the fields below plus a stable fingerprint, so a deterministic
// encoding hashed with SHA-256 preserves everything the methodology needs.
package cert

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
)

// Certificate is the subset of an X.509 end-entity certificate the offnet
// methodology reads.
type Certificate struct {
	// SubjectOrg is the Organization entry of the Subject Name. Empty when
	// the operator omits it (as Google does post-2021).
	SubjectOrg string
	// SubjectCN is the Common Name of the Subject Name.
	SubjectCN string
	// DNSNames are the SubjectAltName dNSName entries.
	DNSNames []string
	// Issuer is the issuing CA's organization, for completeness of the
	// scan record.
	Issuer string
}

// Fingerprint returns the SHA-256 fingerprint of a deterministic encoding of
// the certificate, hex-encoded — the stable identity scan pipelines key on.
func (c Certificate) Fingerprint() string {
	var b strings.Builder
	b.WriteString("org:")
	b.WriteString(c.SubjectOrg)
	b.WriteString("\ncn:")
	b.WriteString(c.SubjectCN)
	for _, n := range c.DNSNames {
		b.WriteString("\nsan:")
		b.WriteString(n)
	}
	b.WriteString("\nissuer:")
	b.WriteString(c.Issuer)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Names returns the CN followed by all SANs; the name set a scanner observes.
func (c Certificate) Names() []string {
	out := make([]string, 0, 1+len(c.DNSNames))
	if c.SubjectCN != "" {
		out = append(out, c.SubjectCN)
	}
	out = append(out, c.DNSNames...)
	return out
}

// MatchPattern reports whether name matches pattern. Patterns are DNS names
// where a leading "*." matches one or more leading labels — the loose
// suffix-style matching the 2023 methodology applies ("we check for the
// pattern *.fbcdn.net", which must catch *.fhan14-4.fna.fbcdn.net).
// Matching is case-insensitive. A pattern without a wildcard requires
// equality.
func MatchPattern(pattern, name string) bool {
	pattern = strings.ToLower(strings.TrimSpace(pattern))
	name = strings.ToLower(strings.TrimSpace(name))
	if pattern == "" || name == "" {
		return false
	}
	if !strings.HasPrefix(pattern, "*.") {
		return pattern == name
	}
	suffix := pattern[1:] // ".fbcdn.net"
	if !strings.HasSuffix(name, suffix) {
		return false
	}
	// At least one label must precede the suffix ("fbcdn.net" itself does
	// not match "*.fbcdn.net").
	head := name[:len(name)-len(suffix)]
	return head != "" && !strings.HasSuffix(head, ".")
}

// AnyNameMatches reports whether any certificate name matches any of the
// patterns.
func (c Certificate) AnyNameMatches(patterns []string) bool {
	_, ok := c.FirstNameMatching(patterns)
	return ok
}

// FirstNameMatching returns the first of the certificate's names, in Names'
// order (the CN when non-empty, then the SANs), that matches any of the
// patterns. It reads the names in place.
func (c Certificate) FirstNameMatching(patterns []string) (string, bool) {
	matches := func(name string) bool {
		for _, p := range patterns {
			if MatchPattern(p, name) {
				return true
			}
		}
		return false
	}
	if c.SubjectCN != "" && matches(c.SubjectCN) {
		return c.SubjectCN, true
	}
	for _, n := range c.DNSNames {
		if matches(n) {
			return n, true
		}
	}
	return "", false
}
