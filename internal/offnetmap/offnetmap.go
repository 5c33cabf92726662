// Package offnetmap implements the offnet-discovery methodology of §2.2: it
// classifies TLS scan records as offnet servers of Google, Netflix, Meta, or
// Akamai when an address announced by a non-hypergiant AS presents a
// hypergiant certificate.
//
// Two rule sets are provided. Rules2021 reproduces the original (Gigis et
// al. 2021) methodology: ownership by the Organization entry of the Subject
// Name, plus names exactly matching hypergiant onnet domains. Rules2023
// reproduces this paper's updates: Google dropped the Organization entry, so
// the CN is matched against *.googlevideo.com (with an issuer check); Meta
// moved to per-site names, so the *.fbcdn.net pattern is matched instead of
// exact onnet names.
package offnetmap

import (
	"fmt"
	"slices"
	"sort"

	"offnetrisk/internal/cert"
	"offnetrisk/internal/chaos"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/scan"
	"offnetrisk/internal/traffic"
)

// The classification step of the TLS-scan pipeline lives here, so the
// "scan." metric namespace is shared between the two packages.
var mCertsClassified = obs.NewCounter("scan.certs_classified",
	"scan records classified against the offnet inference rules")

// fClassify accounts the §2.2 discovery funnel: every scan record enters,
// records without an IP-to-AS mapping hit are dropped as unrouted, records in
// hypergiant-announced space are onnet (not offnet candidates), and records
// whose certificate matches no rule drop as no_cert_match; the remainder are
// inferred offnets.
var (
	fClassify         = obs.NewFunnel("offnetmap.classify", "TLS scan records entering offnet inference vs. classified as offnets")
	fClassifyUnrouted = fClassify.Reason("unrouted")
	fClassifyOnnet    = fClassify.Reason("onnet_space")
	fClassifyNoMatch  = fClassify.Reason("no_cert_match")
)

// Rule decides whether a certificate belongs to a hypergiant.
type Rule struct {
	HG traffic.HG
	// ID names the rule in provenance records ("google-2023"). Rules carried
	// unchanged across methodology epochs keep their original vintage ID.
	ID string
	// Orgs: certificate Subject Organization entries owned by the
	// hypergiant. Empty disables the organization check.
	Orgs []string
	// ExactNames: names that must match a certificate name exactly (the
	// 2021 "names observed on onnet servers" check).
	ExactNames []string
	// Patterns: wildcard name patterns (the 2023 updates).
	Patterns []string
	// RequireIssuer, when non-empty, additionally requires the issuer
	// organization to match one of these ("passes the other checks from the
	// 2021 methodology").
	RequireIssuer []string
}

// MatchInfo records which part of a rule a certificate satisfied — the
// cert-matching step of the evidence chain behind every Table 1 cell.
type MatchInfo struct {
	RuleID string
	// Via is the check that matched: "org", "exact_name", or "pattern".
	Via string
	// Name is the certificate field that matched: the Subject Organization
	// for "org", the matching name otherwise.
	Name string
	// Issuer is the certificate issuer when the rule required one.
	Issuer string
}

// MatchDetail reports whether the certificate satisfies the rule and, when it
// does, which check matched. The certificate's names are its CN (when
// non-empty) followed by its SANs, read in place: an exact-name match
// reports the last matching name, a pattern match the first name that
// matches any pattern.
func (r Rule) MatchDetail(c cert.Certificate) (MatchInfo, bool) {
	info := MatchInfo{RuleID: r.ID}
	for _, org := range r.Orgs {
		if c.SubjectOrg == org {
			info.Via, info.Name = "org", c.SubjectOrg
		}
	}
	if info.Via == "" && len(r.ExactNames) > 0 {
		if c.SubjectCN != "" && slices.Contains(r.ExactNames, c.SubjectCN) {
			info.Via, info.Name = "exact_name", c.SubjectCN
		}
		for _, n := range c.DNSNames {
			if slices.Contains(r.ExactNames, n) {
				info.Via, info.Name = "exact_name", n
			}
		}
	}
	if info.Via == "" {
		if n, ok := c.FirstNameMatching(r.Patterns); ok {
			info.Via, info.Name = "pattern", n
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

// Matches reports whether the certificate satisfies the rule.
func (r Rule) Matches(c cert.Certificate) bool {
	_, ok := r.MatchDetail(c)
	return ok
}

// Rules2021 returns the original methodology's fingerprints.
func Rules2021() []Rule {
	return []Rule{
		{
			HG:         traffic.Google,
			ID:         "google-2021",
			Orgs:       []string{"Google LLC"},
			ExactNames: []string{"www.google.com", "youtube.com", "ggc.google.com"},
		},
		{
			HG:         traffic.Netflix,
			ID:         "netflix-2021",
			Orgs:       []string{"Netflix, Inc."},
			ExactNames: []string{"*.nflxvideo.net"},
		},
		{
			HG:         traffic.Meta,
			ID:         "meta-2021",
			Orgs:       []string{"Facebook, Inc."},
			ExactNames: []string{"*.fbcdn.net", "*.facebook.com"},
		},
		{
			HG:         traffic.Akamai,
			ID:         "akamai-2021",
			Orgs:       []string{"Akamai Technologies, Inc."},
			ExactNames: []string{"a248.e.akamai.net"},
		},
	}
}

// Rules2023 returns the updated methodology: "For Google, instead of
// inspecting the Organization subfield ... we use the CN field [matching]
// *.googlevideo.com"; for Meta "we check for the pattern *.fbcdn.net".
func Rules2023() []Rule {
	rules := Rules2021()
	for i := range rules {
		switch rules[i].HG {
		case traffic.Google:
			rules[i] = Rule{
				HG:            traffic.Google,
				ID:            "google-2023",
				Patterns:      []string{"*.googlevideo.com"},
				RequireIssuer: []string{"Google Trust Services LLC"},
			}
		case traffic.Meta:
			rules[i] = Rule{
				HG:       traffic.Meta,
				ID:       "meta-2023",
				Orgs:     []string{"Facebook, Inc.", "Meta Platforms, Inc."},
				Patterns: []string{"*.fbcdn.net"},
			}
		}
	}
	return rules
}

// Offnet is one inferred offnet server.
type Offnet struct {
	Addr netaddr.Addr
	HG   traffic.HG
	ISP  inet.ASN
}

// Result is the outcome of running the methodology over a scan.
type Result struct {
	Offnets []Offnet
	// ISPs maps each hypergiant to the set of ASes hosting its offnets —
	// the quantity Table 1 counts.
	ISPs map[traffic.HG]map[inet.ASN]bool
}

// ISPCount returns the number of ISPs hosting the hypergiant's offnets.
func (res *Result) ISPCount(hg traffic.HG) int { return len(res.ISPs[hg]) }

// HostingISPs returns every AS hosting at least one inferred offnet,
// ascending.
func (res *Result) HostingISPs() []inet.ASN {
	set := make(map[inet.ASN]bool)
	for _, m := range res.ISPs {
		for as := range m {
			set[as] = true
		}
	}
	out := make([]inet.ASN, 0, len(set))
	for as := range set {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddrsOf returns the inferred offnet addresses of the hypergiant, ascending.
func (res *Result) AddrsOf(hg traffic.HG) []netaddr.Addr {
	var out []netaddr.Addr
	for _, o := range res.Offnets {
		if o.HG == hg {
			out = append(out, o.Addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Infer runs the methodology: for each scan record, if the certificate
// matches a hypergiant rule and the address is announced by an AS other than
// a hypergiant's own, the address is an offnet of that hypergiant hosted in
// that AS. Unrouted addresses are skipped (the real pipeline requires an
// IP-to-AS mapping hit).
func Infer(w *inet.World, records []scan.Record, rules []Rule) *Result {
	return InferChaos(w, records, rules, nil)
}

// InferChaos is Infer with fault injection: records whose certificate fetch
// fails or arrives mangled are dropped before classification, accounted as
// chaos_fetch_failed / chaos_malformed in the classify funnel. Faults are
// keyed by address only, so every classification pass over the same scan
// (both rule epochs and the stale-rule ablation) loses the same records.
func InferChaos(w *inet.World, records []scan.Record, rules []Rule, inj *chaos.Injector) *Result {
	return InferLineage(w, records, rules, inj, "")
}

// InferLineage is InferChaos with a pass label for provenance: Table 1 runs
// the same scan through three rule passes ("2021", "2023", "stale-2021"), and
// the label keeps their lineage records apart. Kept decisions group by
// (hypergiant, ISP, pass) — one sampling cell per Table 1 cell, so every
// populated cell retains at least one full evidence chain.
func InferLineage(w *inet.World, records []scan.Record, rules []Rule, inj *chaos.Injector, pass string) *Result {
	mCertsClassified.Add(int64(len(records)))
	var cFetchFail, cMangled *obs.Counter
	if inj.Enabled() {
		cFetchFail = fClassify.Reason("chaos_fetch_failed")
		cMangled = fClassify.Reason("chaos_malformed")
	}
	lr := obs.ActiveLineage()
	dropGroup := func(reason string) string { return "pass=" + pass + "|reason=" + reason }
	res := &Result{ISPs: make(map[traffic.HG]map[inet.ASN]bool)}
	for _, rule := range rules {
		if res.ISPs[rule.HG] == nil {
			res.ISPs[rule.HG] = make(map[inet.ASN]bool)
		}
	}
	fClassify.In(int64(len(records)))
	for _, rec := range records {
		if inj.CertFetchFailed(int64(rec.Addr)) {
			cFetchFail.Inc()
			inj.CertsFailed.Inc()
			if lr != nil {
				lr.Record(fClassify.Name(), dropGroup("chaos_fetch_failed"), rec.Addr.String(),
					obs.LineageDropped, "chaos_fetch_failed", func() []obs.LineageKV {
						return []obs.LineageKV{{K: "pass", V: pass}}
					})
			}
			continue
		}
		if inj.CertMangled(int64(rec.Addr)) {
			cMangled.Inc()
			inj.CertsMangled.Inc()
			if lr != nil {
				lr.Record(fClassify.Name(), dropGroup("chaos_malformed"), rec.Addr.String(),
					obs.LineageDropped, "chaos_malformed", func() []obs.LineageKV {
						return []obs.LineageKV{{K: "pass", V: pass}}
					})
			}
			continue
		}
		as, ok := w.OwnerOf(rec.Addr)
		if !ok {
			fClassifyUnrouted.Inc()
			if lr != nil {
				lr.Record(fClassify.Name(), dropGroup("unrouted"), rec.Addr.String(),
					obs.LineageDropped, "unrouted", func() []obs.LineageKV {
						return []obs.LineageKV{
							{K: "pass", V: pass},
							{K: "ip_to_as", V: "miss"},
						}
					})
			}
			continue
		}
		owner, ok := w.ISPs[as]
		if !ok || owner.Tier == inet.TierContent {
			// Hypergiant-announced space: onnet, not offnet.
			fClassifyOnnet.Inc()
			if lr != nil {
				lr.Record(fClassify.Name(), dropGroup("onnet_space"), rec.Addr.String(),
					obs.LineageDropped, "onnet_space", func() []obs.LineageKV {
						return []obs.LineageKV{
							{K: "pass", V: pass},
							{K: "routed_as", V: fmt.Sprint(as)},
							{K: "as_tier", V: "content"},
						}
					})
			}
			continue
		}
		matched := false
		for _, rule := range rules {
			info, ok := rule.MatchDetail(rec.Cert)
			if !ok {
				continue
			}
			res.Offnets = append(res.Offnets, Offnet{Addr: rec.Addr, HG: rule.HG, ISP: as})
			res.ISPs[rule.HG][as] = true
			matched = true
			if lr != nil {
				hg, asn := rule.HG, as
				lr.Record(fClassify.Name(),
					fmt.Sprintf("hg=%s|isp=%d|pass=%s", hg, asn, pass),
					rec.Addr.String(), obs.LineageKept, "offnet", func() []obs.LineageKV {
						ev := []obs.LineageKV{
							{K: "pass", V: pass},
							{K: "routed_as", V: fmt.Sprint(asn)},
							{K: "hg", V: hg.String()},
							{K: "rule_id", V: info.RuleID},
							{K: "match_via", V: info.Via},
							{K: "match_name", V: info.Name},
							{K: "cert_fingerprint", V: rec.Cert.Fingerprint()},
						}
						if info.Issuer != "" {
							ev = append(ev, obs.LineageKV{K: "issuer", V: info.Issuer})
						}
						return ev
					})
			}
			break
		}
		if matched {
			fClassify.Out(1)
		} else {
			fClassifyNoMatch.Inc()
			if lr != nil {
				lr.Record(fClassify.Name(), dropGroup("no_cert_match"), rec.Addr.String(),
					obs.LineageDropped, "no_cert_match", func() []obs.LineageKV {
						return []obs.LineageKV{
							{K: "pass", V: pass},
							{K: "routed_as", V: fmt.Sprint(as)},
							{K: "cert_fingerprint", V: rec.Cert.Fingerprint()},
						}
					})
			}
		}
	}
	return res
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	HG       traffic.HG
	ISPs2021 int
	ISPs2023 int
}

// GrowthPct returns the 2021→2023 growth in percent (Table 1 annotates
// +23.2% etc.).
func (r Table1Row) GrowthPct() float64 {
	if r.ISPs2021 == 0 {
		return 0
	}
	return (float64(r.ISPs2023)/float64(r.ISPs2021) - 1) * 100
}

// Table1 assembles the table from the two epochs' inference results, in the
// paper's row order.
func Table1(res2021, res2023 *Result) []Table1Row {
	rows := make([]Table1Row, 0, len(traffic.All))
	for _, hg := range traffic.All {
		rows = append(rows, Table1Row{
			HG:       hg,
			ISPs2021: res2021.ISPCount(hg),
			ISPs2023: res2023.ISPCount(hg),
		})
	}
	return rows
}
