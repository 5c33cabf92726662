// Package rdns reproduces the paper's clustering validation (§3.2): reverse
// DNS hostnames are synthesized for offnet addresses following operator
// naming conventions (Rapid7 Project Sonar stands in for the PTR corpus),
// locations are extracted from the hostnames with a HOIHO-style geohint
// engine, and clusters are checked for location consistency — counting
// clusters whose identified hostnames are in a single city, a single
// metropolitan area, or spread across cities.
//
// The synthesis deliberately includes the real corpus's failure modes:
// addresses without PTRs, hostnames without location tokens, and stale
// hostnames naming the wrong city ("stale/incorrect locations in
// hostnames").
package rdns

import (
	"fmt"
	"strings"

	"offnetrisk/internal/geo"
	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
)

// fMetro accounts PTR geohint extraction during cluster validation: cluster
// members considered vs. located to a metro.
var fMetro = obs.NewFunnel("rdns.metro",
	"cluster members entering PTR geohint extraction vs. located to a metro")

// Config controls PTR synthesis.
type Config struct {
	Seed int64
	// CoverageFraction is the probability an address has a PTR record at
	// all ("many IP addresses do not have reverse DNS entries").
	CoverageFraction float64
	// GeoHintFraction is the probability a PTR embeds a location token
	// ("many reverse DNS entries do not have obvious location information").
	GeoHintFraction float64
	// StaleFraction is the probability an embedded location token names
	// the wrong metro.
	StaleFraction float64
}

// PTRTable maps addresses to hostnames.
type PTRTable map[netaddr.Addr]string

// Synthesize builds PTR records for every offnet server in the deployment.
// Naming follows common operator conventions, using the facility's metro
// code as the location token (e.g. cache-google-03.lhr2.as10014.example.net).
func Synthesize(d *hypergiant.Deployment, cfg Config) PTRTable {
	if cfg.CoverageFraction <= 0 {
		cfg = ConfigFromScenario(scenario.Default(), cfg.Seed)
	}
	r := rngutil.New(cfg.Seed ^ 0x9d45)
	out := make(PTRTable)
	for i, s := range d.Servers {
		if !rngutil.Bernoulli(r, cfg.CoverageFraction) {
			continue
		}
		f := d.World.Facilities[s.Facility]
		metro := f.Metro.Code
		if rngutil.Bernoulli(r, cfg.StaleFraction) {
			metro = geo.Metros[r.Intn(len(geo.Metros))].Code
		}
		var host string
		if rngutil.Bernoulli(r, cfg.GeoHintFraction) {
			host = fmt.Sprintf("cache-%s-%02d.%s%d.as%d.example.net",
				strings.ToLower(s.HG.String()), i%97, metro, int(f.ID)%9+1, s.ISP)
		} else {
			// No location token: generic management naming.
			host = fmt.Sprintf("static-%d.as%d.example.net", i, s.ISP)
		}
		out[s.Addr] = host
	}
	return out
}

// ExtractMetro is the HOIHO-style geohint extractor: it scans hostname
// labels for metro codes from the catalogue. A token matches when a label
// equals the code or starts with the code followed by digits (lhr, lhr2).
// It returns false when no token (or an ambiguous set of tokens) is found.
func ExtractMetro(hostname string) (geo.Metro, bool) {
	m, _, ok := extractMetroDetail(hostname)
	return m, ok
}

// extractMetroDetail is ExtractMetro with the failure reason spelled out for
// lineage records: "no_geo_token" when no catalogue code appears in any
// label, "ambiguous_token" when distinct codes disagree. It walks the
// tokens between '.', '-' and '_' in place, keeping only the first code
// and whether a later one disagrees, so a lower-case hostname costs no
// allocation.
func extractMetroDetail(hostname string) (geo.Metro, string, bool) {
	host := strings.ToLower(hostname)
	var first geo.Metro
	found, ambiguous := false, false
	for start := 0; start < len(host); {
		end := start
		for end < len(host) && host[end] != '.' && host[end] != '-' && host[end] != '_' {
			end++
		}
		if code := trimDigits(host[start:end]); len(code) == 3 {
			if m, ok := geo.MetroByCode(code); ok {
				switch {
				case !found:
					first, found = m, true
				case m.Code != first.Code:
					// Multiple distinct tokens are ambiguous (HOIHO would
					// score them; we require agreement).
					ambiguous = true
				}
			}
		}
		start = end + 1
	}
	switch {
	case !found:
		return geo.Metro{}, "no_geo_token", false
	case ambiguous:
		return geo.Metro{}, "ambiguous_token", false
	}
	return first, "", true
}

func trimDigits(s string) string {
	end := len(s)
	for end > 0 && s[end-1] >= '0' && s[end-1] <= '9' {
		end--
	}
	return s[:end]
}

// ClusterConsistency classifies one cluster's identified locations the way
// the paper reports validation: single city, single metropolitan area
// (different codes, same city-scale distance), or multiple cities.
type ClusterConsistency int

// Consistency classes (§3.2 validation).
const (
	TooFewIdentified ClusterConsistency = iota // fewer than 2 located hostnames
	SingleCity
	SingleMetroArea // distinct codes within metroAreaKm of each other
	MultipleCities
)

// String implements fmt.Stringer.
func (c ClusterConsistency) String() string {
	switch c {
	case TooFewIdentified:
		return "too-few-identified"
	case SingleCity:
		return "single-city"
	case SingleMetroArea:
		return "single-metro-area"
	case MultipleCities:
		return "multiple-cities"
	default:
		return "unknown"
	}
}

// metroAreaKm bounds "multiple locations within a single metropolitan area
// (i.e., suburbs of London and Paris)".
const metroAreaKm = 60.0

// Classify determines the consistency class for a set of extracted metros.
func Classify(metros []geo.Metro) ClusterConsistency {
	if len(metros) < 2 {
		return TooFewIdentified
	}
	sameCity := true
	withinArea := true
	for _, m := range metros[1:] {
		if m.Code != metros[0].Code {
			sameCity = false
		}
		if geo.DistanceKm(m.Loc, metros[0].Loc) > metroAreaKm {
			withinArea = false
		}
	}
	switch {
	case sameCity:
		return SingleCity
	case withinArea:
		return SingleMetroArea
	default:
		return MultipleCities
	}
}

// ValidationReport aggregates consistency over all clusters of an analysis,
// reproducing the §3.2 validation numbers (e.g. ξ=0.1: 60 clusters with ≥2
// identified hostnames, of which 55 single-city, 3 single-metro, 2
// multi-city).
type ValidationReport struct {
	Xi                float64
	ClustersEvaluated int // clusters with ≥2 located hostnames
	SingleCity        int
	SingleMetroArea   int
	MultipleCities    int
}

// Validate runs the consistency check for every cluster in every analyzed
// ISP at the given ξ. labelsOf returns the flat labels and the measured
// servers for each ISP (the shape the coloc analysis provides).
func Validate(ptrs PTRTable, clusters map[string][][]netaddr.Addr, xi float64) ValidationReport {
	lr := obs.ActiveLineage()
	rep := ValidationReport{Xi: xi}
	for ispKey, ispClusters := range clusters {
		var group string
		if lr != nil {
			group = fmt.Sprintf("isp=%s|xi=%g", ispKey, xi)
		}
		for _, members := range ispClusters {
			var located []geo.Metro
			for _, addr := range members {
				addr := addr
				host, ok := ptrs[addr]
				fMetro.In(1)
				if !ok {
					fMetro.Drop("no_ptr", 1)
					if lr != nil {
						lr.Record(fMetro.Name(), group, addr.String(), obs.LineageDropped, "no_ptr", nil)
					}
					continue
				}
				m, reason, ok := extractMetroDetail(host)
				if !ok {
					fMetro.Drop(reason, 1)
					if lr != nil {
						lr.Record(fMetro.Name(), group, addr.String(), obs.LineageDropped, reason,
							func() []obs.LineageKV {
								return []obs.LineageKV{{K: "hostname", V: host}}
							})
					}
					continue
				}
				fMetro.Out(1)
				if lr != nil {
					lr.Record(fMetro.Name(), group, addr.String(), obs.LineageKept, "located",
						func() []obs.LineageKV {
							return []obs.LineageKV{
								{K: "hostname", V: host},
								{K: "metro", V: m.Code},
							}
						})
				}
				located = append(located, m)
			}
			switch Classify(located) {
			case SingleCity:
				rep.ClustersEvaluated++
				rep.SingleCity++
			case SingleMetroArea:
				rep.ClustersEvaluated++
				rep.SingleMetroArea++
			case MultipleCities:
				rep.ClustersEvaluated++
				rep.MultipleCities++
			}
		}
	}
	return rep
}

// Accuracy returns the fraction of evaluated clusters that are location
// consistent (single city or single metro area).
func (r ValidationReport) Accuracy() float64 {
	if r.ClustersEvaluated == 0 {
		return 0
	}
	return float64(r.SingleCity+r.SingleMetroArea) / float64(r.ClustersEvaluated)
}
