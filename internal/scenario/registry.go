package scenario

import (
	"fmt"
	"sort"
)

// The compiled-in scenario registry. `default` reproduces the previously
// hard-coded world bit for bit; `tiny` and `large` are its topology
// variants (the worlds behind -tiny/-large); the rest are named worlds
// grounded in related work (see PAPERS.md).
//
// Registry entries are constructed once and handed out as deep copies, so
// callers can edit a resolved spec without corrupting the registry.

// DefaultName is the scenario used when nothing is requested.
const DefaultName = "default"

// defaultSpec returns the world the reproduction has always built, in one
// declarative document. A layer's default configuration is its
// ConfigFromScenario applied to this spec (Default).
func defaultSpec() *Spec {
	return &Spec{
		Version:     Version,
		Name:        DefaultName,
		Description: "the paper's synthetic world: four hypergiants, published traffic shares, laptop-scale topology",
		Topology: Topology{
			AccessISPs:      900,
			TransitISPs:     48,
			Backbones:       8,
			IXPs:            36,
			TotalUsers:      3.0e9,
			ZipfExponent:    1.05,
			UsersPerSlash24: 8000,
		},
		Deployment: Deployment{
			PeakMbpsPerUser:      0.3,
			ColocationPropensity: 0.86,
			ResponsiveFraction:   0.955,
			AnycastFraction:      0.007,
			PNICapacityScale:     1.0,
			TransitCoverageScale: 0.8,
			Hypergiants: map[string]HGProfile{
				"google": {
					Coverage2021: 0.62, Coverage2023: 0.62 * 1.232,
					ServerGbps: 9, MaxServersPerISP: 24, LegacySpread: 0.10,
				},
				"netflix": {
					Coverage2021: 0.345, Coverage2023: 0.345 * 1.374,
					ServerGbps: 18, MaxServersPerISP: 10, LegacySpread: 0.08,
				},
				"meta": {
					Coverage2021: 0.36, Coverage2023: 0.36 * 1.169,
					ServerGbps: 10, MaxServersPerISP: 16, LegacySpread: 0.08,
				},
				"akamai": {
					Coverage2021: 0.178, Coverage2023: 0.178,
					ServerGbps: 6, MaxServersPerISP: 30, LegacySpread: 0.45,
				},
			},
		},
		Traffic: Traffic{
			Shares: map[string]float64{
				"google": 0.21, "netflix": 0.09, "meta": 0.15, "akamai": 0.175,
			},
			OffnetFractions: map[string]float64{
				"google": 0.80, "netflix": 0.95, "meta": 0.86, "akamai": 0.75,
			},
			OffnetProvisioning: 0.92,
			BurstFactor:        1.2,
		},
		Measurement: Measurement{
			PingSites: 163, PingProbes: 8, ProbeLoss: 0.01, MinSites: 100,
			TracerouteVMs: 112, TargetsPerISP: 4, SilentRouterFraction: 0.15,
			ScanBackgroundPerISP: 2.5, ScanOnnetPerHG: 20,
			RDNSCoverage: 0.45, RDNSGeoHint: 0.55, RDNSStale: 0.01,
			SessionsPerISP: 40,
		},
		Chaos: Chaos{Profile: "off", Seed: 7},
	}
}

// registry builds every named scenario. Each is derived from the default by
// editing the sections the scenario is about, so the diff against `default`
// IS the scenario's definition.
func registry() map[string]*Spec {
	specs := map[string]*Spec{DefaultName: defaultSpec()}

	tiny := defaultSpec()
	tiny.Name = "tiny"
	tiny.Description = "the default world at unit-test scale (the world behind -tiny)"
	tiny.Topology = Topology{
		AccessISPs: 60, TransitISPs: 10, Backbones: 3, IXPs: 8,
		TotalUsers: 2.0e8, ZipfExponent: 1.0, UsersPerSlash24: 8000,
	}
	specs[tiny.Name] = tiny

	huge := defaultSpec()
	huge.Name = "huge"
	huge.Description = "the default world at 50x+ scale, built by the sharded streaming generator; spill to a snapshot with -snapshot"
	huge.Topology = Topology{
		AccessISPs: 48000, TransitISPs: 2400, Backbones: 64, IXPs: 720,
		TotalUsers: 5.0e9, ZipfExponent: 1.05, UsersPerSlash24: 8000,
		Sharded: true,
	}
	specs[huge.Name] = huge

	large := defaultSpec()
	large.Name = "large"
	large.Description = "the default world sized closer to the paper's datasets (the world behind -large)"
	large.Topology = Topology{
		AccessISPs: 2400, TransitISPs: 96, Backbones: 10, IXPs: 60,
		TotalUsers: 4.2e9, ZipfExponent: 1.05, UsersPerSlash24: 8000,
	}
	specs[large.Name] = large

	// "Open Connect Everywhere" (Böttger et al.): Netflix pushes OCAs deep
	// into eyeball and transit networks. Netflix coverage approaches
	// saturation, its share reflects the regional streaming peak, offnets
	// colocate even harder at the primary interconnect, and peering is
	// provisioned a notch more generously.
	oca := defaultSpec()
	oca.Name = "open-connect-everywhere"
	oca.Description = "Netflix OCA-style deep-ISP deployment: near-saturated Netflix coverage, streaming-peak share, denser transit offnets"
	oca.Deployment.ColocationPropensity = 0.90
	oca.Deployment.TransitCoverageScale = 0.9
	oca.Deployment.PNICapacityScale = 1.1
	oca.Deployment.Hypergiants["netflix"] = HGProfile{
		Coverage2021: 0.55, Coverage2023: 0.88,
		ServerGbps: 18, MaxServersPerISP: 16, LegacySpread: 0.04,
	}
	oca.Traffic.Shares["netflix"] = 0.15
	oca.Traffic.OffnetFractions["netflix"] = 0.97
	specs[oca.Name] = oca

	// "Dissecting Apple's Meta-CDN during an iOS Update": an iOS release
	// shifts the traffic mix hard toward the Akamai-led CDN coalition,
	// with poorly cacheable first-day payloads, thin provisioning
	// headroom, aggressive bursting, and measurement noise from the
	// overload (the light chaos profile).
	ios := defaultSpec()
	ios.Name = "ios-flash-crowd"
	ios.Description = "iOS-update flash crowd through an Akamai-led multi-CDN: update-day traffic mix, thin headroom, chaos light"
	ios.Deployment.Hypergiants["akamai"] = HGProfile{
		Coverage2021: 0.178, Coverage2023: 0.30,
		ServerGbps: 6, MaxServersPerISP: 40, LegacySpread: 0.45,
	}
	ios.Traffic.Shares = map[string]float64{
		"google": 0.18, "netflix": 0.07, "meta": 0.13, "akamai": 0.30,
	}
	ios.Traffic.OffnetFractions["akamai"] = 0.60
	ios.Traffic.OffnetProvisioning = 0.85
	ios.Traffic.BurstFactor = 1.4
	ios.Chaos = Chaos{Profile: "light", Seed: 7}
	specs[ios.Name] = ios

	// "Characterizing a Meta-CDN": content owners spread delivery across
	// multiple CDNs. Shares even out, per-CDN cache efficiency drops
	// (requests split across providers), the TLS scan sees far more
	// unrelated CDN hosts, and PNIs are sized a little leaner because no
	// single CDN carries the whole relationship.
	meta := defaultSpec()
	meta.Name = "meta-cdn"
	meta.Description = "multi-CDN/meta-CDN delivery: evened-out shares, reduced per-CDN cache efficiency, noisy TLS scan background"
	meta.Deployment.PNICapacityScale = 0.9
	meta.Deployment.Hypergiants["akamai"] = HGProfile{
		Coverage2021: 0.178, Coverage2023: 0.25,
		ServerGbps: 6, MaxServersPerISP: 30, LegacySpread: 0.45,
	}
	meta.Traffic.Shares = map[string]float64{
		"google": 0.15, "netflix": 0.10, "meta": 0.14, "akamai": 0.22,
	}
	meta.Traffic.OffnetFractions = map[string]float64{
		"google": 0.70, "netflix": 0.85, "meta": 0.75, "akamai": 0.65,
	}
	meta.Traffic.OffnetProvisioning = 0.90
	meta.Measurement.ScanBackgroundPerISP = 6.0
	meta.Measurement.ScanOnnetPerHG = 35
	specs[meta.Name] = meta

	// "OCDN: Oblivious Content Distribution Networks": delivery designed
	// to hide provenance. The deployments are the default world's, but
	// every measurement channel degrades — sparser vantage coverage,
	// lossier probes, more silent routers, and reverse DNS that rarely
	// says anything truthful about location.
	ocdn := defaultSpec()
	ocdn.Name = "ocdn"
	ocdn.Description = "oblivious-CDN world: default deployments measured through degraded channels (sparse vantage points, silent routers, lying rDNS)"
	ocdn.Measurement.PingSites = 140
	ocdn.Measurement.ProbeLoss = 0.03
	ocdn.Measurement.MinSites = 80
	ocdn.Measurement.SilentRouterFraction = 0.30
	ocdn.Measurement.RDNSCoverage = 0.20
	ocdn.Measurement.RDNSGeoHint = 0.30
	ocdn.Measurement.RDNSStale = 0.05
	specs[ocdn.Name] = ocdn

	return specs
}

// Names lists the registry's scenario names in sorted order.
func Names() []string {
	specs := registry()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Default returns a copy of the default scenario.
func Default() *Spec {
	return defaultSpec()
}

// Lookup returns a copy of the named scenario.
func Lookup(name string) (*Spec, bool) {
	sp, ok := registry()[name]
	if !ok {
		return nil, false
	}
	return sp, true
}

// MustLookup is Lookup for registry names the code itself guarantees exist.
func MustLookup(name string) *Spec {
	sp, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("scenario: registry is missing %q", name))
	}
	return sp
}

// Describe returns the name and description of every registered scenario,
// sorted by name — the rows behind -list-scenarios.
func Describe() [][2]string {
	specs := registry()
	out := make([][2]string, 0, len(specs))
	for _, name := range Names() {
		out = append(out, [2]string{name, specs[name].Description})
	}
	return out
}
