// Package scenario is the declarative "which world are we in" layer: a
// versioned spec that names everything the reproduction used to hard-code —
// topology scale, per-hypergiant deployment strategy, traffic mix,
// measurement-campaign parameters, and chaos profile — plus a compiled-in
// registry of named worlds grounded in related work (Netflix "Open Connect
// Everywhere" deep-ISP deployments, the Apple iOS-update flash crowd,
// multi-CDN/meta-CDN delivery, oblivious CDNs).
//
// A resolved Spec is the input contract of the whole pipeline: inet,
// hypergiant, the measurement packages and offnetrisk.Pipeline all derive
// their configs from one, the run manifest records its name and content
// hash, and every named scenario is golden-gated in CI. The `default`
// scenario reproduces the previously hard-coded constants bit for bit, so
// runs that never mention a scenario are byte-identical to the code this
// layer replaced.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"offnetrisk/internal/chaos"
	"offnetrisk/internal/traffic"
)

// Version is the spec schema version this build reads. Parse rejects
// anything else: version bumps are deliberate migrations, not silent
// reinterpretations.
const Version = 1

// Spec is one fully resolved scenario. Registry entries and Resolve results
// are always complete (every field set and validated); the JSON form is the
// canonical serialization the content hash is computed over.
type Spec struct {
	Version     int    `json:"version"`
	Name        string `json:"name"`
	Description string `json:"description"`

	Topology    Topology    `json:"topology"`
	Deployment  Deployment  `json:"deployment"`
	Traffic     Traffic     `json:"traffic"`
	Measurement Measurement `json:"measurement"`
	Chaos       Chaos       `json:"chaos"`
}

// Topology mirrors inet.Config: how large a synthetic Internet to build.
type Topology struct {
	AccessISPs      int     `json:"access_isps"`
	TransitISPs     int     `json:"transit_isps"`
	Backbones       int     `json:"backbones"`
	IXPs            int     `json:"ixps"`
	TotalUsers      float64 `json:"total_users"`
	ZipfExponent    float64 `json:"zipf_exponent"`
	UsersPerSlash24 float64 `json:"users_per_slash24"`
	// Sharded selects the shard-composed streaming world builder (the huge
	// tier's generator). Part of the world definition — flipping it changes
	// the world's bytes, so it lives in the hashed topology section.
	// omitempty keeps every existing spec's canonical form, and therefore
	// its hash, unchanged.
	Sharded bool `json:"sharded,omitempty"`
}

// Deployment declares the hypergiants' deployment strategy: the global
// knobs of hypergiant.DeployConfig plus per-hypergiant profile overrides.
type Deployment struct {
	PeakMbpsPerUser      float64 `json:"peak_mbps_per_user"`
	ColocationPropensity float64 `json:"colocation_propensity"`
	ResponsiveFraction   float64 `json:"responsive_fraction"`
	AnycastFraction      float64 `json:"anycast_fraction"`
	// PNICapacityScale multiplies every private interconnect's capacity:
	// >1 provisions peering generously, <1 starves it.
	PNICapacityScale float64 `json:"pni_capacity_scale"`
	// TransitCoverageScale scales how many transit providers host offnets
	// relative to the per-hypergiant access coverage (offnet depth).
	TransitCoverageScale float64 `json:"transit_coverage_scale"`
	// Hypergiants is keyed by lowercase hypergiant name (google, netflix,
	// meta, akamai); every key must be present in a resolved spec.
	Hypergiants map[string]HGProfile `json:"hypergiants"`
}

// HGProfile is one hypergiant's deployment behaviour under the scenario.
// Certificate conventions stay compiled in (they encode the measurement
// methodology, not the world).
type HGProfile struct {
	Coverage2021     float64 `json:"coverage_2021"`
	Coverage2023     float64 `json:"coverage_2023"`
	ServerGbps       float64 `json:"server_gbps"`
	MaxServersPerISP int     `json:"max_servers_per_isp"`
	LegacySpread     float64 `json:"legacy_spread"`
}

// Traffic declares the traffic mix: per-hypergiant shares and cache
// efficiencies, offnet provisioning headroom, and burst tolerance.
type Traffic struct {
	// Shares and OffnetFractions are keyed by lowercase hypergiant name.
	Shares          map[string]float64 `json:"shares"`
	OffnetFractions map[string]float64 `json:"offnet_fractions"`
	// OffnetProvisioning is the ratio of offnet capacity to the cacheable
	// share of peak demand.
	OffnetProvisioning float64 `json:"offnet_provisioning"`
	// BurstFactor is how far above nominal capacity an offnet can be
	// pushed briefly.
	BurstFactor float64 `json:"burst_factor"`
}

// Measurement declares the measurement-campaign parameters of every
// pipeline stage.
type Measurement struct {
	// Ping campaign (Appendix A).
	PingSites  int     `json:"ping_sites"`
	PingProbes int     `json:"ping_probes"`
	ProbeLoss  float64 `json:"probe_loss"`
	MinSites   int     `json:"min_sites"`
	// Cloud traceroute survey (§4.2.1).
	TracerouteVMs        int     `json:"traceroute_vms"`
	TargetsPerISP        int     `json:"targets_per_isp"`
	SilentRouterFraction float64 `json:"silent_router_fraction"`
	// TLS scan (§2.2).
	ScanBackgroundPerISP float64 `json:"scan_background_per_isp"`
	ScanOnnetPerHG       int     `json:"scan_onnet_per_hg"`
	// Reverse-DNS validation (§3.2).
	RDNSCoverage float64 `json:"rdns_coverage"`
	RDNSGeoHint  float64 `json:"rdns_geo_hint"`
	RDNSStale    float64 `json:"rdns_stale"`
	// Session-level QoE simulation (§3.3).
	SessionsPerISP int `json:"sessions_per_isp"`
}

// Chaos declares the fault-injection profile the scenario runs under.
// Explicit -chaos/-chaos-seed flags override it.
type Chaos struct {
	Profile string `json:"profile"`
	Seed    int64  `json:"seed"`
}

// Mix converts the traffic section into the traffic.Mix consumed by the
// deployment and capacity layers.
func (s *Spec) Mix() traffic.Mix {
	m := traffic.Mix{OffnetProvisioning: s.Traffic.OffnetProvisioning}
	for _, h := range traffic.All {
		m.Shares[h] = s.Traffic.Shares[h.Key()]
		m.OffnetFractions[h] = s.Traffic.OffnetFractions[h.Key()]
	}
	return m
}

// Profile returns the hypergiant's deployment profile section.
func (s *Spec) Profile(h traffic.HG) HGProfile {
	return s.Deployment.Hypergiants[h.Key()]
}

// Canonical returns the spec's canonical serialization: indented JSON with
// the schema's fixed field order. The content hash is computed over these
// bytes, and parsing them back yields an identical spec.
func (s *Spec) Canonical() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: marshal %q: %w", s.Name, err)
	}
	return append(data, '\n'), nil
}

// Hash is the hex SHA-256 of the canonical serialization: the value the run
// manifest records so runsdiff drifts whenever the world definition moves.
func (s *Spec) Hash() string {
	data, err := s.Canonical()
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Validate checks a resolved spec: schema version, complete hypergiant
// maps, and every parameter inside its meaningful range.
func (s *Spec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Version != Version {
		return bad("unsupported spec version %d (this build reads version %d)", s.Version, Version)
	}
	if s.Name == "" {
		return bad("missing name")
	}
	t := s.Topology
	if t.AccessISPs < 1 || t.TransitISPs < 1 || t.Backbones < 1 || t.IXPs < 1 {
		return bad("topology counts must be >= 1 (access %d, transit %d, backbones %d, ixps %d)",
			t.AccessISPs, t.TransitISPs, t.Backbones, t.IXPs)
	}
	if t.TotalUsers <= 0 || t.ZipfExponent <= 0 || t.UsersPerSlash24 <= 0 {
		return bad("topology totals must be > 0 (users %g, zipf %g, users/slash24 %g)",
			t.TotalUsers, t.ZipfExponent, t.UsersPerSlash24)
	}
	d := s.Deployment
	if d.PeakMbpsPerUser <= 0 {
		return bad("deployment.peak_mbps_per_user must be > 0, got %g", d.PeakMbpsPerUser)
	}
	if d.ColocationPropensity <= 0 || d.ColocationPropensity > 1 {
		return bad("deployment.colocation_propensity must be in (0,1], got %g", d.ColocationPropensity)
	}
	if d.ResponsiveFraction <= 0 || d.ResponsiveFraction > 1 {
		return bad("deployment.responsive_fraction must be in (0,1], got %g", d.ResponsiveFraction)
	}
	if d.AnycastFraction < 0 || d.AnycastFraction >= 1 {
		return bad("deployment.anycast_fraction must be in [0,1), got %g", d.AnycastFraction)
	}
	if d.PNICapacityScale <= 0 {
		return bad("deployment.pni_capacity_scale must be > 0, got %g", d.PNICapacityScale)
	}
	if d.TransitCoverageScale <= 0 || d.TransitCoverageScale > 1 {
		return bad("deployment.transit_coverage_scale must be in (0,1], got %g", d.TransitCoverageScale)
	}
	if len(d.Hypergiants) != len(traffic.All) {
		return bad("deployment.hypergiants must cover all %d hypergiants, got %d", len(traffic.All), len(d.Hypergiants))
	}
	for name, p := range d.Hypergiants {
		if _, ok := traffic.ParseHG(name); !ok {
			return bad("unknown hypergiant %q in deployment.hypergiants", name)
		}
		if p.Coverage2021 < 0 || p.Coverage2021 > 1 || p.Coverage2023 < 0 || p.Coverage2023 > 1 {
			return bad("hypergiant %s coverage must be in [0,1], got %g/%g", name, p.Coverage2021, p.Coverage2023)
		}
		if p.ServerGbps <= 0 {
			return bad("hypergiant %s server_gbps must be > 0, got %g", name, p.ServerGbps)
		}
		if p.MaxServersPerISP < 1 {
			return bad("hypergiant %s max_servers_per_isp must be >= 1, got %d", name, p.MaxServersPerISP)
		}
		if p.LegacySpread < 0 || p.LegacySpread > 1 {
			return bad("hypergiant %s legacy_spread must be in [0,1], got %g", name, p.LegacySpread)
		}
	}
	tr := s.Traffic
	if len(tr.Shares) != len(traffic.All) || len(tr.OffnetFractions) != len(traffic.All) {
		return bad("traffic.shares and traffic.offnet_fractions must cover all %d hypergiants", len(traffic.All))
	}
	for name, v := range tr.Shares {
		if _, ok := traffic.ParseHG(name); !ok {
			return bad("unknown hypergiant %q in traffic.shares", name)
		}
		if v <= 0 || v >= 1 {
			return bad("traffic share for %s must be in (0,1), got %g", name, v)
		}
	}
	// The keys are now exactly the four hypergiants; sum them in
	// traffic.All order, so the total is the same on every run.
	var shareSum float64
	for _, h := range traffic.All {
		shareSum += tr.Shares[h.Key()]
	}
	if shareSum >= 1 {
		return bad("traffic shares sum to %g; the four hypergiants cannot exceed all Internet traffic", shareSum)
	}
	for name, v := range tr.OffnetFractions {
		if _, ok := traffic.ParseHG(name); !ok {
			return bad("unknown hypergiant %q in traffic.offnet_fractions", name)
		}
		if v <= 0 || v > 1 {
			return bad("traffic offnet fraction for %s must be in (0,1], got %g", name, v)
		}
	}
	if tr.OffnetProvisioning <= 0 || tr.OffnetProvisioning > 1.5 {
		return bad("traffic.offnet_provisioning must be in (0,1.5], got %g", tr.OffnetProvisioning)
	}
	if tr.BurstFactor < 1 {
		return bad("traffic.burst_factor must be >= 1, got %g", tr.BurstFactor)
	}
	m := s.Measurement
	if m.PingSites < 1 || m.PingProbes < 1 || m.MinSites < 1 {
		return bad("measurement ping parameters must be >= 1 (sites %d, probes %d, min_sites %d)",
			m.PingSites, m.PingProbes, m.MinSites)
	}
	if m.ProbeLoss < 0 || m.ProbeLoss >= 1 {
		return bad("measurement.probe_loss must be in [0,1), got %g", m.ProbeLoss)
	}
	if m.TracerouteVMs < 1 || m.TargetsPerISP < 1 {
		return bad("measurement traceroute parameters must be >= 1 (vms %d, targets %d)",
			m.TracerouteVMs, m.TargetsPerISP)
	}
	if m.SilentRouterFraction < 0 || m.SilentRouterFraction >= 1 {
		return bad("measurement.silent_router_fraction must be in [0,1), got %g", m.SilentRouterFraction)
	}
	if m.ScanBackgroundPerISP < 0 || m.ScanOnnetPerHG < 0 {
		return bad("measurement scan parameters must be >= 0 (background %g, onnet %d)",
			m.ScanBackgroundPerISP, m.ScanOnnetPerHG)
	}
	if m.RDNSCoverage <= 0 || m.RDNSCoverage > 1 || m.RDNSGeoHint < 0 || m.RDNSGeoHint > 1 || m.RDNSStale < 0 || m.RDNSStale > 1 {
		return bad("measurement rdns fractions out of range (coverage %g, geo_hint %g, stale %g)",
			m.RDNSCoverage, m.RDNSGeoHint, m.RDNSStale)
	}
	if m.SessionsPerISP < 1 {
		return bad("measurement.sessions_per_isp must be >= 1, got %d", m.SessionsPerISP)
	}
	if _, err := chaos.ParseProfile(s.Chaos.Profile); err != nil {
		return bad("chaos.profile: %v", err)
	}
	return nil
}

// Clone deep-copies the spec so callers can tweak maps without mutating
// registry entries.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Deployment.Hypergiants = make(map[string]HGProfile, len(s.Deployment.Hypergiants))
	for k, v := range s.Deployment.Hypergiants {
		c.Deployment.Hypergiants[k] = v
	}
	c.Traffic.Shares = make(map[string]float64, len(s.Traffic.Shares))
	for k, v := range s.Traffic.Shares {
		c.Traffic.Shares[k] = v
	}
	c.Traffic.OffnetFractions = make(map[string]float64, len(s.Traffic.OffnetFractions))
	for k, v := range s.Traffic.OffnetFractions {
		c.Traffic.OffnetFractions[k] = v
	}
	return &c
}
