package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Spec files are patches, not full documents: a file states `version`, an
// optional `base` (a registry name, `default` if omitted), and only the
// fields it wants to change. Parsing is strict — unknown keys and wrong
// versions are errors — and the result is always a fully resolved, validated
// Spec. Because omission means "inherit", every field of the patch types is
// a pointer: `"probe_loss": 0` deliberately sets zero loss, while leaving
// the key out keeps the base's value.

type specPatch struct {
	Version     *int    `json:"version"`
	Base        *string `json:"base"`
	Name        *string `json:"name"`
	Description *string `json:"description"`

	Topology    *topologyPatch    `json:"topology"`
	Deployment  *deploymentPatch  `json:"deployment"`
	Traffic     *trafficPatch     `json:"traffic"`
	Measurement *measurementPatch `json:"measurement"`
	Chaos       *chaosPatch       `json:"chaos"`
}

type topologyPatch struct {
	AccessISPs      *int     `json:"access_isps"`
	TransitISPs     *int     `json:"transit_isps"`
	Backbones       *int     `json:"backbones"`
	IXPs            *int     `json:"ixps"`
	TotalUsers      *float64 `json:"total_users"`
	ZipfExponent    *float64 `json:"zipf_exponent"`
	UsersPerSlash24 *float64 `json:"users_per_slash24"`
}

type deploymentPatch struct {
	PeakMbpsPerUser      *float64                  `json:"peak_mbps_per_user"`
	ColocationPropensity *float64                  `json:"colocation_propensity"`
	ResponsiveFraction   *float64                  `json:"responsive_fraction"`
	AnycastFraction      *float64                  `json:"anycast_fraction"`
	PNICapacityScale     *float64                  `json:"pni_capacity_scale"`
	TransitCoverageScale *float64                  `json:"transit_coverage_scale"`
	Hypergiants          map[string]hgProfilePatch `json:"hypergiants"`
}

type hgProfilePatch struct {
	Coverage2021     *float64 `json:"coverage_2021"`
	Coverage2023     *float64 `json:"coverage_2023"`
	ServerGbps       *float64 `json:"server_gbps"`
	MaxServersPerISP *int     `json:"max_servers_per_isp"`
	LegacySpread     *float64 `json:"legacy_spread"`
}

type trafficPatch struct {
	Shares             map[string]float64 `json:"shares"`
	OffnetFractions    map[string]float64 `json:"offnet_fractions"`
	OffnetProvisioning *float64           `json:"offnet_provisioning"`
	BurstFactor        *float64           `json:"burst_factor"`
}

type measurementPatch struct {
	PingSites            *int     `json:"ping_sites"`
	PingProbes           *int     `json:"ping_probes"`
	ProbeLoss            *float64 `json:"probe_loss"`
	MinSites             *int     `json:"min_sites"`
	TracerouteVMs        *int     `json:"traceroute_vms"`
	TargetsPerISP        *int     `json:"targets_per_isp"`
	SilentRouterFraction *float64 `json:"silent_router_fraction"`
	ScanBackgroundPerISP *float64 `json:"scan_background_per_isp"`
	ScanOnnetPerHG       *int     `json:"scan_onnet_per_hg"`
	RDNSCoverage         *float64 `json:"rdns_coverage"`
	RDNSGeoHint          *float64 `json:"rdns_geo_hint"`
	RDNSStale            *float64 `json:"rdns_stale"`
	SessionsPerISP       *int     `json:"sessions_per_isp"`
}

type chaosPatch struct {
	Profile *string `json:"profile"`
	Seed    *int64  `json:"seed"`
}

// Parse reads a spec file's bytes, resolves it against its base scenario,
// and validates the result. Unknown keys anywhere in the document and spec
// versions other than the one this build reads are errors.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var patch specPatch
	if err := dec.Decode(&patch); err != nil {
		return nil, fmt.Errorf("scenario: parse spec: %w", err)
	}
	// A spec file is one document; trailing garbage means the file is not
	// what the author thinks it is.
	if dec.More() {
		return nil, fmt.Errorf("scenario: parse spec: trailing data after the spec document")
	}
	if patch.Version == nil {
		return nil, fmt.Errorf("scenario: spec is missing required field \"version\" (this build reads version %d)", Version)
	}
	if *patch.Version != Version {
		return nil, fmt.Errorf("scenario: unsupported spec version %d (this build reads version %d)", *patch.Version, Version)
	}

	baseName := DefaultName
	if patch.Base != nil {
		baseName = *patch.Base
	}
	base, ok := Lookup(baseName)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown base scenario %q (known: %s)", baseName, strings.Join(Names(), ", "))
	}

	sp := applyPatch(base, &patch)
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// applyPatch overlays every stated field of the patch onto a copy of base.
func applyPatch(base *Spec, patch *specPatch) *Spec {
	sp := base.Clone()
	if patch.Name != nil {
		sp.Name = *patch.Name
	}
	if patch.Description != nil {
		sp.Description = *patch.Description
	}
	if t := patch.Topology; t != nil {
		setInt(&sp.Topology.AccessISPs, t.AccessISPs)
		setInt(&sp.Topology.TransitISPs, t.TransitISPs)
		setInt(&sp.Topology.Backbones, t.Backbones)
		setInt(&sp.Topology.IXPs, t.IXPs)
		setFloat(&sp.Topology.TotalUsers, t.TotalUsers)
		setFloat(&sp.Topology.ZipfExponent, t.ZipfExponent)
		setFloat(&sp.Topology.UsersPerSlash24, t.UsersPerSlash24)
	}
	if d := patch.Deployment; d != nil {
		setFloat(&sp.Deployment.PeakMbpsPerUser, d.PeakMbpsPerUser)
		setFloat(&sp.Deployment.ColocationPropensity, d.ColocationPropensity)
		setFloat(&sp.Deployment.ResponsiveFraction, d.ResponsiveFraction)
		setFloat(&sp.Deployment.AnycastFraction, d.AnycastFraction)
		setFloat(&sp.Deployment.PNICapacityScale, d.PNICapacityScale)
		setFloat(&sp.Deployment.TransitCoverageScale, d.TransitCoverageScale)
		for name, hp := range d.Hypergiants {
			prof := sp.Deployment.Hypergiants[name]
			setFloat(&prof.Coverage2021, hp.Coverage2021)
			setFloat(&prof.Coverage2023, hp.Coverage2023)
			setFloat(&prof.ServerGbps, hp.ServerGbps)
			setInt(&prof.MaxServersPerISP, hp.MaxServersPerISP)
			setFloat(&prof.LegacySpread, hp.LegacySpread)
			sp.Deployment.Hypergiants[name] = prof
		}
	}
	if tr := patch.Traffic; tr != nil {
		for name, v := range tr.Shares {
			sp.Traffic.Shares[name] = v
		}
		for name, v := range tr.OffnetFractions {
			sp.Traffic.OffnetFractions[name] = v
		}
		setFloat(&sp.Traffic.OffnetProvisioning, tr.OffnetProvisioning)
		setFloat(&sp.Traffic.BurstFactor, tr.BurstFactor)
	}
	if m := patch.Measurement; m != nil {
		setInt(&sp.Measurement.PingSites, m.PingSites)
		setInt(&sp.Measurement.PingProbes, m.PingProbes)
		setFloat(&sp.Measurement.ProbeLoss, m.ProbeLoss)
		setInt(&sp.Measurement.MinSites, m.MinSites)
		setInt(&sp.Measurement.TracerouteVMs, m.TracerouteVMs)
		setInt(&sp.Measurement.TargetsPerISP, m.TargetsPerISP)
		setFloat(&sp.Measurement.SilentRouterFraction, m.SilentRouterFraction)
		setFloat(&sp.Measurement.ScanBackgroundPerISP, m.ScanBackgroundPerISP)
		setInt(&sp.Measurement.ScanOnnetPerHG, m.ScanOnnetPerHG)
		setFloat(&sp.Measurement.RDNSCoverage, m.RDNSCoverage)
		setFloat(&sp.Measurement.RDNSGeoHint, m.RDNSGeoHint)
		setFloat(&sp.Measurement.RDNSStale, m.RDNSStale)
		setInt(&sp.Measurement.SessionsPerISP, m.SessionsPerISP)
	}
	if c := patch.Chaos; c != nil {
		if c.Profile != nil {
			sp.Chaos.Profile = *c.Profile
		}
		if c.Seed != nil {
			sp.Chaos.Seed = *c.Seed
		}
	}
	return sp
}

func setInt(dst *int, src *int) {
	if src != nil {
		*dst = *src
	}
}

func setFloat(dst *float64, src *float64) {
	if src != nil {
		*dst = *src
	}
}

// Resolve turns a -scenario argument into a spec: a registry name resolves
// to the compiled-in scenario, anything else is read as a spec file path.
func Resolve(nameOrPath string) (*Spec, error) {
	if sp, ok := Lookup(nameOrPath); ok {
		return sp, nil
	}
	data, err := os.ReadFile(nameOrPath)
	if err != nil {
		if os.IsNotExist(err) && !strings.ContainsAny(nameOrPath, "/\\.") {
			return nil, fmt.Errorf("scenario: unknown scenario %q (known: %s)", nameOrPath, strings.Join(Names(), ", "))
		}
		return nil, fmt.Errorf("scenario: read spec file: %w", err)
	}
	return Parse(data)
}
