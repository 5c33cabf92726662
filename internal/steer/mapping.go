package steer

import (
	"fmt"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/traffic"
)

// fMapping accounts the §5 ECS mapping technique: client /24s probed vs.
// mapped to an offnet.
var (
	fMapping          = obs.NewFunnel("steer.mapping", "client /24s probed with ECS queries vs. mapped to an offnet address")
	fMappingNoSteered = fMapping.Reason("no_offnet_steering")
)

// MappingResult is the outcome of attempting the 2013 DNS-based
// user→offnet mapping technique against one hypergiant.
type MappingResult struct {
	HG   traffic.HG
	Mode Mode
	// PrefixesProbed is the number of client /24s for which ECS queries
	// were issued.
	PrefixesProbed int
	// OffnetMapped is the number of those prefixes the technique mapped to
	// an offnet address.
	OffnetMapped int
	// Correct is the number mapped to the offnet that actually serves the
	// prefix (ground truth from the steering directory).
	Correct int
	// DistinctOffnets is how many distinct offnet addresses the technique
	// surfaced — its discovery power.
	DistinctOffnets int
	// TotalOffnets is the directory's ground-truth offnet count.
	TotalOffnets int
}

// CoveragePct is the share of probed prefixes mapped to any offnet.
func (r MappingResult) CoveragePct() float64 {
	if r.PrefixesProbed == 0 {
		return 0
	}
	return 100 * float64(r.OffnetMapped) / float64(r.PrefixesProbed)
}

// AccuracyPct is the share of offnet-mapped prefixes mapped correctly.
func (r MappingResult) AccuracyPct() float64 {
	if r.OffnetMapped == 0 {
		return 0
	}
	return 100 * float64(r.Correct) / float64(r.OffnetMapped)
}

// DiscoveryPct is the share of ground-truth offnets the technique surfaced.
func (r MappingResult) DiscoveryPct() float64 {
	if r.TotalOffnets == 0 {
		return 0
	}
	return 100 * float64(r.DistinctOffnets) / float64(r.TotalOffnets)
}

// String renders the result.
func (r MappingResult) String() string {
	return fmt.Sprintf("%s (%s): coverage %.1f%%, accuracy %.1f%%, offnets discovered %.1f%%",
		r.HG, r.Mode, r.CoveragePct(), r.AccuracyPct(), r.DiscoveryPct())
}

// MapUsers runs the Calder-2013 technique: for a sample of client /24s,
// issue ECS queries for the hypergiant's service hostname through the
// available resolvers and record where DNS steers each prefix. Under
// ModeDNS2013 this recovers the user→offnet mapping; under ModeECSAllowlist
// it works only through allowlisted resolvers; under ModeEmbeddedURL it
// recovers nothing — "it is impossible to know which users are served from
// which offnets".
func MapUsers(d *hypergiant.Deployment, modes map[traffic.HG]Mode, resolvers []Resolver, samplePerISP int, seed int64) []MappingResult {
	w := d.World
	dirs := BuildDirectories(d)
	r := rngutil.New(seed ^ 0x3a11)

	// Sample client /24s across access ISPs.
	var sample []netaddr.Prefix
	for _, isp := range w.AccessISPs() {
		var s24s []netaddr.Prefix
		for _, p := range isp.Prefixes {
			s24s = append(s24s, p.Slash24s()...)
		}
		for _, idx := range rngutil.SampleWithoutReplacement(r, len(s24s), samplePerISP) {
			sample = append(sample, s24s[idx])
		}
	}

	// Only ECS-sending resolvers are useful for the technique; prefer
	// public ones as the original did.
	var probes []Resolver
	for _, res := range resolvers {
		if res.SendsECS && res.ISP == 0 {
			probes = append(probes, res)
		}
	}
	if len(probes) == 0 {
		probes = resolvers
	}

	lr := obs.ActiveLineage()
	var out []MappingResult
	for _, hg := range traffic.All {
		dir := dirs[hg]
		mode := modes[hg]
		group := "hg=" + hg.String()
		res := MappingResult{HG: hg, Mode: mode, TotalOffnets: len(dir.OffnetAddrs())}
		discovered := make(map[netaddr.Addr]bool)
		for _, s24 := range sample {
			res.PrefixesProbed++
			client := s24.First() + 77
			// Try each probe resolver until one steers us off the onnet
			// front end (the technique aggregates across resolvers).
			var mapped netaddr.Addr
			found := false
			for _, pr := range probes {
				subnet := s24
				ans := Resolve(dir, mode, pr, &subnet)
				if ans != dir.onnet {
					mapped, found = ans, true
					break
				}
			}
			fMapping.In(1)
			if !found {
				fMappingNoSteered.Inc()
				if lr != nil {
					lr.Record(fMapping.Name(), group, s24.String(), obs.LineageDropped,
						"no_offnet_steering", func() []obs.LineageKV {
							return []obs.LineageKV{
								{K: "mode", V: mode.String()},
								{K: "probe_resolvers", V: fmt.Sprint(len(probes))},
							}
						})
				}
				continue
			}
			res.OffnetMapped++
			discovered[mapped] = true
			correct := false
			if truth, ok := dir.ServerFor(client); ok && truth == mapped {
				res.Correct++
				correct = true
			}
			fMapping.Out(1)
			if lr != nil {
				lr.Record(fMapping.Name(), group, s24.String(), obs.LineageKept, "offnet_mapped",
					func() []obs.LineageKV {
						return []obs.LineageKV{
							{K: "mode", V: mode.String()},
							{K: "mapped_addr", V: mapped.String()},
							{K: "correct", V: fmt.Sprint(correct)},
						}
					})
			}
		}
		res.DistinctOffnets = len(discovered)
		out = append(out, res)
	}
	return out
}
