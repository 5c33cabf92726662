package hypergiant

import (
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

// ProfilesFromScenario builds the hypergiants' deployment profiles from a
// resolved spec. The spec overrides the world-shaped fields (coverage,
// server sizing, legacy spread); certificate conventions stay compiled in —
// they encode the measurement methodology, not the world.
func ProfilesFromScenario(sp *scenario.Spec) map[traffic.HG]Profile {
	profiles := Profiles()
	for _, hg := range traffic.All {
		p := sp.Profile(hg)
		prof := profiles[hg]
		prof.Coverage = map[Epoch]float64{
			Epoch2021: p.Coverage2021,
			Epoch2023: p.Coverage2023,
		}
		prof.ServerGbps = p.ServerGbps
		prof.MaxServersPerISP = p.MaxServersPerISP
		prof.LegacySpread = p.LegacySpread
		profiles[hg] = prof
	}
	return profiles
}

// DeployConfigFromScenario builds the deployment configuration a resolved
// spec declares.
func DeployConfigFromScenario(sp *scenario.Spec, seed int64) DeployConfig {
	return DeployConfig{
		Seed:                 seed,
		PeakMbpsPerUser:      sp.Deployment.PeakMbpsPerUser,
		ColocationPropensity: sp.Deployment.ColocationPropensity,
		ResponsiveFraction:   sp.Deployment.ResponsiveFraction,
		AnycastFraction:      sp.Deployment.AnycastFraction,
		Mix:                  sp.Mix(),
		PNICapacityScale:     sp.Deployment.PNICapacityScale,
		TransitCoverageScale: sp.Deployment.TransitCoverageScale,
		Profiles:             ProfilesFromScenario(sp),
	}
}
