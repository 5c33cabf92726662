package tracert

import "offnetrisk/internal/scenario"

// ConfigFromScenario builds the survey configuration a resolved spec's
// measurement section declares.
func ConfigFromScenario(sp *scenario.Spec, seed int64) Config {
	return Config{
		Seed:                 seed,
		VMs:                  sp.Measurement.TracerouteVMs,
		TargetsPerISP:        sp.Measurement.TargetsPerISP,
		SilentRouterFraction: sp.Measurement.SilentRouterFraction,
	}
}
