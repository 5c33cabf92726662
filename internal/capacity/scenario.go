package capacity

import "offnetrisk/internal/scenario"

// ConfigFromScenario builds the capacity-model calibration a resolved spec
// declares: demand from the deployment section, provisioning and burst
// tolerance from the traffic section.
func ConfigFromScenario(sp *scenario.Spec, seed int64) Config {
	return Config{
		Seed:               seed,
		PeakMbpsPerUser:    sp.Deployment.PeakMbpsPerUser,
		OffnetProvisioning: sp.Traffic.OffnetProvisioning,
		BurstFactor:        sp.Traffic.BurstFactor,
		Mix:                sp.Mix(),
	}
}
