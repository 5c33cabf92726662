package session

import "offnetrisk/internal/scenario"

// ConfigFromScenario builds the session-simulation configuration a resolved
// spec declares. The congestion RTT penalty stays a modeling constant (it
// calibrates bufferbloat behaviour, not the world).
func ConfigFromScenario(sp *scenario.Spec, seed int64) Config {
	return Config{
		Seed:                  seed,
		PerISP:                sp.Measurement.SessionsPerISP,
		CongestedRTTPenaltyMs: 80,
		Mix:                   sp.Mix(),
	}
}
