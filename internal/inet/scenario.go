package inet

import "offnetrisk/internal/scenario"

// ConfigFromScenario builds the generation config a resolved spec's topology
// section declares.
func ConfigFromScenario(sp *scenario.Spec, seed int64) Config {
	t := sp.Topology
	return Config{
		Seed:            seed,
		AccessISPs:      t.AccessISPs,
		TransitISPs:     t.TransitISPs,
		Backbones:       t.Backbones,
		IXPs:            t.IXPs,
		TotalUsers:      t.TotalUsers,
		ZipfExponent:    t.ZipfExponent,
		UsersPerSlash24: t.UsersPerSlash24,
		Sharded:         t.Sharded,
	}
}

// TinyConfig returns the registry's `tiny` topology: a miniature world for
// unit tests and the world behind -tiny.
func TinyConfig(seed int64) Config {
	return ConfigFromScenario(scenario.MustLookup("tiny"), seed)
}
