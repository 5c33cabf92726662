package inet

// Config controls synthetic Internet generation. The defaults produce a
// world sized for laptop-scale experiments while keeping the structural
// ratios the paper measures (thousands of access ISPs, tens of IXPs, a
// handful of backbones).
type Config struct {
	// Seed drives every random draw; equal seeds produce identical worlds.
	Seed int64
	// AccessISPs is the number of eyeball networks to generate. The paper
	// works with 5516 offnet-hosting ISPs; tests use much smaller worlds.
	AccessISPs int
	// TransitISPs is the number of regional transit providers.
	TransitISPs int
	// Backbones is the number of global transit-free carriers.
	Backbones int
	// IXPs is the number of exchange points, placed in the largest metros.
	IXPs int
	// TotalUsers is the world Internet-user population distributed across
	// access ISPs with a Zipf profile (APNIC-style).
	TotalUsers float64
	// ZipfExponent shapes the user-population distribution.
	ZipfExponent float64
	// UsersPerSlash24 controls how much address space an ISP announces
	// relative to its user base.
	UsersPerSlash24 float64

	// Sharded selects the shard-composed streaming builder: every entity
	// draws from its own rngutil.Derive substream, shards build in parallel,
	// and the composed world is byte-identical at any Shards/GenWorkers
	// value. False — the default — runs the legacy sequential builder, which
	// stays bit-identical to the original generator (the committed golden
	// manifests depend on it). Part of the world definition: a scenario's
	// topology section declares it, so one spec hash pins one builder.
	Sharded bool
	// Shards partitions the entity index space of the sharded builder; <= 0
	// means 16, a machine-independent default so deterministic fan-out
	// counters (par.tasks_total) don't vary across hosts. Output-invariant:
	// shards trade wall-clock only. Ignored by the legacy builder.
	Shards int
	// GenWorkers bounds the worker pool building shards; <= 0 means
	// GOMAXPROCS. Output-invariant. Ignored by the legacy builder.
	GenWorkers int
}

// sanitized fills zero or nonsense fields with the TinyConfig values, so a
// zero-valued Config and the tiny world agree field for field.
func (c Config) sanitized() Config {
	if c.AccessISPs <= 0 {
		c.AccessISPs = 60
	}
	if c.TransitISPs <= 0 {
		c.TransitISPs = 10
	}
	if c.Backbones <= 0 {
		c.Backbones = 3
	}
	if c.IXPs <= 0 {
		c.IXPs = 8
	}
	if c.TotalUsers <= 0 {
		c.TotalUsers = 2.0e8
	}
	if c.ZipfExponent <= 0 {
		c.ZipfExponent = 1.0
	}
	if c.UsersPerSlash24 <= 0 {
		c.UsersPerSlash24 = 8000
	}
	return c
}
