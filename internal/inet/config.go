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

	// GenWorkers is read by nothing: the world builder is sequential. It
	// stays only because perfbench/workloads.go assigns it, and perfbench/
	// is frozen outside benchmark changes; the next benchmark change
	// deletes the field and that assignment together.
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
