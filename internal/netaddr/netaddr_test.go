package netaddr

import (
	"testing"
	"testing/quick"
)

func TestAddrRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "10.1.2.3", "192.168.255.1", "255.255.255.255"}
	for _, s := range cases {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.String() != s {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
	}
}

func TestParseAddrErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "256.1.1.1", "a.b.c.d"} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) should fail", s)
		}
	}
}

func TestAddrRoundTripProperty(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		b, err := ParseAddr(a.String())
		return err == nil && b == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlash24(t *testing.T) {
	a, _ := ParseAddr("10.1.2.3")
	p := a.Slash24()
	if p.String() != "10.1.2.0/24" {
		t.Errorf("Slash24 = %s", p)
	}
	if !p.Contains(a) {
		t.Error("slash24 must contain its address")
	}
}

func TestPrefixParseCanonical(t *testing.T) {
	p, err := ParsePrefix("10.1.2.3/24")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "10.1.2.0/24" {
		t.Errorf("canonicalization failed: %s", p)
	}
	if p.NumAddrs() != 256 {
		t.Errorf("NumAddrs = %d", p.NumAddrs())
	}
	if p.First().String() != "10.1.2.0" || p.Last().String() != "10.1.2.255" {
		t.Errorf("bounds: %s..%s", p.First(), p.Last())
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, s := range []string{"", "10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "300.0.0.0/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) should fail", s)
		}
	}
}

func TestContainsProperty(t *testing.T) {
	f := func(v uint32, bits uint8) bool {
		b := int(bits % 33)
		p := Prefix{Addr: Addr(v), Bits: b}.Canonical()
		// Every address in [First, Last] is contained; First-1 and Last+1
		// (when they exist) are not.
		if !p.Contains(p.First()) || !p.Contains(p.Last()) {
			return false
		}
		if p.First() > 0 && p.Contains(p.First()-1) {
			return false
		}
		if p.Last() < 0xffffffff && p.Contains(p.Last()+1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverlaps(t *testing.T) {
	a := MustPrefix("10.0.0.0/8")
	b := MustPrefix("10.1.0.0/16")
	c := MustPrefix("11.0.0.0/8")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes must overlap")
	}
	if a.Overlaps(c) {
		t.Error("disjoint prefixes must not overlap")
	}
}

func TestSlash24Enumeration(t *testing.T) {
	p := MustPrefix("10.0.0.0/22")
	s := p.Slash24s()
	if len(s) != 4 || p.NumSlash24s() != 4 {
		t.Fatalf("want 4 /24s, got %d (NumSlash24s %d)", len(s), p.NumSlash24s())
	}
	want := []string{"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"}
	for i, w := range want {
		if s[i].String() != w {
			t.Errorf("s[%d] = %s, want %s", i, s[i], w)
		}
	}
	// Longer than /24 collapses to its covering /24.
	host := MustPrefix("10.9.8.128/25")
	s = host.Slash24s()
	if len(s) != 1 || s[0].String() != "10.9.8.0/24" || host.NumSlash24s() != 1 {
		t.Errorf("/25 slash24s = %v (NumSlash24s %d)", s, host.NumSlash24s())
	}
}

func TestPoolAllocation(t *testing.T) {
	pool := NewPool(MustPrefix("10.0.0.0/16"))
	a, err := pool.AllocPrefix(24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.AllocPrefix(24)
	if err != nil {
		t.Fatal(err)
	}
	if a.Overlaps(b) {
		t.Errorf("allocations overlap: %s %s", a, b)
	}
	if a.String() != "10.0.0.0/24" || b.String() != "10.0.1.0/24" {
		t.Errorf("unexpected allocations: %s %s", a, b)
	}
}

func TestPoolAlignmentAfterMixedSizes(t *testing.T) {
	pool := NewPool(MustPrefix("10.0.0.0/16"))
	if _, err := pool.AllocAddr(); err != nil { // consumes one /32
		t.Fatal(err)
	}
	p, err := pool.AllocPrefix(24) // must skip to next aligned /24
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "10.0.1.0/24" {
		t.Errorf("aligned alloc = %s, want 10.0.1.0/24", p)
	}
}

func TestPoolExhaustion(t *testing.T) {
	pool := NewPool(MustPrefix("10.0.0.0/30"))
	for i := 0; i < 4; i++ {
		if _, err := pool.AllocAddr(); err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
	}
	if _, err := pool.AllocAddr(); err == nil {
		t.Error("exhausted pool should fail")
	}
	if pool.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", pool.Remaining())
	}
}

func TestPoolNonOverlappingProperty(t *testing.T) {
	f := func(seed uint8) bool {
		pool := NewPool(MustPrefix("172.16.0.0/12"))
		var allocs []Prefix
		sizes := []int{24, 22, 28, 24, 20, 32}
		for i := 0; i < int(seed%20)+2; i++ {
			p, err := pool.AllocPrefix(sizes[i%len(sizes)])
			if err != nil {
				return true // exhaustion is fine
			}
			for _, q := range allocs {
				if p.Overlaps(q) {
					return false
				}
			}
			allocs = append(allocs, p)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoolRejectsBadSizes(t *testing.T) {
	pool := NewPool(MustPrefix("10.0.0.0/16"))
	if _, err := pool.AllocPrefix(8); err == nil {
		t.Error("allocating /8 from /16 should fail")
	}
	if _, err := pool.AllocPrefix(33); err == nil {
		t.Error("allocating /33 should fail")
	}
}

func TestSortPrefixes(t *testing.T) {
	ps := []Prefix{MustPrefix("10.2.0.0/16"), MustPrefix("10.1.0.0/16"), MustPrefix("10.1.0.0/24")}
	SortPrefixes(ps)
	if ps[0].String() != "10.1.0.0/16" || ps[1].String() != "10.1.0.0/24" || ps[2].String() != "10.2.0.0/16" {
		t.Errorf("sorted: %v", ps)
	}
}

func TestPoolAdvancePast(t *testing.T) {
	pool := NewPool(MustPrefix("10.0.0.0/16"))
	used, _ := ParseAddr("10.0.3.200")
	pool.AdvancePast(used)
	p, err := pool.AllocPrefix(24)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "10.0.4.0/24" {
		t.Errorf("alloc after advance = %s, want 10.0.4.0/24", p)
	}
	// Out-of-pool addresses are ignored.
	outside, _ := ParseAddr("192.168.0.1")
	before := pool.Remaining()
	pool.AdvancePast(outside)
	if pool.Remaining() != before {
		t.Error("AdvancePast moved cursor for an outside address")
	}
	// Never moves backwards.
	early, _ := ParseAddr("10.0.0.1")
	pool.AdvancePast(early)
	if pool.Remaining() != before {
		t.Error("AdvancePast moved cursor backwards")
	}
}
