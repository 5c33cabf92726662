// Package netaddr provides the IPv4 arithmetic the synthetic Internet is
// built on: addresses, prefixes, /24 enumeration, and sequential allocation
// pools. It deliberately mirrors how the paper's pipelines treat address
// space — Censys scans enumerate IPv4 hosts, the traceroute survey targets
// "a single IP address per /24 announced to the global Internet", and ISPs
// hand hypergiants "a BGP feed of IP prefixes".
package netaddr

import (
	"fmt"
	"sort"
)

// Addr is an IPv4 address in host byte order. The zero value is 0.0.0.0.
type Addr uint32

// AddrFrom4 builds an address from its four dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad string.
func ParseAddr(s string) (Addr, error) {
	var a, b, c, d int
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
		return 0, fmt.Errorf("netaddr: parse %q: %w", s, err)
	}
	for _, o := range []int{a, b, c, d} {
		if o < 0 || o > 255 {
			return 0, fmt.Errorf("netaddr: parse %q: octet out of range", s)
		}
	}
	return AddrFrom4(byte(a), byte(b), byte(c), byte(d)), nil
}

// String renders the address as a dotted quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Slash24 returns the /24 prefix containing the address.
func (a Addr) Slash24() Prefix {
	return Prefix{Addr: a &^ 0xff, Bits: 24}
}

// Prefix is an IPv4 CIDR prefix. Addr must have its host bits zero; use
// Canonical to enforce that.
type Prefix struct {
	Addr Addr
	Bits int
}

// MustPrefix parses a CIDR string, panicking on error. For tests and tables.
func MustPrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses a CIDR string like "10.1.2.0/24".
func ParsePrefix(s string) (Prefix, error) {
	var quad string
	var bits int
	if _, err := fmt.Sscanf(s, "%15s", &quad); err != nil {
		return Prefix{}, fmt.Errorf("netaddr: parse prefix %q: %w", s, err)
	}
	var a, b, c, d int
	if n, err := fmt.Sscanf(s, "%d.%d.%d.%d/%d", &a, &b, &c, &d, &bits); n != 5 || err != nil {
		return Prefix{}, fmt.Errorf("netaddr: parse prefix %q", s)
	}
	for _, o := range []int{a, b, c, d} {
		if o < 0 || o > 255 {
			return Prefix{}, fmt.Errorf("netaddr: parse prefix %q: octet out of range", s)
		}
	}
	if bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("netaddr: parse prefix %q: bad mask", s)
	}
	p := Prefix{Addr: AddrFrom4(byte(a), byte(b), byte(c), byte(d)), Bits: bits}
	return p.Canonical(), nil
}

// Canonical returns the prefix with host bits zeroed.
func (p Prefix) Canonical() Prefix {
	return Prefix{Addr: p.Addr & p.mask(), Bits: p.Bits}
}

func (p Prefix) mask() Addr {
	if p.Bits <= 0 {
		return 0
	}
	if p.Bits >= 32 {
		return 0xffffffff
	}
	return Addr(^uint32(0) << (32 - p.Bits))
}

// Contains reports whether the address falls inside the prefix.
func (p Prefix) Contains(a Addr) bool {
	return a&p.mask() == p.Addr&p.mask()
}

// Overlaps reports whether two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q.Addr&q.mask()) || q.Contains(p.Addr&p.mask())
}

// NumAddrs returns the number of addresses covered by the prefix.
func (p Prefix) NumAddrs() uint64 {
	return 1 << (32 - p.Bits)
}

// First returns the first (network) address of the prefix.
func (p Prefix) First() Addr { return p.Addr & p.mask() }

// Last returns the last (broadcast) address of the prefix.
func (p Prefix) Last() Addr { return p.First() + Addr(p.NumAddrs()-1) }

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Bits)
}

// Slash24s returns every /24 contained in the prefix. For prefixes longer
// than /24 it returns the single covering /24.
func (p Prefix) Slash24s() []Prefix {
	p = p.Canonical()
	if p.Bits >= 24 {
		return []Prefix{p.Addr.Slash24()}
	}
	n := p.NumSlash24s()
	out := make([]Prefix, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Prefix{Addr: p.First() + Addr(i<<8), Bits: 24})
	}
	return out
}

// NumSlash24s returns len(p.Slash24s()) without building the slice.
func (p Prefix) NumSlash24s() int {
	if p.Bits >= 24 {
		return 1
	}
	return 1 << (24 - p.Bits)
}

// Pool hands out non-overlapping prefixes and addresses from a base prefix.
// The synthetic Internet uses one pool per address-space "registry" so ISP,
// hypergiant, and IXP prefixes never collide.
type Pool struct {
	base Prefix
	next Addr
}

// NewPool creates a pool over the given base prefix.
func NewPool(base Prefix) *Pool {
	base = base.Canonical()
	return &Pool{base: base, next: base.First()}
}

// AllocPrefix carves the next aligned prefix of the given length. It returns
// an error when the pool is exhausted or bits is out of range.
func (p *Pool) AllocPrefix(bits int) (Prefix, error) {
	if bits < p.base.Bits || bits > 32 {
		return Prefix{}, fmt.Errorf("netaddr: cannot allocate /%d from %s", bits, p.base)
	}
	size := Addr(1) << (32 - bits)
	// Align upward.
	start := (p.next + size - 1) &^ (size - 1)
	if start < p.next || start+size-1 > p.base.Last() || start < p.base.First() {
		return Prefix{}, fmt.Errorf("netaddr: pool %s exhausted allocating /%d", p.base, bits)
	}
	p.next = start + size
	return Prefix{Addr: start, Bits: bits}, nil
}

// AllocAddr hands out the next single address.
func (p *Pool) AllocAddr() (Addr, error) {
	pre, err := p.AllocPrefix(32)
	if err != nil {
		return 0, err
	}
	return pre.Addr, nil
}

// Remaining returns how many addresses are still available.
func (p *Pool) Remaining() uint64 {
	if p.next > p.base.Last() {
		return 0
	}
	return uint64(p.base.Last()-p.next) + 1
}

// SortPrefixes orders prefixes by address then mask length; deterministic
// iteration order for map-derived prefix sets.
func SortPrefixes(ps []Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Addr != ps[j].Addr {
			return ps[i].Addr < ps[j].Addr
		}
		return ps[i].Bits < ps[j].Bits
	})
}

// AdvancePast moves the pool cursor just past the given address if it is
// inside the pool; used when reconstructing a pool around pre-existing
// allocations.
func (p *Pool) AdvancePast(a Addr) {
	if a >= p.base.First() && a <= p.base.Last() && a+1 > p.next {
		p.next = a + 1
	}
}
