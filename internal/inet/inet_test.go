package inet

import (
	"testing"

	"offnetrisk/internal/geo"
	"offnetrisk/internal/netaddr"
)

func tinyWorld(t *testing.T) *World {
	t.Helper()
	return Generate(TinyConfig(1))
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(TinyConfig(7))
	b := Generate(TinyConfig(7))
	if len(a.ISPs) != len(b.ISPs) || len(a.Facilities) != len(b.Facilities) || len(a.IXPs) != len(b.IXPs) {
		t.Fatal("same seed produced different world sizes")
	}
	for as, isp := range a.ISPs {
		other, ok := b.ISPs[as]
		if !ok {
			t.Fatalf("AS %d missing in second world", as)
		}
		if isp.Name != other.Name || isp.Users != other.Users || len(isp.Prefixes) != len(other.Prefixes) {
			t.Fatalf("AS %d differs between worlds", as)
		}
	}
	c := Generate(TinyConfig(8))
	diff := false
	for as, isp := range a.ISPs {
		if o, ok := c.ISPs[as]; !ok || o.Users != isp.Users {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical worlds")
	}
}

func TestWorldCounts(t *testing.T) {
	w := tinyWorld(t)
	cfg := TinyConfig(1)
	if got := len(w.AccessISPs()); got != cfg.AccessISPs {
		t.Errorf("access ISPs = %d, want %d", got, cfg.AccessISPs)
	}
	var backbones, transits int
	for _, isp := range w.ISPs {
		switch isp.Tier {
		case TierBackbone:
			backbones++
		case TierTransit:
			transits++
		}
	}
	if backbones != cfg.Backbones || transits != cfg.TransitISPs {
		t.Errorf("backbones=%d transits=%d, want %d/%d", backbones, transits, cfg.Backbones, cfg.TransitISPs)
	}
	if len(w.IXPs) == 0 || len(w.IXPs) > cfg.IXPs {
		t.Errorf("IXPs = %d, want 1..%d", len(w.IXPs), cfg.IXPs)
	}
}

func TestEveryAccessISPViable(t *testing.T) {
	w := tinyWorld(t)
	for _, isp := range w.AccessISPs() {
		if isp.Users <= 0 {
			t.Errorf("%s: zero users", isp.Name)
		}
		if len(isp.Prefixes) == 0 {
			t.Errorf("%s: no prefixes", isp.Name)
		}
		if len(isp.Providers) == 0 {
			t.Errorf("%s: no transit providers", isp.Name)
		}
		if len(isp.Facilities) == 0 {
			t.Errorf("%s: no facilities", isp.Name)
		}
		if len(isp.Metros) == 0 {
			t.Errorf("%s: no metros", isp.Name)
		}
		for _, m := range isp.Metros {
			if m.Country != isp.Country {
				t.Errorf("%s: metro %s outside home country %s", isp.Name, m.Code, isp.Country)
			}
		}
	}
}

func TestProvidersResolve(t *testing.T) {
	w := tinyWorld(t)
	for _, isp := range w.ISPList() {
		for _, p := range isp.Providers {
			prov, ok := w.ISPs[p]
			if !ok {
				t.Fatalf("%s: provider AS %d does not exist", isp.Name, p)
			}
			if prov.Tier >= isp.Tier {
				t.Errorf("%s (%s): provider %s is not upstream tier", isp.Name, isp.Tier, prov.Tier)
			}
		}
	}
}

func TestPrefixOwnershipConsistent(t *testing.T) {
	w := tinyWorld(t)
	for _, isp := range w.ISPList() {
		for _, p := range isp.Prefixes {
			for _, s := range p.Slash24s() {
				// Both edges of every /24 must resolve through the interval
				// index to the announcing AS.
				for _, addr := range []netaddr.Addr{s.First(), s.Last()} {
					owner, ok := w.OwnerOf(addr)
					if !ok {
						t.Fatalf("%s: address %s in announced /24 %s unowned", isp.Name, addr, s)
					}
					if owner != isp.ASN {
						t.Fatalf("%s: address %s owned by AS %d", isp.Name, addr, owner)
					}
				}
			}
		}
	}
	// Addresses outside every announcement stay unrouted.
	if _, ok := w.OwnerOf(netaddr.MustPrefix("1.2.3.0/24").First()); ok {
		t.Error("unannounced address resolved to an owner")
	}
}

func TestPrefixesDisjointAcrossISPs(t *testing.T) {
	w := tinyWorld(t)
	var all []netaddr.Prefix
	owners := make(map[netaddr.Prefix]ASN)
	for _, isp := range w.ISPList() {
		for _, p := range isp.Prefixes {
			all = append(all, p)
			owners[p] = isp.ASN
		}
	}
	netaddr.SortPrefixes(all)
	for i := 1; i < len(all); i++ {
		if all[i-1].Overlaps(all[i]) && owners[all[i-1]] != owners[all[i]] {
			t.Fatalf("prefixes overlap across ISPs: %s (AS%d) and %s (AS%d)",
				all[i-1], owners[all[i-1]], all[i], owners[all[i]])
		}
	}
}

func TestOwnerOf(t *testing.T) {
	w := tinyWorld(t)
	isp := w.AccessISPs()[0]
	addr := isp.Prefixes[0].First() + 5
	as, ok := w.OwnerOf(addr)
	if !ok || as != isp.ASN {
		t.Errorf("OwnerOf(%s) = %d,%v want %d", addr, as, ok, isp.ASN)
	}
	if _, ok := w.OwnerOf(netaddr.AddrFrom4(203, 0, 113, 1)); ok {
		t.Error("unrouted address should have no owner")
	}
}

func TestIXPMembership(t *testing.T) {
	w := tinyWorld(t)
	totalMembers := 0
	for _, x := range w.IXPList() {
		totalMembers += len(x.MemberAddr)
		for as, addr := range x.MemberAddr {
			if !x.Fabric.Contains(addr) {
				t.Errorf("IXP %s: member AS%d addr %s outside fabric %s", x.Name, as, addr, x.Fabric)
			}
			if _, ok := w.ISPs[as]; !ok {
				t.Errorf("IXP %s: member AS%d does not exist", x.Name, as)
			}
		}
		// Fabric addresses must be unique.
		seen := make(map[netaddr.Addr]bool)
		for _, addr := range x.MemberAddr {
			if seen[addr] {
				t.Errorf("IXP %s: duplicate fabric address %s", x.Name, addr)
			}
			seen[addr] = true
		}
	}
	if totalMembers == 0 {
		t.Error("no IXP has any members")
	}
	// Membership lists on ISPs agree with MemberAddr maps.
	for _, isp := range w.ISPList() {
		for _, id := range isp.IXPs {
			if !memberOf(w, isp.ASN, id) {
				t.Errorf("%s claims membership of IXP %d but exchange disagrees", isp.Name, id)
			}
		}
	}
}

func TestIXPOf(t *testing.T) {
	w := tinyWorld(t)
	for _, x := range w.IXPList() {
		for as, addr := range x.MemberAddr {
			gx, gas, ok := w.IXPOf(addr)
			if !ok || gx.ID != x.ID || gas != as {
				t.Fatalf("IXPOf(%s) = %v,%d,%v want %d,%d", addr, gx, gas, ok, x.ID, as)
			}
			break
		}
	}
	if _, _, ok := w.IXPOf(netaddr.AddrFrom4(1, 2, 3, 4)); ok {
		t.Error("non-fabric address resolved to an IXP")
	}
}

func TestAddContentAS(t *testing.T) {
	w := tinyWorld(t)
	as, err := w.AddContentAS("hg-google", geo.Metros[:5], 16)
	if err != nil {
		t.Fatal(err)
	}
	isp := w.ISPs[as]
	if isp == nil || isp.Tier != TierContent {
		t.Fatalf("content AS not registered: %+v", isp)
	}
	if len(isp.Prefixes) == 0 {
		t.Fatal("content AS has no prefixes")
	}
	if got := len(contentASes(w)); got != 1 {
		t.Errorf("content ASes = %d, want 1", got)
	}
	as2, err := w.AddContentAS("hg-netflix", geo.Metros[:3], 8)
	if err != nil {
		t.Fatal(err)
	}
	if as2 == as {
		t.Error("second content AS reused ASN")
	}
}

func TestAllocHostIn(t *testing.T) {
	w := tinyWorld(t)
	isp := w.AccessISPs()[0]
	seen := make(map[netaddr.Addr]bool)
	for i := 0; i < 100; i++ {
		a, err := w.AllocHostIn(isp.ASN)
		if err != nil {
			t.Fatal(err)
		}
		if seen[a] {
			t.Fatalf("duplicate host address %s", a)
		}
		seen[a] = true
		owner, ok := w.OwnerOf(a)
		if !ok || owner != isp.ASN {
			t.Fatalf("host %s not in ISP space", a)
		}
	}
	if _, err := w.AllocHostIn(ASN(424242)); err == nil {
		t.Error("unknown AS should error")
	}
}

func TestAllocHostExhaustion(t *testing.T) {
	w := tinyWorld(t)
	// Find the smallest ISP (1 /24 = 256 addrs).
	var small *ISP
	for _, isp := range w.AccessISPs() {
		n := uint64(0)
		for _, p := range isp.Prefixes {
			n += p.NumAddrs()
		}
		if n == 256 {
			small = isp
			break
		}
	}
	if small == nil {
		t.Skip("no single-/24 ISP in this world")
	}
	for i := 0; i < 256; i++ {
		if _, err := w.AllocHostIn(small.ASN); err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
	}
	if _, err := w.AllocHostIn(small.ASN); err == nil {
		t.Error("exhausted ISP space should error")
	}
}

func TestJoinIXPExplicit(t *testing.T) {
	w := tinyWorld(t)
	as, err := w.AddContentAS("hg", nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := w.IXPList()[0]
	if err := w.JoinIXP(as, x.ID); err != nil {
		t.Fatal(err)
	}
	if !memberOf(w, as, x.ID) {
		t.Error("JoinIXP did not register membership")
	}
	// Idempotent.
	if err := w.JoinIXP(as, x.ID); err != nil {
		t.Errorf("re-join errored: %v", err)
	}
	if err := w.JoinIXP(ASN(424242), x.ID); err == nil {
		t.Error("unknown AS should error")
	}
	if err := w.JoinIXP(as, IXPID(9999)); err == nil {
		t.Error("unknown IXP should error")
	}
}

func TestSharedIXPs(t *testing.T) {
	w := tinyWorld(t)
	x := w.IXPList()[0]
	members := x.Members()
	if len(members) >= 2 {
		shared := w.SharedIXPs(members[0], members[1])
		found := false
		for _, id := range shared {
			if id == x.ID {
				found = true
			}
		}
		if !found {
			t.Errorf("SharedIXPs(%d,%d) missing IXP %d", members[0], members[1], x.ID)
		}
	}
}

func TestFacilitiesOf(t *testing.T) {
	w := tinyWorld(t)
	isp := w.AccessISPs()[0]
	fs := w.FacilitiesOf(isp.ASN)
	if len(fs) != len(isp.Facilities) {
		t.Fatalf("FacilitiesOf = %d, want %d", len(fs), len(isp.Facilities))
	}
	for _, f := range fs {
		if f.Owner != isp.ASN {
			t.Errorf("facility %s owned by AS%d", f.Name(), f.Owner)
		}
		if !f.Loc.Valid() {
			t.Errorf("facility %s: invalid location", f.Name())
		}
	}
	if fs := w.FacilitiesOf(ASN(424242)); fs != nil {
		t.Error("unknown AS should return nil facilities")
	}
}

func TestSomeISPsHaveMultipleFacilitiesInOneMetro(t *testing.T) {
	// The clustering pipeline must be able to tell apart facilities within a
	// city; the generator must produce that situation.
	w := Generate(TinyConfig(3))
	found := false
	for _, isp := range w.AccessISPs() {
		perMetro := make(map[string]int)
		for _, f := range w.FacilitiesOf(isp.ASN) {
			perMetro[f.Metro.Code]++
		}
		for _, n := range perMetro {
			if n >= 2 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no ISP has multiple facilities in one metro; clustering has nothing to separate")
	}
}

func TestUserAccounting(t *testing.T) {
	w := tinyWorld(t)
	cfg := TinyConfig(1)
	total := w.TotalUsers()
	if total < cfg.TotalUsers*0.99 || total > cfg.TotalUsers*1.01 {
		t.Errorf("TotalUsers = %v, want ≈%v", total, cfg.TotalUsers)
	}
	byCountry := w.CountryUsers()
	var sum float64
	for _, v := range byCountry {
		sum += v
	}
	if sum < total*0.999 || sum > total*1.001 {
		t.Errorf("country sum %v != total %v", sum, total)
	}
	set := map[ASN]bool{w.AccessISPs()[0].ASN: true, w.AccessISPs()[1].ASN: false}
	if got := w.UsersInISPs(set); got != w.AccessISPs()[0].Users {
		t.Errorf("UsersInISPs honours false entries: got %v", got)
	}
}

func TestTierString(t *testing.T) {
	cases := map[Tier]string{
		TierBackbone: "backbone",
		TierTransit:  "transit",
		TierAccess:   "access",
		TierContent:  "content",
		Tier(99):     "tier(99)",
	}
	for tier, want := range cases {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q, want %q", int(tier), got, want)
		}
	}
}

// orderSensitiveWorld holds eight one-user ISPs below one 1e16-user ISP.
// Float addition loses each 1 added to 1e16 (its ulp is 2), so only the
// ascending-ASN order, which adds the ones first, sums to exactly 1e16+8.
func orderSensitiveWorld() *World {
	w := &World{ISPs: make(map[ASN]*ISP)}
	for as := ASN(1); as <= 9; as++ {
		w.ISPs[as] = &ISP{ASN: as, Country: "US", Tier: TierAccess, Users: 1}
	}
	w.ISPs[9].Users = 1e16
	w.Reindex()
	return w
}

// TestUserSumsAscendingASN guards the determinism of user totals: a sum in
// map iteration order differs between calls on these values.
func TestUserSumsAscendingASN(t *testing.T) {
	w := orderSensitiveWorld()
	set := make(map[ASN]bool)
	for as := range w.ISPs {
		set[as] = true
	}
	const want = 1e16 + 8
	for i := 0; i < 50; i++ {
		if got := w.UsersInISPs(set); got != want {
			t.Fatalf("UsersInISPs = %v, want %v", got, want)
		}
		if got := w.TotalUsers(); got != want {
			t.Fatalf("TotalUsers = %v, want %v", got, want)
		}
		if got := w.CountryUsers()["US"]; got != want {
			t.Fatalf("CountryUsers[US] = %v, want %v", got, want)
		}
	}
	if got := SortedASNs(set); len(got) != 9 || got[0] != 1 || got[8] != 9 {
		t.Errorf("SortedASNs = %v, want 1..9", got)
	}
}
