package inet

// The ordered views' oracles: each list accessor as it was before the
// world kept its views, sorting the maps on every call, and the
// downstream totals recomputed from scratch. checkViews compares a world's
// views and indexes with them after any mutation path.

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// referenceISPList is ISPList as it was: every ISP, sorted by ASN per call.
func referenceISPList(w *World) []*ISP {
	out := make([]*ISP, 0, len(w.ISPs))
	for _, isp := range w.ISPs {
		out = append(out, isp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// referenceAccessISPs is AccessISPs as it was.
func referenceAccessISPs(w *World) []*ISP {
	var out []*ISP
	for _, isp := range referenceISPList(w) {
		if isp.IsAccess() {
			out = append(out, isp)
		}
	}
	return out
}

// referenceFacilityList is FacilityList as it was.
func referenceFacilityList(w *World) []*Facility {
	out := make([]*Facility, 0, len(w.Facilities))
	for _, f := range w.Facilities {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// referenceIXPList is IXPList as it was.
func referenceIXPList(w *World) []*IXP {
	out := make([]*IXP, 0, len(w.IXPs))
	for _, x := range w.IXPs {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// referenceSharedIXPs is SharedIXPs as it was: every exchange, with both
// ASes looked up in its member map.
func referenceSharedIXPs(w *World, a, b ASN) []IXPID {
	var out []IXPID
	for _, x := range referenceIXPList(w) {
		if _, ok := x.MemberAddr[a]; !ok {
			continue
		}
		if _, ok := x.MemberAddr[b]; !ok {
			continue
		}
		out = append(out, x.ID)
	}
	return out
}

// referenceDownstream totals every AS's customer users from scratch, as
// indexDownstream does, over the reference ISP order.
func referenceDownstream(w *World) map[ASN]float64 {
	out := make(map[ASN]float64)
	for _, isp := range referenceISPList(w) {
		for i, prov := range isp.Providers {
			if !slices.Contains(isp.Providers[:i], prov) {
				out[prov] += isp.Users
			}
		}
	}
	return out
}

// memberOf reports whether the AS is a member of the IXP.
func memberOf(w *World, as ASN, id IXPID) bool {
	x, ok := w.IXPs[id]
	if !ok {
		return false
	}
	_, member := x.MemberAddr[as]
	return member
}

// contentASes returns the registered content-provider ASes, by ASN.
func contentASes(w *World) []*ISP {
	var out []*ISP
	for _, isp := range referenceISPList(w) {
		if isp.Tier == TierContent {
			out = append(out, isp)
		}
	}
	return out
}

// checkViews compares every ordered view and index of w with its
// reference: the list accessors element for element, the content count,
// the owner spans with the spans every ISP's prefixes announce, sorted,
// the fabric spans, the downstream totals bit for bit and the user
// totals. SharedIXPs is compared for every pair of ASes when all is set,
// and otherwise for every pair with a backbone or content side.
func checkViews(t testing.TB, label string, w *World, all bool) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", label, fmt.Sprintf(format, args...))
	}
	if got, want := w.ISPList(), referenceISPList(w); !slices.Equal(got, want) {
		fail("ISPList differs from the sorted map (%d vs %d ISPs)", len(got), len(want))
	}
	if got, want := w.AccessISPs(), referenceAccessISPs(w); !slices.Equal(got, want) {
		fail("AccessISPs differs from the reference (%d vs %d)", len(got), len(want))
	}
	if got, want := w.FacilityList(), referenceFacilityList(w); !slices.Equal(got, want) {
		fail("FacilityList differs from the reference (%d vs %d)", len(got), len(want))
	}
	if got, want := w.IXPList(), referenceIXPList(w); !slices.Equal(got, want) {
		fail("IXPList differs from the reference (%d vs %d)", len(got), len(want))
	}
	if got, want := w.nContent, len(contentASes(w)); got != want {
		fail("content count %d, want %d", got, want)
	}

	var spans []ownerSpan
	for _, isp := range referenceISPList(w) {
		for _, p := range isp.Prefixes {
			spans = append(spans, ownerSpan{first: p.First(), last: p.Last(), as: isp.ASN})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].first < spans[j].first })
	if !slices.Equal(w.owners, spans) {
		fail("owner spans are not the sorted announcements (%d vs %d spans)", len(w.owners), len(spans))
	}
	var fabrics []fabricSpan
	for _, x := range referenceIXPList(w) {
		fabrics = append(fabrics, fabricSpan{first: x.Fabric.First(), last: x.Fabric.Last(), id: x.ID})
	}
	sort.Slice(fabrics, func(i, j int) bool { return fabrics[i].first < fabrics[j].first })
	if !slices.Equal(w.fabrics, fabrics) {
		fail("fabric spans differ from the sorted fabrics")
	}
	want := referenceDownstream(w)
	if len(w.downstream) != len(want) {
		fail("%d downstream totals, want %d", len(w.downstream), len(want))
	}
	for as, v := range want {
		if got, ok := w.downstream[as]; !ok || got != v {
			fail("DownstreamUsers(AS%d) = %v, want %v", as, got, v)
		}
	}
	var total float64
	country := make(map[string]float64)
	for _, isp := range referenceAccessISPs(w) {
		total += isp.Users
		country[isp.Country] += isp.Users
	}
	if got := w.TotalUsers(); got != total {
		fail("TotalUsers = %v, want %v", got, total)
	}
	for cc, v := range w.CountryUsers() {
		if country[cc] != v {
			fail("CountryUsers[%s] = %v, want %v", cc, v, country[cc])
		}
	}

	isps := referenceISPList(w)
	for _, a := range isps {
		if !all && a.Tier != TierBackbone && a.Tier != TierContent {
			continue
		}
		for _, b := range isps {
			for _, pair := range [2][2]ASN{{a.ASN, b.ASN}, {b.ASN, a.ASN}} {
				got, want := w.SharedIXPs(pair[0], pair[1]), referenceSharedIXPs(w, pair[0], pair[1])
				if !slices.Equal(got, want) {
					fail("SharedIXPs(AS%d, AS%d) = %v, want %v", pair[0], pair[1], got, want)
				}
			}
		}
	}
}
