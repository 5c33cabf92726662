package hypergiant

// The host views' oracles: HostISPs and HostingISPs as they were before the
// deployment kept its views, walking the index maps and sorting on every
// call, and the two accessors only tests read.

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"offnetrisk/internal/cert"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/traffic"
)

// referenceHostISPs is HostISPs as it was.
func referenceHostISPs(d *Deployment, hg traffic.HG) []inet.ASN {
	var out []inet.ASN
	for k := range d.byHGISP {
		if k.hg == hg {
			out = append(out, k.isp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// referenceHostingISPs is HostingISPs as it was.
func referenceHostingISPs(d *Deployment) []inet.ASN {
	out := make([]inet.ASN, 0, len(d.byISP))
	for as := range d.byISP {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkHostViews compares the server maps with the ones index built a
// server at a time, and HostISPs for every hypergiant and HostingISPs with
// their references, nil-ness included.
func checkHostViews(t testing.TB, label string, d *Deployment) {
	t.Helper()
	byISP := make(map[inet.ASN][]*Server)
	byHGISP := make(map[hgISP][]*Server)
	for _, s := range d.Servers {
		byISP[s.ISP] = append(byISP[s.ISP], s)
		k := hgISP{s.HG, s.ISP}
		byHGISP[k] = append(byHGISP[k], s)
	}
	if !maps.EqualFunc(d.byISP, byISP, slices.Equal) || !maps.EqualFunc(d.byHGISP, byHGISP, slices.Equal) {
		t.Fatalf("%s: the server maps differ from a server-at-a-time index", label)
	}
	for _, hg := range traffic.All {
		got, want := d.HostISPs(hg), referenceHostISPs(d, hg)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%s: HostISPs(%s) = %d ISPs, want %d", label, hg, len(got), len(want))
		}
	}
	if got, want := d.HostingISPs(), referenceHostingISPs(d); !slices.Equal(got, want) {
		t.Fatalf("%s: HostingISPs = %d ISPs, want %d", label, len(got), len(want))
	}
	if got := d.HostISPs(traffic.NumHG); got != nil {
		t.Fatalf("%s: HostISPs of an unknown hypergiant = %v, want nil", label, got)
	}
}

// memberOf reports whether the AS is a member of the IXP.
func memberOf(w *inet.World, as inet.ASN, id inet.IXPID) bool {
	x, ok := w.IXPs[id]
	if !ok {
		return false
	}
	_, member := x.MemberAddr[as]
	return member
}

// peeringsOf returns all interconnections between the hypergiant and ISP.
func peeringsOf(d *Deployment, hg traffic.HG, as inet.ASN) []Peering {
	var out []Peering
	for _, p := range d.Peerings {
		if p.HG == hg && p.ISP == as {
			out = append(out, p)
		}
	}
	return out
}

// hostCountDistribution returns, indexed by k, the number of ISPs hosting
// exactly k hypergiants (k = 0 unused). §3.1 tracks this distribution over
// time: "ISPs tended to host more hypergiants over time".
func hostCountDistribution(d *Deployment) [5]int {
	var out [5]int
	for as := range d.byISP {
		k := len(d.HGsIn(as))
		if k >= 1 && k <= 4 {
			out[k]++
		}
	}
	return out
}

// TestOffnetNamesMatchFormat holds the strconv-built site tags and
// certificate names to the fmt verbs they replace, over server indexes
// past three digits.
func TestOffnetNamesMatchFormat(t *testing.T) {
	for n := 0; n <= 1200; n++ {
		if got, want := zeroPad3(n), fmt.Sprintf("%03d", n); got != want {
			t.Fatalf("zeroPad3(%d) = %q, want %q", n, got, want)
		}
	}
	d := deployTiny(t, Epoch2023, 2)
	for _, s := range d.Servers {
		f := d.World.Facilities[s.Facility]
		if want := fmt.Sprintf("%s%d", f.Metro.Code, 1+int(f.ID)%89); s.SiteTag != want {
			t.Fatalf("server %s: site tag %q, want %q", s.Addr, s.SiteTag, want)
		}
	}
	for _, epoch := range []Epoch{Epoch2021, Epoch2023} {
		for i := 0; i < 1200; i += 7 {
			for _, c := range []struct {
				hg   traffic.HG
				want string
			}{
				{traffic.Google, fmt.Sprintf("r%d---sn-%s.googlevideo.com", i+1, "han14")},
				{traffic.Netflix, fmt.Sprintf("ipv4-c%03d-%s-isp.1.oca.nflxvideo.net", i+1, "han14")},
			} {
				if got := san(offnetCert(c.hg, epoch, "han14", i, nil)); got != c.want {
					t.Fatalf("%s %d server %d: %q, want %q", c.hg, epoch, i, got, c.want)
				}
			}
		}
	}
	for i := 0; i < 40; i++ {
		want := fmt.Sprintf("*.f%s-%d.fna.fbcdn.net", "han14", i%6+1)
		if c := offnetCert(traffic.Meta, Epoch2023, "han14", i, nil); c.SubjectCN != want || san(c) != want {
			t.Fatalf("Meta server %d: %q / %q, want %q", i, c.SubjectCN, san(c), want)
		}
	}
}

// san returns a certificate's first subject alternative name.
func san(c cert.Certificate) string { return c.DNSNames[0] }
