package coloc

import (
	"sort"

	"offnetrisk/internal/inet"
	"offnetrisk/internal/traffic"
)

// CountryShare is one country's row behind Figure 1: the fraction of the
// country's Internet users in ISPs hosting offnets from ≥2, ≥3, and all 4 of
// the hypergiants.
type CountryShare struct {
	Country    string
	Users      float64
	AtLeast2   float64
	AtLeast3   float64
	AllFour    float64
	AtLeastOne float64
}

// Figure1 aggregates hosting sets per country, weighted by ISP user
// population and summed in ascending-ASN order. hosting maps each ISP to the
// hypergiants it hosts (from the scan inference or deployment ground truth).
func Figure1(w *inet.World, hosting map[inet.ASN][]traffic.HG) []CountryShare {
	users := w.CountryUsers()
	type acc struct{ one, two, three, four float64 }
	per := make(map[string]*acc)
	for cc := range users {
		per[cc] = &acc{}
	}
	for _, as := range inet.SortedASNs(hosting) {
		isp, ok := w.ISPs[as]
		if !ok || !isp.IsAccess() {
			continue
		}
		hgs := hosting[as]
		a := per[isp.Country]
		if a == nil {
			a = &acc{}
			per[isp.Country] = a
		}
		n := len(dedupeHGs(hgs))
		if n >= 1 {
			a.one += isp.Users
		}
		if n >= 2 {
			a.two += isp.Users
		}
		if n >= 3 {
			a.three += isp.Users
		}
		if n >= 4 {
			a.four += isp.Users
		}
	}
	var out []CountryShare
	for cc, a := range per {
		total := users[cc]
		if total <= 0 {
			continue
		}
		out = append(out, CountryShare{
			Country:    cc,
			Users:      total,
			AtLeastOne: a.one / total,
			AtLeast2:   a.two / total,
			AtLeast3:   a.three / total,
			AllFour:    a.four / total,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Country < out[j].Country })
	return out
}

func dedupeHGs(hgs []traffic.HG) []traffic.HG {
	var present [traffic.NumHG]bool
	var out []traffic.HG
	for _, h := range hgs {
		if h >= 0 && h < traffic.NumHG && !present[h] {
			present[h] = true
			out = append(out, h)
		}
	}
	return out
}

// GlobalUserShares summarizes Figure 1 globally: the fraction of all users
// in ISPs hosting ≥1, ≥2, ≥3, and 4 hypergiants (§3.2 reports 76% of users
// are in ISPs with at least one offnet), summed in ascending-ASN order.
func GlobalUserShares(w *inet.World, hosting map[inet.ASN][]traffic.HG) (one, two, three, four float64) {
	var total float64
	for _, isp := range w.AccessISPs() {
		total += isp.Users
	}
	if total <= 0 {
		return
	}
	for _, as := range inet.SortedASNs(hosting) {
		isp, ok := w.ISPs[as]
		if !ok || !isp.IsAccess() {
			continue
		}
		n := len(dedupeHGs(hosting[as]))
		if n >= 1 {
			one += isp.Users
		}
		if n >= 2 {
			two += isp.Users
		}
		if n >= 3 {
			three += isp.Users
		}
		if n >= 4 {
			four += isp.Users
		}
	}
	return one / total, two / total, three / total, four / total
}
