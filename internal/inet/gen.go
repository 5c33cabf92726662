package inet

import (
	"math"
	"math/rand"
	"strconv"

	"offnetrisk/internal/geo"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/rngutil"
)

var (
	mWorldsGenerated = obs.NewCounter("inet.worlds_generated",
		"synthetic Internets generated")
	mISPsGenerated = obs.NewCounter("inet.isps_generated",
		"ISPs generated across all worlds")
)

// ASN ranges per role; content ASes (hypergiants) are added later via
// AddContentAS and live in their own range.
const (
	asnBackboneBase = 100
	asnTransitBase  = 1000
	asnAccessBase   = 10000
	asnContentBase  = 90000
)

// Generate builds a synthetic Internet from the configuration. One
// sequential builder draws every entity from a single RNG stream, so equal
// configs produce byte-identical worlds and every committed golden manifest
// depends on that draw order. See DESIGN.md §12.
func Generate(cfg Config) *World {
	cfg = cfg.sanitized()
	r := rngutil.New(cfg.Seed)

	w := newWorld(cfg.Seed)
	w.isps.Reserve(cfg.Backbones + cfg.TransitISPs + cfg.AccessISPs)
	w.facs.Reserve(2*cfg.TransitISPs + 2*cfg.AccessISPs)

	cat := catalogue{countries: geo.Countries()}
	cat.homes = make([][]geo.Metro, len(cat.countries))
	for i, cc := range cat.countries {
		cat.homes[i] = geo.MetrosIn(cc)
	}

	// Country weight: Internet population proxy — proportional to metro
	// count with noise, so countries with more catalogue metros host more
	// ISPs and users, approximating the APNIC skew.
	cat.weight = make([]float64, len(cat.countries))
	for i := range cat.countries {
		cat.weight[i] = float64(len(cat.homes[i])) * math.Exp(r.NormFloat64()*0.5)
	}

	w.genBackbones(cfg, r)
	// The exchanges are fixed once genIXPs has created them, so every later
	// loop walks this one ID-ordered list.
	cat.ixps = w.genIXPs(cfg, r)
	w.genTransits(cfg, r, &cat)
	w.genAccess(cfg, r, &cat)
	w.finalize()
	mWorldsGenerated.Inc()
	mISPsGenerated.Add(int64(len(w.ISPs)))
	return w
}

// catalogue holds what the generator's per-ISP loops read and never
// change: the countries, each one's weight and catalogue metros, and the
// exchanges in ID order.
type catalogue struct {
	countries []string
	weight    []float64
	homes     [][]geo.Metro
	ixps      []*IXP
}

// newWorld returns an empty world with fresh allocation pools.
func newWorld(seed int64) *World {
	return &World{
		Seed:        seed,
		ISPs:        make(map[ASN]*ISP),
		Facilities:  make(map[FacilityID]*Facility),
		IXPs:        make(map[IXPID]*IXP),
		ispPool:     netaddr.NewPool(netaddr.MustPrefix("16.0.0.0/4")),
		contentPool: netaddr.NewPool(netaddr.MustPrefix("8.0.0.0/9")),
		ixpPool:     netaddr.NewPool(netaddr.MustPrefix("198.32.0.0/13")),
		hostNext:    make(map[ASN]uint64),
	}
}

func (w *World) genBackbones(cfg Config, r *rand.Rand) {
	// Backbones are present "everywhere": give each a global metro sample.
	for i := 0; i < cfg.Backbones; i++ {
		as := ASN(asnBackboneBase + i)
		n := rngutil.IntBetween(r, 25, 45)
		idx := rngutil.SampleWithoutReplacement(r, len(geo.Metros), n)
		metros := make([]geo.Metro, 0, n)
		for _, j := range idx {
			metros = append(metros, geo.Metros[j])
		}
		isp := w.isps.Get()
		*isp = ISP{
			ASN:     as,
			Name:    "backbone-" + strconv.Itoa(i+1),
			Country: metros[0].Country,
			Tier:    TierBackbone,
			Metros:  metros,
		}
		w.allocPrefixes(isp, 8, w.ispPool)
		w.ISPs[as] = isp
	}
}

// ixpMetroOrder returns metro indices round-robin across countries (each
// country's first metro first), so even small worlds place exchanges on
// every continent the way real interconnection hubs cluster.
func ixpMetroOrder() []int {
	byCountry := make(map[string][]int)
	for i, m := range geo.Metros {
		byCountry[m.Country] = append(byCountry[m.Country], i)
	}
	countries := geo.Countries()
	var order []int
	for round := 0; len(order) < len(geo.Metros); round++ {
		added := false
		for _, cc := range countries {
			if round < len(byCountry[cc]) {
				order = append(order, byCountry[cc][round])
				added = true
			}
		}
		if !added {
			break
		}
	}
	return order
}

// genIXPs creates the exchanges and joins the backbones to them; it
// returns the exchanges in ID order.
func (w *World) genIXPs(cfg Config, r *rand.Rand) []*IXP {
	order := ixpMetroOrder()
	n := cfg.IXPs
	if n > len(order) {
		n = len(order)
	}
	for i := 0; i < n; i++ {
		m := geo.Metros[order[i]]
		fabric, err := w.ixpPool.AllocPrefix(23)
		if err != nil {
			break
		}
		id := IXPID(i + 1)
		w.IXPs[id] = &IXP{
			ID:           id,
			Name:         "ix-" + m.Code + "-" + strconv.Itoa(i+1),
			Metro:        m,
			Fabric:       fabric,
			MemberAddr:   make(map[ASN]netaddr.Addr),
			CapacityGbps: rngutil.LogNormal(r, math.Log(400), 0.7),
		}
	}
	// Backbones join most IXPs.
	ixps := w.sortedIXPs()
	for _, isp := range w.sortedISPs() {
		if isp.Tier != TierBackbone {
			continue
		}
		for _, x := range ixps {
			if rngutil.Bernoulli(r, 0.7) {
				w.joinIXP(isp, x)
			}
		}
	}
	return ixps
}

func (w *World) joinIXP(isp *ISP, x *IXP) {
	if _, ok := x.MemberAddr[isp.ASN]; ok {
		return
	}
	// Fabric addresses are handed out sequentially after the network addr.
	addr := x.Fabric.First() + netaddr.Addr(len(x.MemberAddr)+1)
	if addr > x.Fabric.Last()-1 {
		return // fabric full
	}
	x.MemberAddr[isp.ASN] = addr
	x.members = append(x.members, isp.ASN)
	isp.IXPs = append(isp.IXPs, x.ID)
}

func (w *World) genTransits(cfg Config, r *rand.Rand, cat *catalogue) {
	fid := FacilityID(1_000_000) // transit facility IDs live in their own range
	for i := 0; i < cfg.TransitISPs; i++ {
		as := ASN(asnTransitBase + i)
		ci := rngutil.WeightedChoice(r, cat.weight)
		cc, home := cat.countries[ci], cat.homes[ci]
		// Transit providers cover their home country and nearby spill.
		metros := append([]geo.Metro(nil), home...)
		extra := rngutil.IntBetween(r, 2, 6)
		idx := rngutil.SampleWithoutReplacement(r, len(geo.Metros), extra)
		for _, j := range idx {
			metros = append(metros, geo.Metros[j])
		}
		isp := w.isps.Get()
		*isp = ISP{
			ASN:     as,
			Name:    "transit-" + cc + "-" + strconv.Itoa(i+1),
			Country: cc,
			Tier:    TierTransit,
			Metros:  metros,
		}
		// One or two backbone providers.
		nProv := rngutil.IntBetween(r, 1, 2)
		provs := rngutil.SampleWithoutReplacement(r, cfg.Backbones, nProv)
		for _, p := range provs {
			isp.Providers = append(isp.Providers, ASN(asnBackboneBase+p))
		}
		w.allocPrefixes(isp, 4, w.ispPool)
		w.ISPs[as] = isp
		// Transit networks are heavy IXP joiners in their footprint.
		for _, x := range cat.ixps {
			if w.inFootprint(isp, x.Metro) && rngutil.Bernoulli(r, 0.6) {
				w.joinIXP(isp, x)
			}
		}
		// One or two POP facilities where transit providers can host
		// hypergiant offnets serving their downstream customers.
		nf := rngutil.IntBetween(r, 1, 2)
		for k := 0; k < nf; k++ {
			m := metros[k%len(metros)]
			fid++
			f := w.facs.Get()
			*f = Facility{
				ID:    fid,
				Owner: as,
				Metro: m,
				Loc:   jitterLoc(r, m.Loc, 0.15),
				Racks: rngutil.IntBetween(r, 8, 40),
			}
			w.Facilities[fid] = f
			isp.Facilities = append(isp.Facilities, fid)
		}
	}
}

func (w *World) genAccess(cfg Config, r *rand.Rand, cat *catalogue) {
	users := rngutil.Zipf(r, cfg.AccessISPs, cfg.ZipfExponent, cfg.TotalUsers)
	// Rank 0 = biggest ISP. Assign countries by weight; big ISPs prefer big
	// countries (first third of draws biased by squaring weights).
	sq := make([]float64, len(cat.weight))
	for i, v := range cat.weight {
		sq[i] = v * v
	}
	// genAccess adds no transit, so the transit lists hold for every ISP.
	transits, allTransits := w.transitsByCountry()
	// The exchange nearest each metro, looked up once per metro.
	nearest := make(map[string]*IXP)

	var fid FacilityID
	for i := 0; i < cfg.AccessISPs; i++ {
		as := ASN(asnAccessBase + i)
		wsel := cat.weight
		if i < cfg.AccessISPs/3 {
			wsel = sq
		}
		ci := rngutil.WeightedChoice(r, wsel)
		cc, home := cat.countries[ci], cat.homes[ci]
		// Number of metros grows with size rank.
		nm := 1
		switch {
		case i < cfg.AccessISPs/20:
			nm = rngutil.IntBetween(r, min(2, len(home)), len(home))
		case i < cfg.AccessISPs/4:
			nm = rngutil.IntBetween(r, 1, min(3, len(home)))
		}
		if nm > len(home) {
			nm = len(home)
		}
		idx := rngutil.SampleWithoutReplacement(r, len(home), nm)
		metros := make([]geo.Metro, 0, nm)
		for _, j := range idx {
			metros = append(metros, home[j])
		}
		isp := w.isps.Get()
		*isp = ISP{
			ASN:     as,
			Name:    "access-" + cc + "-" + strconv.Itoa(i+1),
			Country: cc,
			Tier:    TierAccess,
			Users:   users[i],
			Metros:  metros,
		}
		// Providers: prefer in-country transit, fall back to any transit,
		// then backbone. Most access ISPs single-home; bigger ones multihome.
		nProv := 1
		if i < cfg.AccessISPs/5 {
			nProv = rngutil.IntBetween(r, 1, 2)
		}
		cands := transits[cc]
		if len(cands) == 0 {
			cands = allTransits
		}
		for _, j := range rngutil.SampleWithoutReplacement(r, len(cands), nProv) {
			isp.Providers = append(isp.Providers, cands[j])
		}
		if len(isp.Providers) == 0 {
			isp.Providers = append(isp.Providers, ASN(asnBackboneBase))
		}

		// Address space scales with users.
		n24 := int(math.Ceil(users[i] / cfg.UsersPerSlash24))
		if n24 < 1 {
			n24 = 1
		}
		if n24 > 512 {
			n24 = 512
		}
		w.allocPrefixes(isp, n24, w.ispPool)
		w.ISPs[as] = isp

		// Facilities: one per metro; ISPs in multiple metros or with large
		// user bases run extra facilities in their primary metro — exactly
		// the structure whose latency separability OPTICS must recover.
		for mi, m := range metros {
			extra := 0
			if mi == 0 && i < cfg.AccessISPs/10 && rngutil.Bernoulli(r, 0.5) {
				extra = rngutil.IntBetween(r, 1, 2)
			}
			for k := 0; k <= extra; k++ {
				fid++
				f := w.facs.Get()
				*f = Facility{
					ID:    fid,
					Owner: as,
					Metro: m,
					Loc:   jitterLoc(r, m.Loc, 0.15),
					Racks: rngutil.IntBetween(r, 4, 40),
				}
				w.Facilities[fid] = f
				isp.Facilities = append(isp.Facilities, fid)
			}
		}

		// IXP membership: probability rises with size. In-footprint
		// exchanges are preferred; ISPs with no domestic exchange remote-
		// peer at the geographically nearest one, the way ISPs without a
		// local hub interconnect at the big regional exchanges.
		joinP := 0.15 + 0.6*math.Exp(-float64(i)/float64(cfg.AccessISPs/4+1))
		joined := false
		for _, x := range cat.ixps {
			if w.inFootprint(isp, x.Metro) && rngutil.Bernoulli(r, joinP) {
				w.joinIXP(isp, x)
				joined = true
			}
		}
		if !joined && rngutil.Bernoulli(r, 0.35+joinP/2) {
			m := metros[0]
			x, ok := nearest[m.Code]
			if !ok {
				x = nearestIXP(cat.ixps, m.Loc)
				nearest[m.Code] = x
			}
			if x != nil {
				w.joinIXP(isp, x)
			}
		}
	}
}

// transitsByCountry returns the transit ASNs grouped by home country, and
// all of them, each list ascending.
func (w *World) transitsByCountry() (byCountry map[string][]ASN, all []ASN) {
	byCountry = make(map[string][]ASN)
	for _, isp := range w.sortedISPs() {
		if isp.Tier == TierTransit {
			byCountry[isp.Country] = append(byCountry[isp.Country], isp.ASN)
			all = append(all, isp.ASN)
		}
	}
	return byCountry, all
}

// nearestIXP returns the exchange of ixps closest to the location (the
// first on ties), or nil when there is none.
func nearestIXP(ixps []*IXP, loc geo.Point) *IXP {
	var best *IXP
	bestD := math.Inf(1)
	for _, x := range ixps {
		if d := geo.DistanceKm(loc, x.Metro.Loc); d < bestD {
			best, bestD = x, d
		}
	}
	return best
}

func (w *World) inFootprint(isp *ISP, m geo.Metro) bool {
	for _, im := range isp.Metros {
		if im.Code == m.Code {
			return true
		}
		if im.Country == m.Country {
			return true
		}
	}
	return false
}

func (w *World) allocPrefixes(isp *ISP, n24 int, pool *netaddr.Pool) {
	// Allocate in the largest aligned blocks possible to keep the prefix
	// table small: /16 chunks of 256 /24s, then /20s, then /24s.
	for n24 > 0 {
		var bits int
		switch {
		case n24 >= 256:
			bits, n24 = 16, n24-256
		case n24 >= 16:
			bits, n24 = 20, n24-16
		default:
			bits, n24 = 24, n24-1
		}
		p, err := pool.AllocPrefix(bits)
		if err != nil {
			return // address space exhausted; generation proceeds degraded
		}
		isp.Prefixes = append(isp.Prefixes, p)
		w.registerOwner(p.First(), p.Last(), isp.ASN)
	}
}

func jitterLoc(r *rand.Rand, p geo.Point, deg float64) geo.Point {
	return geo.Point{
		LatDeg: p.LatDeg + (r.Float64()*2-1)*deg,
		LonDeg: p.LonDeg + (r.Float64()*2-1)*deg,
	}
}
