package hypergiant

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"offnetrisk/internal/geo"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/traffic"
)

// DeployConfig tunes the deployment layer.
type DeployConfig struct {
	// Seed drives all placement randomness. The same seed at both epochs
	// produces nested footprints (2023 extends 2021), matching the
	// longitudinal behaviour the 2021 paper observed.
	Seed int64
	// PeakMbpsPerUser is an ISP's total peak traffic per user; demand for a
	// hypergiant is users × share × this.
	PeakMbpsPerUser float64
	// ColocationPropensity is the probability that an ISP concentrates the
	// offnets it hosts in its primary interconnection facility (§3.1 gives
	// the operational reasons).
	ColocationPropensity float64
	// ResponsiveFraction is the probability a server answers pings; the
	// paper saw 249K/261K respond.
	ResponsiveFraction float64
	// AnycastFraction is the probability an address yields impossible
	// latencies (1.9K/261K in the paper).
	AnycastFraction float64
	// Mix is the traffic mix demand is computed against; the zero Mix means
	// the paper's published constants.
	Mix traffic.Mix
	// PNICapacityScale multiplies every private interconnect's capacity
	// (scenario knob; 0 means the neutral 1.0).
	PNICapacityScale float64
	// TransitCoverageScale scales how many transit providers host offnets
	// relative to the epoch's access coverage (0 means the default 0.8).
	TransitCoverageScale float64
	// Profiles overrides the hypergiants' deployment profiles; nil means the
	// compiled-in Profiles().
	Profiles map[traffic.HG]Profile
}

func (c DeployConfig) sanitized() DeployConfig {
	if c.PeakMbpsPerUser <= 0 {
		c.PeakMbpsPerUser = 0.3
	}
	if c.ColocationPropensity <= 0 || c.ColocationPropensity > 1 {
		c.ColocationPropensity = 0.86
	}
	if c.ResponsiveFraction <= 0 || c.ResponsiveFraction > 1 {
		c.ResponsiveFraction = 0.955
	}
	if c.AnycastFraction < 0 || c.AnycastFraction >= 1 {
		c.AnycastFraction = 0.007
	}
	c.Mix = c.Mix.Sanitized()
	if c.PNICapacityScale <= 0 {
		c.PNICapacityScale = 1.0
	}
	if c.TransitCoverageScale <= 0 || c.TransitCoverageScale > 1 {
		c.TransitCoverageScale = 0.8
	}
	if c.Profiles == nil {
		c.Profiles = Profiles()
	}
	return c
}

// Deploy places all four hypergiants' offnets into the world at the given
// epoch and wires up interconnection. It mutates the world (content ASes,
// IXP memberships, host address allocations), so deploy each epoch into a
// freshly generated world.
func Deploy(w *inet.World, epoch Epoch, cfg DeployConfig) (*Deployment, error) {
	cfg = cfg.sanitized()
	if epoch != Epoch2021 && epoch != Epoch2023 {
		return nil, fmt.Errorf("hypergiant: unknown epoch %d", epoch)
	}
	d := &Deployment{
		Epoch:     epoch,
		World:     w,
		ContentAS: make(map[traffic.HG]inet.ASN),
	}
	profiles := cfg.Profiles

	// Onnet content ASes, present at the biggest metros, members of the
	// larger exchanges.
	ixps := w.IXPList()
	sort.Slice(ixps, func(i, j int) bool { return ixps[i].CapacityGbps > ixps[j].CapacityGbps })
	for _, hg := range traffic.All {
		as, err := w.AddContentAS("hg-"+hg.String(), geo.Metros[:12], 32)
		if err != nil {
			return nil, fmt.Errorf("hypergiant: %s onnet: %w", hg, err)
		}
		d.ContentAS[hg] = as
		// Hypergiants are present at essentially every significant exchange
		// (Google peers at ~190 IXPs); join them all.
		for _, x := range ixps {
			if err := w.JoinIXP(as, x.ID); err != nil {
				return nil, fmt.Errorf("hypergiant: %s join %s: %w", hg, x.Name, err)
			}
		}
	}

	access := w.AccessISPs()
	// Stable per-ISP hosting propensity shared across hypergiants: ISPs good
	// at hosting one hypergiant are good at hosting others, producing the
	// heavy multi-hypergiant overlap of §3.1.
	propensity := make(map[inet.ASN]float64, len(access))
	for _, isp := range access {
		r := rngutil.New(cfg.Seed ^ int64(isp.ASN)*0x9e3779b9)
		propensity[isp.ASN] = math.Exp(r.NormFloat64() * 0.8)
	}

	// Per-ISP colocation policy, shared across hypergiants and epochs.
	primary := make(map[inet.ASN]inet.FacilityID, len(access))
	colocates := make(map[inet.ASN]bool, len(access))
	for _, isp := range access {
		r := rngutil.New(cfg.Seed ^ 0x5bf03635 ^ int64(isp.ASN)<<1)
		primary[isp.ASN] = primaryFacility(w, isp, r)
		colocates[isp.ASN] = rngutil.Bernoulli(r, cfg.ColocationPropensity)
	}

	for _, hg := range traffic.All {
		prof := profiles[hg]
		hosts := selectHosts(access, propensity, prof, epoch, cfg.Seed)
		for _, isp := range hosts {
			if err := deployInISP(d, prof, isp, isp.Users, primary[isp.ASN], colocates[isp.ASN], cfg); err != nil {
				return nil, err
			}
		}
	}

	// Transit-hosted offnets: hypergiants also place caches in transit
	// providers to serve "users downstream from a transit provider"
	// (§3.1). Providers are ranked by downstream population; coverage
	// scales with the access-network coverage of the epoch.
	var transits []*inet.ISP
	for _, isp := range w.ISPList() {
		if isp.Tier == inet.TierTransit && len(isp.Facilities) > 0 {
			transits = append(transits, isp)
		}
	}
	sort.Slice(transits, func(i, j int) bool {
		di, dj := w.DownstreamUsers(transits[i].ASN), w.DownstreamUsers(transits[j].ASN)
		if di != dj {
			return di > dj
		}
		return transits[i].ASN < transits[j].ASN
	})
	for _, hg := range traffic.All {
		prof := profiles[hg]
		n := int(math.Round(prof.Coverage[epoch] * cfg.TransitCoverageScale * float64(len(transits))))
		if n > len(transits) {
			n = len(transits)
		}
		for _, isp := range transits[:n] {
			down := w.DownstreamUsers(isp.ASN)
			if down <= 0 {
				continue
			}
			// Transit POPs host the offnets at their first facility; the
			// colocation logic reuses the access-network machinery.
			if err := deployInISP(d, prof, isp, down*0.5, isp.Facilities[0], true, cfg); err != nil {
				return nil, err
			}
		}
	}
	d.index()
	buildPeerings(d, cfg)
	return d, nil
}

// selectHosts ranks access ISPs by demand-weighted propensity and takes the
// epoch's coverage share. Because the score is epoch-independent, the 2023
// host set is a superset of 2021's, matching observed growth dynamics.
func selectHosts(access []*inet.ISP, propensity map[inet.ASN]float64, prof Profile, epoch Epoch, seed int64) []*inet.ISP {
	type scored struct {
		isp   *inet.ISP
		score float64
	}
	scoredISPs := make([]scored, 0, len(access))
	for _, isp := range access {
		r := rngutil.New(seed ^ int64(isp.ASN)<<3 ^ int64(prof.HG)*0x2545f491)
		// Per-(HG,ISP) noise on top of the shared propensity.
		noise := math.Exp(r.NormFloat64() * 0.6)
		scoredISPs = append(scoredISPs, scored{isp, isp.Users * propensity[isp.ASN] * noise})
	}
	sort.Slice(scoredISPs, func(i, j int) bool {
		if scoredISPs[i].score != scoredISPs[j].score {
			return scoredISPs[i].score > scoredISPs[j].score
		}
		return scoredISPs[i].isp.ASN < scoredISPs[j].isp.ASN
	})
	n := int(math.Round(prof.Coverage[epoch] * float64(len(access))))
	if n > len(scoredISPs) {
		n = len(scoredISPs)
	}
	out := make([]*inet.ISP, 0, n)
	for _, s := range scoredISPs[:n] {
		out = append(out, s.isp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// primaryFacility picks the ISP's main interconnection facility: one in a
// metro where the ISP is an IXP member (smaller ISPs "interconnect with
// other networks in only a single location and may situate offnets nearby"),
// falling back to the first facility.
func primaryFacility(w *inet.World, isp *inet.ISP, r interface{ Intn(int) int }) inet.FacilityID {
	fs := w.FacilitiesOf(isp.ASN)
	if len(fs) == 0 {
		return 0
	}
	for _, id := range isp.IXPs {
		x, ok := w.IXPs[id]
		if !ok {
			continue
		}
		for _, f := range fs {
			if f.Metro.Code == x.Metro.Code {
				return f.ID
			}
		}
	}
	return fs[r.Intn(len(fs))].ID
}

// deployInISP creates the hypergiant's servers inside one network.
// demandUsers is the population the deployment serves: the ISP's own users
// for access networks, the downstream customer base for transit providers.
func deployInISP(d *Deployment, prof Profile, isp *inet.ISP, demandUsers float64, primary inet.FacilityID, colocate bool, cfg DeployConfig) error {
	w := d.World
	r := rngutil.New(cfg.Seed ^ int64(isp.ASN)*31 ^ int64(prof.HG)*0x9e3779b9 ^ int64(d.Epoch))

	demandGbps := demandUsers * cfg.Mix.Share(prof.HG) * cfg.PeakMbpsPerUser / 1000
	nServers := int(math.Ceil(demandGbps / prof.ServerGbps))
	if nServers < 1 {
		nServers = 1
	}
	if nServers > prof.MaxServersPerISP {
		nServers = prof.MaxServersPerISP
	}

	// Sites: most deployments are single-site (§4.1); multi-metro ISPs get
	// extra sites with a hypergiant-specific probability.
	fs := w.FacilitiesOf(isp.ASN)
	if len(fs) == 0 {
		return fmt.Errorf("hypergiant: ISP %s has no facilities", isp.Name)
	}
	extraSiteP := extraSiteProbability(prof.HG)
	maxSites := 1
	if len(fs) > 1 && nServers > 1 {
		for s := 1; s < len(fs) && s < 4; s++ {
			if rngutil.Bernoulli(r, extraSiteP) {
				maxSites++
			}
		}
	}
	if maxSites > nServers {
		maxSites = nServers
	}

	// Facility per site. Site 0 follows the ISP's colocation policy; legacy
	// deployments (probability LegacySpread) land in a random facility
	// instead, recreating Akamai's partially colocated signature.
	siteFacility := make([]*inet.Facility, 0, maxSites)
	siteTags := make([]string, 0, maxSites)
	for s := 0; s < maxSites; s++ {
		var f *inet.Facility
		legacy := rngutil.Bernoulli(r, prof.LegacySpread)
		if s == 0 && colocate && !legacy {
			f = w.Facilities[primary]
		}
		if f == nil {
			// Random facility, preferring one not already used by this
			// deployment so extra sites are really distinct.
			perm := rngutil.SampleWithoutReplacement(r, len(fs), len(fs))
			for _, j := range perm {
				if !slices.Contains(siteFacility, fs[j]) {
					f = fs[j]
					break
				}
			}
			if f == nil {
				f = fs[perm[0]]
			}
		}
		siteFacility = append(siteFacility, f)
		siteTags = append(siteTags, f.Metro.Code+strconv.Itoa(1+int(f.ID)%89))
	}

	for i := 0; i < nServers; i++ {
		f, siteTag := siteFacility[i%len(siteFacility)], siteTags[i%len(siteTags)]
		addr, err := w.AllocHostIn(isp.ASN)
		if err != nil {
			// ISP space exhausted: deploy what fits.
			break
		}
		// Hypergiant gear concentrates in a small cage area rather than
		// spreading over the whole floor; sharing a rack across hypergiants
		// is "super common" per the paper's operator anecdote.
		cage := f.Racks
		if cage > 6 {
			cage = 6
		}
		s := &Server{
			Addr:         addr,
			HG:           prof.HG,
			ISP:          isp.ASN,
			Facility:     f.ID,
			Rack:         r.Intn(cage),
			SiteTag:      siteTag,
			Cert:         offnetCert(prof.HG, d.Epoch, siteTag, i, r),
			CapacityGbps: prof.ServerGbps,
			Responsive:   rngutil.Bernoulli(r, cfg.ResponsiveFraction),
			Anycast:      rngutil.Bernoulli(r, cfg.AnycastFraction),
		}
		d.Servers = append(d.Servers, s)
	}
	return nil
}

// extraSiteProbability is the chance, per further facility, that a
// multi-facility ISP gets one more site of the hypergiant.
func extraSiteProbability(hg traffic.HG) float64 {
	switch hg {
	case traffic.Google:
		return 0.38
	case traffic.Netflix:
		return 0.10
	case traffic.Meta:
		return 0.28
	case traffic.Akamai:
		return 0.40
	}
	return 0
}

// buildPeerings wires hypergiant↔ISP interconnection: PNIs for the biggest
// demands, IXP peerings where both sides share a fabric, nothing for roughly
// half the offnet hosts (§4.2.1 finds no peering evidence for 48.4% of ISPs
// with Google offnets).
func buildPeerings(d *Deployment, cfg DeployConfig) {
	w := d.World
	for _, hg := range traffic.All {
		hgAS := d.ContentAS[hg]
		hosts := d.HostISPs(hg)
		// Rank hosts by user population: the biggest eyeballs are the ones
		// hypergiants bother to interconnect with directly.
		ranked := append([]inet.ASN(nil), hosts...)
		sort.Slice(ranked, func(i, j int) bool {
			ui, uj := w.ISPs[ranked[i]].Users, w.ISPs[ranked[j]].Users
			if ui != uj {
				return ui > uj
			}
			return ranked[i] < ranked[j]
		})
		rank := make(map[inet.ASN]int, len(ranked))
		for i, as := range ranked {
			rank[as] = i
		}
		for _, as := range hosts {
			isp := w.ISPs[as]
			r := rngutil.New(cfg.Seed ^ int64(as)*131 ^ int64(hg)*0x85ebca6b)
			users := isp.Users
			if isp.Tier == inet.TierTransit {
				users = w.DownstreamUsers(as) * 0.5
			}
			demandGbps := users * cfg.Mix.Share(hg) * cfg.PeakMbpsPerUser / 1000

			// Peering probability decays with size rank; calibrated so
			// roughly half of hosting ISPs have some peering (§4.2.1 finds
			// peering or possible peering for 51.5% of Google hosts).
			frac := 1 - float64(rank[as])/float64(len(ranked))
			p := 0.28 + 0.70*frac*frac
			if !rngutil.Bernoulli(r, p) {
				continue
			}

			shared := w.SharedIXPs(hgAS, as)
			// Dedicated interconnects go to the top of the demand ranking;
			// the rest peer over shared fabrics where possible. Calibrated
			// toward §4.2.1: 62.2% of peers use an IXP somewhere, 42.5%
			// only appear connected through an IXP.
			wantPNI := frac > 0.55 || len(shared) == 0
			wantIXP := len(shared) > 0 && (!wantPNI || rngutil.Bernoulli(r, 0.35))
			if !wantPNI && !wantIXP {
				wantIXP = len(shared) > 0
				wantPNI = !wantIXP
			}
			// Interconnects are sized against the interdomain share of
			// demand — offnets absorb the cacheable part, so links carry
			// the steady-state remainder plus whatever spills.
			interdomain := demandGbps * cfg.Mix.SteadyInterdomainShare(hg)
			if wantPNI {
				d.Peerings = append(d.Peerings, Peering{
					HG: hg, ISP: as, Kind: PeerPNI,
					CapacityGbps: pniCapacity(r, interdomain) * cfg.PNICapacityScale,
				})
			}
			if wantIXP {
				x := shared[r.Intn(len(shared))]
				d.Peerings = append(d.Peerings, Peering{
					HG: hg, ISP: as, Kind: PeerIXP, IXP: x,
					CapacityGbps: interdomain * rngutil.Jitter(r, 0.8, 0.4),
				})
			}
		}

		// Non-hosting networks also peer: §4.2.1 finds 9207 ISPs peering
		// with Google, far more than the 4697 hosting offnets. Transit
		// providers peer heavily (they aggregate hypergiant traffic for
		// their customers); non-hosting access ISPs peer opportunistically
		// over shared fabrics.
		hostSet := make(map[inet.ASN]bool, len(hosts))
		for _, as := range hosts {
			hostSet[as] = true
		}
		for _, isp := range w.ISPList() {
			if hostSet[isp.ASN] || isp.Tier == inet.TierContent || isp.Tier == inet.TierBackbone {
				continue
			}
			r := rngutil.New(cfg.Seed ^ int64(isp.ASN)*977 ^ int64(hg)*0xc2b2ae35)
			shared := w.SharedIXPs(hgAS, isp.ASN)
			switch isp.Tier {
			case inet.TierTransit:
				if !rngutil.Bernoulli(r, 0.75) {
					continue
				}
				demand := isp.Users*cfg.Mix.Share(hg)*cfg.PeakMbpsPerUser/1000*cfg.Mix.SteadyInterdomainShare(hg) + 40
				if rngutil.Bernoulli(r, 0.6) {
					d.Peerings = append(d.Peerings, Peering{
						HG: hg, ISP: isp.ASN, Kind: PeerPNI,
						CapacityGbps: pniCapacity(r, demand) * cfg.PNICapacityScale,
					})
				}
				if len(shared) > 0 && rngutil.Bernoulli(r, 0.7) {
					d.Peerings = append(d.Peerings, Peering{
						HG: hg, ISP: isp.ASN, Kind: PeerIXP, IXP: shared[r.Intn(len(shared))],
						CapacityGbps: demand * rngutil.Jitter(r, 0.7, 0.4),
					})
				}
			case inet.TierAccess:
				if len(shared) == 0 || !rngutil.Bernoulli(r, 0.30) {
					continue
				}
				demand := isp.Users * cfg.Mix.Share(hg) * cfg.PeakMbpsPerUser / 1000 * cfg.Mix.SteadyInterdomainShare(hg)
				d.Peerings = append(d.Peerings, Peering{
					HG: hg, ISP: isp.ASN, Kind: PeerIXP, IXP: shared[r.Intn(len(shared))],
					CapacityGbps: demand * rngutil.Jitter(r, 0.7, 0.4),
				})
			}
		}
	}
}

// pniCapacity sizes a private interconnect relative to peak demand. §4.2.2:
// peak demand exceeded Google PNI capacity "by an average of at least 13%",
// and "10% of Meta PNI experienced periods in which traffic demand was twice
// the capacity". The mixture below reproduces both: most PNIs hover around
// demand, a tail is severely undersized.
func pniCapacity(r interface{ Float64() float64 }, demandGbps float64) float64 {
	u := r.Float64()
	switch {
	case u < 0.10:
		// Severely constrained: demand reaches 2× capacity.
		return demandGbps * (0.42 + 0.08*r.Float64())
	case u < 0.55:
		// Under-provisioned: capacity 70–100% of peak demand.
		return demandGbps * (0.70 + 0.30*r.Float64())
	default:
		// Comfortable: up to 40% headroom.
		return demandGbps * (1.0 + 0.40*r.Float64())
	}
}
