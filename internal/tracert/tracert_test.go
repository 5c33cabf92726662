package tracert

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/inet"
	"offnetrisk/internal/netaddr"
	"offnetrisk/internal/obs"
	"offnetrisk/internal/rngutil"
	"offnetrisk/internal/scenario"
	"offnetrisk/internal/traffic"
)

func surveyTiny(t *testing.T, seed int64) (*hypergiant.Deployment, map[inet.ASN][]Trace, map[inet.ASN]ISPInference) {
	t.Helper()
	w := inet.Generate(inet.TinyConfig(seed))
	d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigFromScenario(scenario.Default(), seed)
	cfg.VMs = 24 // keep the tiny survey fast; coverage is still dense
	traces, err := SurveyContext(context.Background(), d, traffic.Google, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inf := Infer(w, traffic.Google, d.ContentAS[traffic.Google], traces)
	return d, traces, inf
}

func TestSurveyCoversEveryISP(t *testing.T) {
	d, traces, _ := surveyTiny(t, 1)
	for _, isp := range d.World.ISPList() {
		if isp.Tier == inet.TierContent {
			if _, ok := traces[isp.ASN]; ok {
				t.Errorf("content AS %d should not be a survey target", isp.ASN)
			}
			continue
		}
		if len(traces[isp.ASN]) == 0 {
			t.Errorf("no traceroutes toward %s", isp.Name)
		}
	}
}

func TestTracesStartInCloudAndReachTarget(t *testing.T) {
	d, traces, _ := surveyTiny(t, 1)
	w := d.World
	googleAS := d.ContentAS[traffic.Google]
	for as, list := range traces {
		tr := list[0]
		if len(tr.Hops) < 3 {
			t.Fatalf("trace to AS%d too short: %d hops", as, len(tr.Hops))
		}
		if owner, ok := w.OwnerOf(tr.Hops[0].Addr); !ok || owner != googleAS {
			t.Fatalf("first hop not in hypergiant space (owner %d)", owner)
		}
		last := tr.Hops[len(tr.Hops)-1]
		if owner, ok := w.OwnerOf(last.Addr); !ok || owner != as {
			t.Fatalf("last hop not in destination ISP (owner %d, want %d)", owner, as)
		}
		break
	}
}

func TestInferMatchesDeploymentGroundTruth(t *testing.T) {
	// ISPs with a PNI or IXP peering in the deployment should be classified
	// peer (or at worst possible, when silent routers hide the adjacency);
	// ISPs without any peering must never be classified as peers.
	d, _, inf := surveyTiny(t, 1)
	peered := make(map[inet.ASN]bool)
	viaPNI := make(map[inet.ASN]bool)
	viaIXP := make(map[inet.ASN]bool)
	for _, p := range d.Peerings {
		if p.HG != traffic.Google {
			continue
		}
		peered[p.ISP] = true
		if p.Kind == hypergiant.PeerPNI {
			viaPNI[p.ISP] = true
		} else {
			viaIXP[p.ISP] = true
		}
	}

	var peeredSeen, peeredMissed, falsePeers int
	for as, i := range inf {
		if peered[as] {
			switch i.Class {
			case ClassPeer:
				peeredSeen++
				if i.ViaPNI && !viaPNI[as] {
					t.Errorf("AS%d inferred PNI without one deployed", as)
				}
				if i.ViaIXP && !viaIXP[as] {
					t.Errorf("AS%d inferred IXP peering without one deployed", as)
				}
			default:
				peeredMissed++
			}
		} else if i.Class == ClassPeer {
			// Backbones interconnect with hypergiants implicitly; any other
			// peer classification without a deployed peering is a false
			// positive.
			if d.World.ISPs[as].Tier != inet.TierBackbone {
				falsePeers++
				t.Errorf("AS%d classified peer without any deployed peering", as)
			}
		}
	}
	if peeredSeen == 0 {
		t.Fatal("no deployed peering was discovered")
	}
	// With 24 VMs and stable silent routers a small miss rate is expected,
	// but most peerings must surface.
	if frac := float64(peeredSeen) / float64(peeredSeen+peeredMissed); frac < 0.7 {
		t.Errorf("discovered only %.2f of deployed peerings", frac)
	}
	_ = falsePeers
}

func TestStatsShapeMatchesSec421(t *testing.T) {
	// §4.2.1: 38.2% of Google-offnet ISPs peer, 13.3% possible, 48.4% no
	// evidence; 62.2% of peers via IXP, 42.5% IXP-only. Match loosely.
	d, _, inf := surveyTiny(t, 1)
	s := Stats(d, traffic.Google, inf)
	if s.HostsTotal == 0 {
		t.Fatal("no hosts")
	}
	frac := func(n int) float64 { return float64(n) / float64(s.HostsTotal) }
	if f := frac(s.HostsPeer); f < 0.2 || f > 0.65 {
		t.Errorf("peer fraction = %.2f, want ≈0.38", f)
	}
	if f := frac(s.HostsNoEvidence); f < 0.25 || f > 0.70 {
		t.Errorf("no-evidence fraction = %.2f, want ≈0.48", f)
	}
	if s.HostsPossible == 0 {
		t.Error("no possible-peering ISPs; silent routers should create some")
	}
	if s.HostsPeer+s.HostsPossible+s.HostsNoEvidence != s.HostsTotal {
		t.Error("host classes do not partition hosts")
	}
	if s.PeersTotal == 0 {
		t.Fatal("no peers at all")
	}
	if f := float64(s.PeersViaIXP) / float64(s.PeersTotal); f < 0.3 || f > 0.95 {
		t.Errorf("via-IXP fraction = %.2f, want ≈0.62", f)
	}
	if s.PeersOnlyIXP > s.PeersViaIXP {
		t.Error("IXP-only cannot exceed via-IXP")
	}
	// More networks peer than host offnets (paper: 9207 peers vs 4697
	// hosts) — at least, peers must extend beyond hosts.
	if s.PeersTotal <= s.HostsPeer {
		t.Errorf("peers (%d) should exceed peering hosts (%d): transit and non-host ISPs peer too",
			s.PeersTotal, s.HostsPeer)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[PeeringClass]string{
		ClassPeer: "peer", ClassPossible: "possible", ClassNoEvidence: "no-evidence",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestSurveyDeterministic(t *testing.T) {
	_, _, a := surveyTiny(t, 3)
	_, _, b := surveyTiny(t, 3)
	if len(a) != len(b) {
		t.Fatal("not deterministic")
	}
	for as, ia := range a {
		if b[as] != ia {
			t.Fatalf("inference for AS%d differs: %+v vs %+v", as, ia, b[as])
		}
	}
}

func TestConfigSanitized(t *testing.T) {
	c := Config{}.sanitized()
	if c.VMs != 112 || c.TargetsPerISP != 4 {
		t.Errorf("sanitized defaults wrong: %+v", c)
	}
	// Zero silent fraction is a legal "all interfaces respond" setting;
	// negative and ≥1 values fall back to the default.
	if c.SilentRouterFraction != 0 {
		t.Errorf("explicit zero silent fraction must be preserved: %+v", c)
	}
	c = Config{SilentRouterFraction: -0.5}.sanitized()
	if c.SilentRouterFraction != 0.15 {
		t.Errorf("negative silent fraction not defaulted: %+v", c)
	}
}

// inferOutcome is everything an inference leaves behind: its classes, the
// traceroutes it counted, every metric and funnel of obs.Default and the
// digest of the lineage records it sampled.
type inferOutcome struct {
	Inf     map[inet.ASN]ISPInference
	N       int
	Metrics map[string]obs.MetricValue
	Funnels []obs.FunnelSnapshot
	Lineage string
}

// observed runs infer with obs.Default reset and a fresh lineage recorder
// active, and returns what it left behind.
func observed(infer func() (map[inet.ASN]ISPInference, int)) inferOutcome {
	obs.Default.Reset()
	lr := obs.NewLineageRecorder()
	obs.SetLineage(lr)
	defer obs.SetLineage(nil)
	inf, n := infer()
	return inferOutcome{inf, n, obs.Default.Snapshot(), obs.Default.FunnelSnapshots(), lr.Digest()}
}

// TestSurveyInferMatchesSurveyThenInfer: the fused survey classifies each
// trace as it is issued and keeps none. On tiny seeds, clean and under heavy
// chaos, at 1, 2 and 8 workers, it must leave exactly what the two-step
// Infer(SurveyContext(...)) leaves at one worker: the inference map, the
// traceroute count, every metric and funnel of obs.Default, and the lineage
// digest.
func TestSurveyInferMatchesSurveyThenInfer(t *testing.T) {
	run := func(d *hypergiant.Deployment, cfg Config, fused bool) inferOutcome {
		return observed(func() (map[inet.ASN]ISPInference, int) {
			if fused {
				inf, n, err := SurveyInferContext(context.Background(), d, traffic.Google, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return inf, n
			}
			traces, err := SurveyContext(context.Background(), d, traffic.Google, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, list := range traces {
				n += len(list)
			}
			return Infer(d.World, traffic.Google, d.ContentAS[traffic.Google], traces), n
		})
	}
	for _, seed := range []int64{1, 42} {
		w := inet.Generate(inet.TinyConfig(seed))
		d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, profile := range []string{"off", "heavy"} {
			config := func(workers int) Config {
				cfg := ConfigFromScenario(scenario.Default(), seed)
				cfg.VMs = 8
				cfg.TargetsPerISP = 2
				cfg.Workers = workers
				if profile == "heavy" {
					cfg.Chaos = heavyInjector(t, seed)
				}
				return cfg
			}
			want := run(d, config(1), false)
			if want.N == 0 || len(want.Inf) == 0 || want.Lineage == obs.NewLineageRecorder().Digest() {
				t.Fatalf("seed %d chaos %s: empty survey or lineage", seed, profile)
			}
			for _, workers := range []int{1, 2, 8} {
				for _, fused := range []bool{false, true} {
					if !fused && workers == 1 {
						continue
					}
					got := run(d, config(workers), fused)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d chaos %s workers %d fused %v: outcome differs from the two-step survey at one worker",
							seed, profile, workers, fused)
					}
				}
			}
		}
	}
}

// TestTargetsOfMatchesSlash24s: indexing each prefix's /24s picks the
// targets listing them did, including prefixes longer than /24.
func TestTargetsOfMatchesSlash24s(t *testing.T) {
	reference := func(isp *inet.ISP, n int) []netaddr.Addr {
		var out []netaddr.Addr
		for _, p := range isp.Prefixes {
			for _, s := range p.Slash24s() {
				out = append(out, s.First()+1)
				if len(out) >= n {
					return out
				}
			}
		}
		return out
	}
	isps := inet.Generate(inet.TinyConfig(1)).ISPList()
	isps = append(isps, &inet.ISP{Prefixes: []netaddr.Prefix{
		netaddr.MustPrefix("16.0.1.128/25"),
		netaddr.MustPrefix("16.0.2.64/26"),
		netaddr.MustPrefix("16.0.4.0/22"),
	}})
	for _, isp := range isps {
		for _, n := range []int{1, 4, 7} {
			if got, want := targetsOf(isp, n), reference(isp, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, n=%d: targets %v, listing /24s gives %v", isp.Name, n, got, want)
			}
		}
	}
}

// referenceInfer is Infer as it was before inference mapped each hop once,
// kept verbatim with its two per-trace passes as the oracle: accountHops
// fed the hop accounting and classifyTrace scanned forward from every
// hypergiant hop, each calling mapHop on its own.
func referenceInfer(w *inet.World, hg traffic.HG, contentAS inet.ASN, traces map[inet.ASN][]Trace) map[inet.ASN]ISPInference {
	out := make(map[inet.ASN]ISPInference, len(traces))
	for as, list := range traces {
		inf := ISPInference{Class: ClassNoEvidence}
		for _, tr := range list {
			referenceAccountHops(w, as, tr)
			referenceClassifyTrace(w, contentAS, as, tr, &inf)
		}
		out[as] = inf
	}
	return out
}

func referenceAccountHops(w *inet.World, dst inet.ASN, tr Trace) {
	lr := obs.ActiveLineage()
	hopRecord := func(h Hop, outcome, reason string, build func() []obs.LineageKV) {
		group := fmt.Sprintf("isp=%d", dst)
		if outcome == obs.LineageDropped {
			group += "|reason=" + reason
		}
		lr.Record(fHops.Name(), group, h.Addr.String(), outcome, reason, build)
	}
	var unresp, unmapped, mapped, chaosSilent, chaosNoise int64
	for _, h := range tr.Hops {
		switch {
		case !h.Responded:
			if h.Chaos {
				chaosSilent++
				if lr != nil {
					hopRecord(h, obs.LineageDropped, "chaos_silent", nil)
				}
			} else {
				unresp++
				if lr != nil {
					hopRecord(h, obs.LineageDropped, "unresponsive", nil)
				}
			}
		default:
			if owner, viaIXP, ok := mapHop(w, h); ok {
				mapped++
				if lr != nil {
					owner, viaIXP := owner, viaIXP
					hopRecord(h, obs.LineageKept, "mapped", func() []obs.LineageKV {
						return []obs.LineageKV{
							{K: "owner_as", V: fmt.Sprint(owner)},
							{K: "via_ixp", V: fmt.Sprint(viaIXP)},
							{K: "dst_isp", V: fmt.Sprint(dst)},
						}
					})
				}
			} else if h.Chaos {
				chaosNoise++
				if lr != nil {
					hopRecord(h, obs.LineageDropped, "chaos_unmapped", nil)
				}
			} else {
				unmapped++
				if lr != nil {
					hopRecord(h, obs.LineageDropped, "unmapped", nil)
				}
			}
		}
	}
	fHops.In(int64(len(tr.Hops)))
	fHops.Out(mapped)
	fHopsUnresponsive.Add(unresp)
	fHopsUnmapped.Add(unmapped)
	if chaosSilent > 0 {
		fHops.Reason("chaos_silent").Add(chaosSilent)
	}
	if chaosNoise > 0 {
		fHops.Reason("chaos_unmapped").Add(chaosNoise)
	}
	mHopsMapped.Add(mapped)
}

func referenceClassifyTrace(w *inet.World, contentAS inet.ASN, target inet.ASN, tr Trace, inf *ISPInference) {
	for i := 0; i < len(tr.Hops)-1; i++ {
		h := tr.Hops[i]
		if !h.Responded {
			continue
		}
		owner, _, ok := mapHop(w, h)
		if !ok || owner != contentAS {
			continue
		}
		// Found a responsive hypergiant hop; look at what follows.
		j := i + 1
		sawGap := false
		for j < len(tr.Hops) {
			next := tr.Hops[j]
			if !next.Responded {
				sawGap = true
				j++
				continue
			}
			nOwner, viaIXP, nOK := mapHop(w, next)
			if !nOK {
				break
			}
			if nOwner == contentAS {
				// Still inside the hypergiant; continue from here.
				break
			}
			if nOwner == target {
				if sawGap {
					if inf.Class < ClassPossible {
						inf.Class = ClassPossible
					}
				} else {
					inf.Class = ClassPeer
					if viaIXP {
						inf.ViaIXP = true
					} else {
						inf.ViaPNI = true
					}
				}
			}
			break
		}
	}
}

// randomTraces draws short hop sequences toward each of a few ISPs from a
// pool that makes every case of the adjacency test likely: hypergiant,
// destination, other-ISP, fabric (member and vacant) and unrouted
// addresses, each silent, chaos-flagged or answering at random.
func randomTraces(t *testing.T, d *hypergiant.Deployment, seed int64) map[inet.ASN][]Trace {
	t.Helper()
	w := d.World
	r := rngutil.New(seed)
	content := w.ISPs[d.ContentAS[traffic.Google]].Prefixes[0].First()
	var fabric []netaddr.Addr
	for _, x := range w.IXPList() {
		fabric = append(fabric, x.Fabric.First()+1, x.Fabric.Last()-1)
		for _, as := range x.Members() {
			fabric = append(fabric, x.MemberAddr[as])
		}
	}
	out := make(map[inet.ASN][]Trace)
	isps := w.AccessISPs()
	for k := 0; k < 60; k++ {
		dst, other := isps[r.Intn(len(isps))], isps[r.Intn(len(isps))]
		pool := []netaddr.Addr{
			content + 2, content + 130,
			dst.Prefixes[0].First() + 241, dst.Prefixes[0].First() + 9,
			other.Prefixes[0].First() + 242,
			fabric[r.Intn(len(fabric))], fabric[r.Intn(len(fabric))],
			netaddr.AddrFrom4(203, 0, 113, 7),
		}
		for _, x := range w.IXPList() {
			if a, ok := x.MemberAddr[dst.ASN]; ok {
				pool = append(pool, a)
			}
		}
		for n := r.Intn(8); n >= 0; n-- {
			tr := Trace{Hops: make([]Hop, 1+r.Intn(7))}
			for i := range tr.Hops {
				tr.Hops[i] = Hop{Addr: pool[r.Intn(len(pool))], Responded: r.Intn(4) != 0, Chaos: r.Intn(5) == 0}
			}
			out[dst.ASN] = append(out[dst.ASN], tr)
		}
	}
	return out
}

// TestInferMatchesReference: one mapping per hop classifies and accounts
// every trace as the two-pass reference does — on tiny surveys, clean and
// under heavy chaos, and on random hop sequences — leaving the same
// inference map, metrics, funnels and lineage digest.
func TestInferMatchesReference(t *testing.T) {
	run := func(d *hypergiant.Deployment, traces map[inet.ASN][]Trace, infer func(*inet.World, traffic.HG, inet.ASN, map[inet.ASN][]Trace) map[inet.ASN]ISPInference) inferOutcome {
		return observed(func() (map[inet.ASN]ISPInference, int) {
			return infer(d.World, traffic.Google, d.ContentAS[traffic.Google], traces), 0
		})
	}
	for _, seed := range []int64{1, 42} {
		w := inet.Generate(inet.TinyConfig(seed))
		d, err := hypergiant.Deploy(w, hypergiant.Epoch2023, hypergiant.DeployConfigFromScenario(scenario.Default(), seed))
		if err != nil {
			t.Fatal(err)
		}
		cases := map[string]map[inet.ASN][]Trace{"random": randomTraces(t, d, seed)}
		for _, profile := range []string{"off", "heavy"} {
			cfg := ConfigFromScenario(scenario.Default(), seed)
			cfg.VMs = 8
			if profile == "heavy" {
				cfg.Chaos = heavyInjector(t, seed)
			}
			traces, err := SurveyContext(context.Background(), d, traffic.Google, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cases["survey-"+profile] = traces
		}
		for name, traces := range cases {
			want := run(d, traces, referenceInfer)
			if got := run(d, traces, Infer); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: Infer differs from the two-pass reference", seed, name)
			}
			classes := map[PeeringClass]int{}
			for _, inf := range want.Inf {
				classes[inf.Class]++
			}
			if name == "random" && (classes[ClassPeer] == 0 || classes[ClassPossible] == 0 || classes[ClassNoEvidence] == 0) {
				t.Fatalf("seed %d %s: classes %v do not cover peer, possible and no evidence", seed, name, classes)
			}
		}
	}
}
