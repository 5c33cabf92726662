package offnetrisk

import (
	"context"
	"fmt"
	"strings"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/tracert"
	"offnetrisk/internal/traffic"
)

// PeeringSurveyResult reproduces §4.2.1 for one hypergiant (the paper can
// only measure from Google Cloud; we default to Google too).
type PeeringSurveyResult struct {
	Hypergiant string
	// Of ISPs hosting the hypergiant's offnets (paper: 38.2% / 13.3% /
	// 48.4% for Google).
	HostsTotal, HostsPeer, HostsPossible, HostsNoEvidence int
	// Of all inferred peers (paper: 9207 total, 62.2% via IXP, 42.5%
	// IXP-only).
	PeersTotal, PeersViaIXP, PeersOnlyIXP int
	Traceroutes                           int
}

// PeerPct returns the percent of offnet hosts classified as peers.
func (r *PeeringSurveyResult) PeerPct() float64 { return pct(r.HostsPeer, r.HostsTotal) }

// PossiblePct returns the percent classified as possible peers.
func (r *PeeringSurveyResult) PossiblePct() float64 { return pct(r.HostsPossible, r.HostsTotal) }

// NoEvidencePct returns the percent with no peering evidence.
func (r *PeeringSurveyResult) NoEvidencePct() float64 { return pct(r.HostsNoEvidence, r.HostsTotal) }

// ViaIXPPct returns the percent of peers seen over an exchange.
func (r *PeeringSurveyResult) ViaIXPPct() float64 { return pct(r.PeersViaIXP, r.PeersTotal) }

// OnlyIXPPct returns the percent of peers seen only over exchanges.
func (r *PeeringSurveyResult) OnlyIXPPct() float64 { return pct(r.PeersOnlyIXP, r.PeersTotal) }

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// PeeringSurveyContext runs the §4.2.1 traceroute campaign and inference
// for Google.
func (p *Pipeline) PeeringSurveyContext(ctx context.Context) (*PeeringSurveyResult, error) {
	return p.PeeringSurveyForContext(ctx, traffic.Google)
}

// PeeringSurveyForContext runs the survey for any hypergiant — something
// the paper could not do ("We cannot run measurements from Meta, Netflix,
// or Akamai") but the simulation can. The traceroute campaign fans out one
// destination ISP per task across p.Workers goroutines. Each hypergiant's
// survey is computed once per pipeline; later calls return it unchanged and
// must not modify it.
func (p *Pipeline) PeeringSurveyForContext(ctx context.Context, hg traffic.HG) (*PeeringSurveyResult, error) {
	return cached(&p.memo, memoKey{"peering-survey", int(hg)}, func() (*PeeringSurveyResult, error) {
		return p.peeringSurvey(ctx, hg)
	})
}

func (p *Pipeline) peeringSurvey(ctx context.Context, hg traffic.HG) (*PeeringSurveyResult, error) {
	root := p.span("peering-survey")
	root.SetAttr("hypergiant", hg.String())
	defer root.End()
	_, d, err := p.deployment(hypergiant.Epoch2023)
	if err != nil {
		return nil, err
	}
	cfg := tracert.ConfigFromScenario(p.spec(), p.Seed)
	cfg.Workers = p.Workers
	cfg.Chaos = p.Chaos
	if p.Scale == ScaleTiny {
		cfg.VMs = 24
	}
	// Each destination ISP's traces are classified as they are issued, so
	// one span covers the survey and the inference.
	sctx, sp := p.spanCtx(ctx, "peering-survey/traceroutes")
	inf, n, err := tracert.SurveyInferContext(sctx, d, hg, cfg)
	if err != nil {
		sp.End()
		return nil, err
	}
	st := tracert.Stats(d, hg, inf)
	sp.SetAttr("traceroutes", n)
	sp.SetAttr("peers_total", st.PeersTotal)
	sp.End()
	return &PeeringSurveyResult{
		Hypergiant:      hg.String(),
		HostsTotal:      st.HostsTotal,
		HostsPeer:       st.HostsPeer,
		HostsPossible:   st.HostsPossible,
		HostsNoEvidence: st.HostsNoEvidence,
		PeersTotal:      st.PeersTotal,
		PeersViaIXP:     st.PeersViaIXP,
		PeersOnlyIXP:    st.PeersOnlyIXP,
		Traceroutes:     n,
	}, nil
}

// String renders the survey in the paper's phrasing.
func (r *PeeringSurveyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4.2.1 peering survey (%s, %d traceroutes)\n", r.Hypergiant, r.Traceroutes)
	fmt.Fprintf(&b, "of %d ISPs with offnets: %d peer (%.1f%%), %d possible (%.1f%%), %d no evidence (%.1f%%)\n",
		r.HostsTotal, r.HostsPeer, r.PeerPct(), r.HostsPossible, r.PossiblePct(),
		r.HostsNoEvidence, r.NoEvidencePct())
	fmt.Fprintf(&b, "of %d peers: %d via IXP (%.1f%%), %d IXP-only (%.1f%%)\n",
		r.PeersTotal, r.PeersViaIXP, r.ViaIXPPct(), r.PeersOnlyIXP, r.OnlyIXPPct())
	return b.String()
}
