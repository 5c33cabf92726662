// Command explain answers "why is this number what it is" against a lineage
// capture (any cmd run with -lineage). It loads the JSONL file — verifying
// the schema, record count and digest — and prints the evidence chain behind
// the queried slice of the pipeline: every sampled decision whose group,
// subject or evidence mentions the queried ISP, hypergiant or address, in
// pipeline-stage order, with each involved stage's funnel underneath.
//
//	explain -lineage run.lineage.jsonl -isp 4444 -hg Google
//	explain -lineage run.lineage.jsonl -addr 10.3.7.12
//	explain -lineage run.lineage.jsonl -list
//
// Exit status: 0 when the query matched records, 1 when it matched none,
// 2 on usage errors or an unreadable/corrupt lineage file.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"offnetrisk/internal/obs"
)

// stageOrder lists the instrumented stages in pipeline order, so an evidence
// chain reads the way the data flowed: classification, then measurement
// filtering, then clustering, validation, peering, mitigation, steering.
var stageOrder = []string{
	"offnetmap.classify",
	"ping.filter",
	"ping.isp_gate",
	"coloc.pairs",
	"coloc.cluster",
	"rdns.metro",
	"tracert.hops",
	"cascade.mitigation",
	"steer.mapping",
}

func stageRank(stage string) int {
	for i, s := range stageOrder {
		if s == stage {
			return i
		}
	}
	return len(stageOrder)
}

func main() {
	lineagePath := flag.String("lineage", "", "lineage JSONL capture to query (required)")
	isp := flag.Int64("isp", 0, "filter to decisions about this ISP ASN")
	hg := flag.String("hg", "", "filter to decisions about this hypergiant (e.g. Google)")
	addr := flag.String("addr", "", "filter to decisions about this server address")
	stage := flag.String("stage", "", "filter to one lineage stage (e.g. offnetmap.classify)")
	list := flag.Bool("list", false, "print the run's funnels, then exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: explain -lineage <file.jsonl> [-isp <asn>] [-hg <name>] [-addr <ip>] [-stage <name>] [-list]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *lineagePath == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := obs.ReadLineageFile(*lineagePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "explain:", err)
		os.Exit(2)
	}
	fmt.Printf("lineage: %s — %d records, digest %s\n", *lineagePath, f.Summary.Records, f.Summary.Digest)

	if *list || (*isp == 0 && *hg == "" && *addr == "" && *stage == "") {
		printFunnels(f.Summary.Funnels)
		if !*list {
			fmt.Println("\n(no query given — pass -isp/-hg/-addr/-stage to print evidence chains)")
		}
		return
	}

	matched := query(f.Records, *isp, *hg, *addr, *stage)
	if len(matched) == 0 {
		fmt.Println("no lineage records match the query")
		os.Exit(1)
	}

	// Widen the chain: any address the direct matches name — as subject, as a
	// pair member, or as evidence — pulls in that address's decisions at every
	// other stage, so the output is the full story of the queried cell.
	if *addr == "" {
		matched = widenByAddr(f.Records, matched, *stage)
	}
	printChains(matched, f.Summary.Funnels)
}

// printFunnels renders the run's funnels: each lineage stage's counts are
// the funnel of the same name.
func printFunnels(funnels []obs.FunnelSnapshot) {
	fmt.Printf("\n%-22s %10s %10s %10s  drop breakdown\n", "stage", "in", "kept", "dropped")
	for _, s := range funnels {
		var reasons []string
		for _, d := range s.Drops {
			reasons = append(reasons, fmt.Sprintf("%s=%d", d.Reason, d.N))
		}
		breakdown := strings.Join(reasons, ", ")
		if breakdown == "" {
			breakdown = "—"
		}
		fmt.Printf("%-22s %10d %10d %10d  %s\n", s.Name, s.In, s.Out, s.Dropped(), breakdown)
	}
}

// tokens splits a group key ("hg=Google|isp=4444|pass=2023") into its
// key=value parts.
func tokens(group string) []string {
	if group == "" {
		return nil
	}
	return strings.Split(group, "|")
}

// query selects the records directly matching every given filter.
func query(recs []obs.LineageDecision, isp int64, hg, addr, stage string) []obs.LineageDecision {
	ispTok := fmt.Sprintf("isp=%d", isp)
	var out []obs.LineageDecision
	for _, r := range recs {
		if stage != "" && r.Stage != stage {
			continue
		}
		if isp != 0 && !mentions(r, ispTok) {
			continue
		}
		if hg != "" && !mentionsHG(r, hg) {
			continue
		}
		if addr != "" && !mentionsAddr(r, addr) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// mentions reports whether a key=value token appears in the record's group,
// as its subject, or as an evidence pair.
func mentions(r obs.LineageDecision, tok string) bool {
	if r.Subject == tok {
		return true
	}
	for _, t := range tokens(r.Group) {
		if t == tok {
			return true
		}
	}
	eq := strings.IndexByte(tok, '=')
	for _, kv := range r.Evidence {
		if eq > 0 && kv.K == tok[:eq] && kv.V == tok[eq+1:] {
			return true
		}
	}
	return false
}

// mentionsHG matches the hypergiant name case-insensitively against group
// tokens and hypergiant-valued evidence keys.
func mentionsHG(r obs.LineageDecision, hg string) bool {
	want := strings.ToLower(hg)
	for _, t := range tokens(r.Group) {
		if v, ok := strings.CutPrefix(t, "hg="); ok && strings.ToLower(v) == want {
			return true
		}
	}
	for _, kv := range r.Evidence {
		switch kv.K {
		case "hg", "hg_a", "hg_b", "offender":
			if strings.ToLower(kv.V) == want {
				return true
			}
		}
	}
	return false
}

// mentionsAddr matches an address against the subject (including pair
// subjects "a|b") and evidence values.
func mentionsAddr(r obs.LineageDecision, addr string) bool {
	for _, part := range strings.Split(r.Subject, "|") {
		if part == addr {
			return true
		}
	}
	for _, kv := range r.Evidence {
		if kv.V == addr {
			return true
		}
	}
	return false
}

// widenByAddr adds every record about an address the directly-matched
// records mention, preserving the stage filter if one was given.
func widenByAddr(all, matched []obs.LineageDecision, stage string) []obs.LineageDecision {
	addrs := make(map[string]bool)
	for _, r := range matched {
		for _, part := range strings.Split(r.Subject, "|") {
			if strings.Count(part, ".") == 3 || strings.Contains(part, ":") {
				addrs[part] = true
			}
		}
	}
	if len(addrs) == 0 {
		return matched
	}
	seen := make(map[string]bool, len(matched))
	for _, r := range matched {
		seen[key(r)] = true
	}
	for _, r := range all {
		if stage != "" && r.Stage != stage {
			continue
		}
		if seen[key(r)] {
			continue
		}
		for _, part := range strings.Split(r.Subject, "|") {
			if addrs[part] {
				matched = append(matched, r)
				seen[key(r)] = true
				break
			}
		}
	}
	return matched
}

func key(r obs.LineageDecision) string {
	return r.Stage + "\x00" + r.Group + "\x00" + r.Subject + "\x00" + r.Outcome + "\x00" + r.ReasonCode
}

// printChains renders the matched records grouped by stage in pipeline
// order, each with its evidence, followed by the involved stages' funnel
// totals.
func printChains(recs []obs.LineageDecision, funnels []obs.FunnelSnapshot) {
	sort.SliceStable(recs, func(i, j int) bool {
		ri, rj := stageRank(recs[i].Stage), stageRank(recs[j].Stage)
		if ri != rj {
			return ri < rj
		}
		if recs[i].Stage != recs[j].Stage {
			return recs[i].Stage < recs[j].Stage
		}
		if recs[i].Group != recs[j].Group {
			return recs[i].Group < recs[j].Group
		}
		return recs[i].Subject < recs[j].Subject
	})

	involved := make(map[string]bool)
	last := ""
	for _, r := range recs {
		involved[r.Stage] = true
		if r.Stage != last {
			fmt.Printf("\n== %s ==\n", r.Stage)
			last = r.Stage
		}
		head := r.Outcome
		if r.ReasonCode != "" {
			head += "/" + r.ReasonCode
		}
		fmt.Printf("  [%s] %s", head, r.Subject)
		if r.Group != "" {
			fmt.Printf("  (%s)", r.Group)
		}
		fmt.Println()
		for _, kv := range r.Evidence {
			fmt.Printf("      %s = %s\n", kv.K, kv.V)
		}
	}

	fmt.Printf("\n%d matching records across %d stages\n", len(recs), len(involved))
	for _, f := range funnels {
		if involved[f.Name] {
			fmt.Printf("  %s: in=%d kept=%d dropped=%d\n", f.Name, f.In, f.Out, f.Dropped())
		}
	}
}
