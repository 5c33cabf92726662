package offnetrisk

import (
	"context"
	"fmt"
	"strings"

	"offnetrisk/internal/hypergiant"
	"offnetrisk/internal/offnetmap"
	"offnetrisk/internal/scan"
	"offnetrisk/internal/traffic"
)

// Table1Row is one row of the paper's Table 1: ISPs hosting a hypergiant's
// offnets at both epochs, with ground truth for validation.
type Table1Row struct {
	Hypergiant  string
	ISPs2021    int
	ISPs2023    int
	GrowthPct   float64
	Truth2021   int // deployment ground truth (the real pipeline has none)
	Truth2023   int
	OffnetAddrs int // inferred offnet addresses in 2023
}

// Table1Result reproduces §2.2.
type Table1Result struct {
	Rows []Table1Row
	// TotalISPs2023 is the number of distinct ISPs hosting any offnet in
	// 2023 (paper: 5516); TotalAddrs the inferred offnet addresses
	// (paper: 261K).
	TotalISPs2023 int
	TotalAddrs    int
	// StaleRuleISPs2023 is what the unmodified 2021 methodology finds per
	// hypergiant on the 2023 scan — the §2.2 evasion ablation (Google and
	// Meta collapse to 0).
	StaleRuleISPs2023 map[string]int
}

// Table1Context runs the full §2.2 pipeline at both epochs: simulate the
// TLS scan, apply the epoch-appropriate inference rules, and assemble the
// table. The 2021 epoch uses the original rules; the 2023 epoch uses this
// paper's updated rules; the stale-rule ablation applies 2021 rules to 2023
// data. The scan simulation streams serially, so the context only gates
// entry. The result is computed once per pipeline; later calls return it
// unchanged and must not modify it.
func (p *Pipeline) Table1Context(ctx context.Context) (*Table1Result, error) {
	return cached(&p.memo, memoKey{"table1", 0}, func() (*Table1Result, error) { return p.table1(ctx) })
}

func (p *Pipeline) table1(ctx context.Context) (*Table1Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	root := p.span("table1")
	defer root.End()
	w21, d21, err := p.deployment(hypergiant.Epoch2021)
	if err != nil {
		return nil, err
	}
	w23, d23, err := p.deployment(hypergiant.Epoch2023)
	if err != nil {
		return nil, err
	}
	sp := p.span("table1/tls-scan")
	recs21, err := scan.Simulate(d21, scan.ConfigFromScenario(p.spec(), p.Seed))
	if err != nil {
		sp.End()
		return nil, err
	}
	recs23, err := scan.Simulate(d23, scan.ConfigFromScenario(p.spec(), p.Seed))
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetAttr("records_2021", len(recs21))
	sp.SetAttr("records_2023", len(recs23))
	sp.End()
	sp = p.span("table1/offnet-inference")
	// Pass labels keep the three classification passes apart in lineage
	// records; with lineage off they are inert.
	res21 := offnetmap.InferLineage(w21, recs21, offnetmap.Rules2021(), p.Chaos, "2021")
	res23 := offnetmap.InferLineage(w23, recs23, offnetmap.Rules2023(), p.Chaos, "2023")
	stale := offnetmap.InferLineage(w23, recs23, offnetmap.Rules2021(), p.Chaos, "stale-2021")
	sp.SetAttr("offnets_2023", len(res23.Offnets))
	sp.End()

	out := &Table1Result{StaleRuleISPs2023: make(map[string]int)}
	for _, row := range offnetmap.Table1(res21, res23) {
		out.Rows = append(out.Rows, Table1Row{
			Hypergiant:  row.HG.String(),
			ISPs2021:    row.ISPs2021,
			ISPs2023:    row.ISPs2023,
			GrowthPct:   row.GrowthPct(),
			Truth2021:   len(d21.HostISPs(row.HG)),
			Truth2023:   len(d23.HostISPs(row.HG)),
			OffnetAddrs: len(res23.AddrsOf(row.HG)),
		})
		out.StaleRuleISPs2023[row.HG.String()] = stale.ISPCount(row.HG)
	}
	out.TotalISPs2023 = len(res23.HostingISPs())
	out.TotalAddrs = len(res23.Offnets)
	return out, nil
}

// String renders the table the way the paper prints it.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: # of ISPs hosting offnets (inferred from TLS scans)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %9s   (stale 2021 rules on 2023 scan)\n",
		"Hypergiant", "2021", "2023", "growth")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10d %10d %+8.1f%%   %d\n",
			row.Hypergiant, row.ISPs2021, row.ISPs2023, row.GrowthPct,
			r.StaleRuleISPs2023[row.Hypergiant])
	}
	fmt.Fprintf(&b, "total: %d offnet addresses across %d ISPs (2023)\n",
		r.TotalAddrs, r.TotalISPs2023)
	return b.String()
}

// hgByName resolves a Table 1 row name back to its hypergiant.
func hgByName(name string) (traffic.HG, bool) {
	for _, hg := range traffic.All {
		if hg.String() == name {
			return hg, true
		}
	}
	return 0, false
}
