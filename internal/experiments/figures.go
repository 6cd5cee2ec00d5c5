package experiments

import (
	"context"
	"fmt"
	"time"

	"asynctp/internal/chop"
	"asynctp/internal/core"
	"asynctp/internal/metric"
	"asynctp/internal/stats"
	"asynctp/internal/workload"
)

// newTable builds a stats table (thin alias to keep call sites short).
func newTable(header ...string) *stats.Table {
	return stats.NewTable(header...)
}

// Figure1 regenerates Figure 1's analysis: the example SR-chopping, its
// restricted/unrestricted pieces, and the static ε-distribution
// (Limit 51 over three restricted pieces → 17 each; ∞ elsewhere).
func Figure1() (*Report, error) {
	set := chop.Figure1Example()
	a := chop.Analyze(set)
	assign := chop.StaticDistribution(a)

	rep := &Report{
		ID:    "F1",
		Title: "Figure 1 — SR-chopping with C-cycles: restricted pieces and static ε split",
		Table: newTable("piece", "restricted (on C-cycle)", "static limit (import/export)"),
	}
	for _, v := range set.TxnPieces(0) {
		rep.Table.AddRow(
			set.Piece(v).Program.Name,
			fmt.Sprintf("%v", a.Restricted[v]),
			fmt.Sprintf("%s / %s", assign[v].Import, assign[v].Export),
		)
	}
	want17 := 0
	wantInf := 0
	for _, v := range set.TxnPieces(0) {
		if a.Restricted[v] && assign[v].Export.Cmp(metric.LimitOf(17)) == 0 {
			want17++
		}
		if !a.Restricted[v] && assign[v].Export.IsInfinite() {
			wantInf++
		}
	}
	rep.Notes = append(rep.Notes,
		check(!a.HasSCCycle, "the chopping is an SR-chopping (no SC-cycle)"),
		check(want17 == 3, "three restricted pieces each get 51/3 = 17 (paper's numbers)"),
		check(wantInf == 2, "two unrestricted pieces (p2, p4) get ∞"),
	)
	return rep, nil
}

// Figure3 regenerates Figure 3's computation: the S-edge weight from the
// C-edge weights on the SC-cycle (W_S = 2 + 8 = 10) and the Method 3
// budget reservation Limit^DC = 100 − 10 = 90.
func Figure3() (*Report, error) {
	set := chop.Figure3Example()
	a := chop.Analyze(set)
	rep := &Report{
		ID:    "F3",
		Title: "Figure 3 — inter-sibling fuzziness: W_S(s) = Σ W_C over CE(s)",
		Table: newTable("edge", "kind", "keys", "weight", "on SC-cycle"),
	}
	for _, e := range a.Edges {
		keys := ""
		for i, k := range e.Keys {
			if i > 0 {
				keys += ","
			}
			keys += string(k)
		}
		rep.Table.AddRow(
			fmt.Sprintf("%s — %s", set.Piece(e.U).Program.Name, set.Piece(e.V).Program.Name),
			e.Kind.String(), keys, e.Weight.String(), fmt.Sprintf("%v", e.InSCCycle),
		)
	}
	sEdge, ok := a.SEdgeBetween(set.Vertex(0, 0), set.Vertex(0, 1))
	dcl := a.DCLimit(0)
	rep.Notes = append(rep.Notes,
		check(ok && sEdge.Weight.Cmp(metric.LimitOf(10)) == 0,
			"W_S(p1—p2) = 2 + 8 = 10 (c2, c3 on the cycle but not incident, excluded)"),
		check(a.InterSibling[0].Cmp(metric.LimitOf(10)) == 0, "Z^is(t1) = 10"),
		check(dcl.Import.Cmp(metric.LimitOf(90)) == 0,
			"Equation 6: Limit^DC(t1) = 100 − 10 = 90"),
		check(a.IsESR() && !a.IsSR(), "the chopping is ESR-correct but not SR-correct"),
	)
	return rep, nil
}

// Figure2Distribution runs the static vs dynamic vs naive ε-distribution
// ablation (Sections 2.2.1–2.2.2): under divergence control with a tight
// ε, the static split can strand budget on one piece while another
// starves (extra blocking/retries); dynamic distribution passes leftover
// budget down the dependency tree; the naive split wastes budget on
// unrestricted pieces. Reported: throughput, retries, fuzzy grants, and
// refused (blocked) conflicts.
func Figure2Distribution(seed int64) (*Report, error) {
	w, err := workload.NewBank(workload.BankConfig{
		Branches: 1, AccountsPerBranch: 4,
		InitialBalance: 100000, TransferAmount: 100,
		TransferTypes: 2, TransferCount: 40, AuditCount: 20,
		Epsilon: 6000, IntraBranch: true, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "F2",
		Title: "Figure 2 — ε-distribution policy ablation under Method 1 (SR-chop + DC)",
		Table: newTable("policy", "throughput (tps)", "retries", "fuzzy grants", "refused", "max deviation"),
	}
	type row struct {
		name string
		dist core.Distribution
		tps  float64
	}
	rows := []row{
		{name: "static (restricted-only)", dist: core.Static},
		{name: "dynamic (Figure 2)", dist: core.Dynamic},
		{name: "proportional (exposure)", dist: core.Proportional},
		{name: "naive (even over all)", dist: core.Naive},
	}
	for i := range rows {
		cfg := workload.ConfigFor(w, core.Method1SRChopDC, rows[i].dist, false)
		cfg.OpDelay = 100 * time.Microsecond
		cfg.Obs, cfg.IDBase = obsPlane, obsPlane.IDBase()
		r, err := core.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		res, err := workload.Run(ctx, r, w, 12, seed)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", rows[i].name, err)
		}
		rows[i].tps = res.ThroughputTPS
		dcStats := r.DCStats()
		rep.Table.AddRow(
			rows[i].name,
			fmt.Sprintf("%.0f", res.ThroughputTPS),
			fmt.Sprintf("%d", res.Retries),
			fmt.Sprintf("%d", dcStats.Absorbed),
			fmt.Sprintf("%d", dcStats.Refused),
			fmt.Sprintf("%d", res.MaxDeviation),
		)
	}
	rep.Notes = append(rep.Notes,
		"shape claim: dynamic ≥ static ≥ naive in admitted concurrency; all bounded by ε",
		check(rows[1].tps > 0 && rows[0].tps > 0 && rows[2].tps > 0, "all policies complete the stream"),
	)
	return rep, nil
}
