package experiments

import (
	"context"
	"fmt"
	"time"

	"asynctp/internal/core"
	"asynctp/internal/metric"
	"asynctp/internal/workload"
)

// table1Cell is one cell of the off-line × on-line matrix.
type table1Cell struct {
	method  core.Method
	offline string
	online  string
	paper   string // the class Table 1 claims
}

// Table1 regenerates Table 1 empirically: each cell's method runs the
// same declared banking stream with history recording; the recorded
// execution is then classified — serializable with respect to the
// original transactions (SR), or bounded-inconsistency (ESR) with the
// observed maximum query deviation within ε.
func Table1(seed int64) (*Report, error) {
	cells := []table1Cell{
		{method: core.SRChopCC, offline: "SR-chopping", online: "CC", paper: "SR"},
		{method: core.Method1SRChopDC, offline: "SR-chopping", online: "DC", paper: "ESR1"},
		{method: core.Method2ESRChopCC, offline: "ESR-chopping", online: "CC", paper: "ESR2"},
		{method: core.Method3ESRChopDC, offline: "ESR-chopping", online: "DC", paper: "ESR3"},
	}
	const (
		epsilon  = 6000
		xferAmt  = 100
		xferN    = 25
		auditN   = 10
		transfer = 2
	)
	w, err := workload.NewBank(workload.BankConfig{
		Branches: 1, AccountsPerBranch: 4,
		InitialBalance: 100000, TransferAmount: xferAmt,
		TransferTypes: transfer, TransferCount: xferN, AuditCount: auditN,
		Epsilon: epsilon, IntraBranch: true, Seed: seed,
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:    "T1",
		Title: "Table 1 — off-line chopping strategy × on-line control, classified empirically",
		Table: newTable("off-line", "on-line", "paper says", "pieces", "serializable w.r.t. T", "max query deviation", "ε", "verdict"),
	}
	for _, cell := range cells {
		cfg := workload.ConfigFor(w, cell.method, core.Static, true)
		// Operations take time while locks are held, so concurrent
		// interleavings (and hence fuzzy reads under DC) actually occur.
		cfg.OpDelay = 200 * time.Microsecond
		cfg.Obs, cfg.IDBase = obsPlane, obsPlane.IDBase()
		r, err := core.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		res, err := workload.Run(ctx, r, w, 12, seed)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", cell.method, err)
		}
		grouped := r.Recorder().CheckGrouped(r.GroupOf())
		pieces := 0
		for ti := 0; ti < r.Set().NumTxns(); ti++ {
			pieces += r.Set().Chopping(ti).NumPieces()
		}
		verdict := classify(grouped.Serializable, res.MaxDeviation, epsilon)
		rep.Table.AddRow(
			cell.offline, cell.online, cell.paper,
			fmt.Sprintf("%d", pieces),
			fmt.Sprintf("%v", grouped.Serializable),
			fmt.Sprintf("%d", res.MaxDeviation),
			fmt.Sprintf("%d", epsilon),
			verdict,
		)
		switch cell.paper {
		case "SR":
			rep.Notes = append(rep.Notes, check(grouped.Serializable && res.MaxDeviation == 0,
				fmt.Sprintf("%s/%s executes serializably w.r.t. the originals", cell.offline, cell.online)))
		default:
			rep.Notes = append(rep.Notes, check(res.MaxDeviation <= epsilon,
				fmt.Sprintf("%s/%s keeps every query within ε=%d (observed %d)",
					cell.offline, cell.online, epsilon, res.MaxDeviation)))
		}
	}
	return rep, nil
}

// classify labels an observed execution.
func classify(serializable bool, maxDev metric.Fuzz, epsilon metric.Fuzz) string {
	switch {
	case serializable && maxDev == 0:
		return "SR"
	case maxDev <= epsilon:
		return "ESR (bounded)"
	default:
		return "VIOLATION"
	}
}
