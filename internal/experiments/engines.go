package experiments

import (
	"context"
	"fmt"
	"time"

	"asynctp/internal/core"
	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
	"asynctp/internal/workload"
)

// interestWorkload builds the abort-prone case: every transaction posts
// 1% interest to both hot accounts with TransformOp (non-commutative).
func interestWorkload() (*workload.Workload, error) {
	grow := func(v metric.Value) metric.Value { return v + v/100 }
	w := &workload.Workload{
		Name: "interest",
		Initial: map[storage.Key]metric.Value{
			"hot1": 100000, "hot2": 100000,
		},
		Expected: map[int]metric.Value{},
	}
	spec := metric.SpecOf(50000)
	for i := 0; i < 2; i++ {
		key := storage.Key(fmt.Sprintf("hot%d", i+1))
		p := txn.MustProgram(fmt.Sprintf("interest%d", i),
			txn.TransformOp(key, grow, metric.LimitOf(2000)),
			txn.TransformOp(storage.Key(fmt.Sprintf("hot%d", 2-i)), grow, metric.LimitOf(2000)),
		).WithSpec(spec)
		w.Programs = append(w.Programs, p)
		w.Counts = append(w.Counts, 40)
	}
	audit := txn.MustProgram("audit",
		txn.ReadOp("hot1"), txn.ReadOp("hot2")).WithSpec(spec)
	w.Programs = append(w.Programs, audit)
	w.Counts = append(w.Counts, 10)
	return w, nil
}

// EngineComparison runs E5, an ablation beyond the paper's prototype:
// the same workloads under lock-based divergence control (package dc)
// and the three policies of package rdc — optimistic (abort), repair
// and repair with ε-skip. Locking blocks at conflict time and never
// redoes work; optimistic never blocks readers but pays validation
// aborts under non-commuting write contention; repair re-executes only
// the stale ops, so contention costs repaired ops instead of
// whole-piece retries.
func EngineComparison(seed int64) (*Report, error) {
	rep := &Report{
		ID:    "E5",
		Title: "Ablation — lock-based vs optimistic divergence control",
		Table: newTable("workload", "engine", "tps", "retries", "absorbed", "max dev"),
	}
	type workloadCase struct {
		name string
		mk   func() (*workload.Workload, error)
	}
	cases := []workloadCase{
		{name: "bank (read-heavy)", mk: func() (*workload.Workload, error) {
			return workload.NewBank(workload.BankConfig{
				Branches: 1, AccountsPerBranch: 4,
				InitialBalance: 1000000, TransferAmount: 100,
				TransferTypes: 1, TransferCount: 20, AuditCount: 30,
				Epsilon: 8000, IntraBranch: true, Seed: seed,
			})
		}},
		{name: "bank (write-heavy)", mk: func() (*workload.Workload, error) {
			return workload.NewBank(workload.BankConfig{
				Branches: 1, AccountsPerBranch: 4,
				InitialBalance: 1000000, TransferAmount: 100,
				TransferTypes: 2, TransferCount: 40, AuditCount: 5,
				Epsilon: 8000, IntraBranch: true, Seed: seed,
			})
		}},
		// Non-commutative write contention: interest posting on two hot
		// accounts. Optimistic DC cannot absorb update-update conflicts
		// and must redo whole transactions; locking DC just queues.
		{name: "interest (non-commutative)", mk: interestWorkload},
	}
	for _, wc := range cases {
		w, err := wc.mk()
		if err != nil {
			return nil, err
		}
		for _, kind := range []core.EngineKind{
			core.EngineLocking, core.EngineOptimistic,
			core.EngineRepair, core.EngineRepairSkip,
		} {
			engine := kind.String() + "-dc"
			cfg := workload.ConfigFor(w, core.BaselineESRDC, core.Static, false)
			cfg.OpDelay = 100 * time.Microsecond
			cfg.Engine = kind
			cfg.Obs = obsPlane
			r, err := core.NewRunner(cfg)
			if err != nil {
				return nil, err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			res, err := workload.Run(ctx, r, w, 12, seed)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", wc.name, engine, err)
			}
			// rdc, any policy: stale reads charged to the budget instead of
			// aborted or repaired.
			absorbed := r.RDCStats().Absorbed
			if kind == core.EngineLocking {
				absorbed = r.DCStats().Absorbed
			}
			rep.Table.AddRow(
				wc.name, engine,
				fmt.Sprintf("%.0f", res.ThroughputTPS),
				fmt.Sprintf("%d", res.Retries),
				fmt.Sprintf("%d", absorbed),
				fmt.Sprintf("%d", res.MaxDeviation),
			)
			if res.MaxDeviation > 8000 {
				rep.Notes = append(rep.Notes,
					check(false, fmt.Sprintf("%s/%s exceeded ε: %d", wc.name, engine, res.MaxDeviation)))
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"shape claim: optimistic DC wins when aborts are rare (commuting writes, read-mostly);",
		"non-commutative write contention turns into validation aborts (retries) that locking avoids;",
		"repair-dc keeps the optimistic read path but re-executes only stale ops on conflict,",
		"so its retry column stays near zero even on the non-commutative case",
	)
	return rep, nil
}
