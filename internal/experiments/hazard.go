package experiments

import (
	"context"
	"fmt"
	"time"

	"asynctp/internal/chop"
	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// UpdateUpdateHazard runs E4: the Section 3 example showing why
// Definition 1 forbids SC-cycles whose C edge joins two update pieces.
// It executes the paper's exact interleaving — p1¹ (debit X), then t2
// (post 10% interest to X and Y), then p1² (credit Y) — and shows the
// database ends in a state no serial order of {t1, t2} can produce:
// money is permanently destroyed. It then shows the ESR-chopping checker
// rejects the chopping statically.
func UpdateUpdateHazard() (*Report, error) {
	// X = Y = 1000, transfer 100, 10% interest — the paper's numbers.
	store := storage.NewFrom(map[storage.Key]metric.Value{"X": 1000, "Y": 1000})
	locks := lock.NewManager()
	exec := txn.NewExec(store, locks, nil)

	interest := func(v metric.Value) metric.Value { return v + v/10 }
	p11 := txn.MustProgram("t1/p1", txn.AddOp("X", -100))
	p12 := txn.MustProgram("t1/p2", txn.AddOp("Y", 100))
	t2 := txn.MustProgram("t2",
		txn.TransformOp("X", interest, metric.LimitOf(200)),
		txn.TransformOp("Y", interest, metric.LimitOf(200)),
	)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, p := range []*txn.Program{p11, t2, p12} {
		if _, err := exec.Run(ctx, locks.Locker(lock.Owner(i+1)), p, txn.Resolve(p, store, locks)); err != nil {
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
	}
	gotX, gotY := store.Get("X"), store.Get("Y")
	gotTotal := gotX + gotY

	// The two serial executions.
	serialT1First := metric.Value(990 + 1210)  // (900, 1100) then +10% each
	serialT2First := metric.Value(1000 + 1200) // +10% each, then transfer
	isSerial := gotTotal == serialT1First || gotTotal == serialT2First

	rep := &Report{
		ID:    "E4",
		Title: "Section 3 — update-update SC-cycle hazard executed and rejected",
		Table: newTable("execution", "X", "Y", "total"),
	}
	rep.Table.AddRow("serial t1;t2", "990", "1210", "2200")
	rep.Table.AddRow("serial t2;t1", "1000", "1200", "2200")
	rep.Table.AddRow("hazard p1¹;t2;p1²",
		fmt.Sprintf("%d", gotX), fmt.Sprintf("%d", gotY), fmt.Sprintf("%d", gotTotal))

	rep.Notes = append(rep.Notes,
		check(!isSerial, fmt.Sprintf(
			"the interleaving produced total %d — permanently inconsistent (both serial orders give 2200)",
			gotTotal)),
	)

	// Static rejection: the chopping fails Definition 1.
	a := chop.Analyze(chop.HazardExample())
	violations := a.CheckESR()
	hasUU := false
	for _, v := range violations {
		if v.Kind == "update-update" {
			hasUU = true
		}
	}
	rep.Notes = append(rep.Notes,
		check(hasUU, "the ESR-chopping checker rejects this chopping (update-update C edge on an SC-cycle)"),
		check(!a.IsESR(), "Definition 1 fails as required"),
	)
	return rep, nil
}
