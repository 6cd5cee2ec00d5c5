package explore

import (
	"fmt"
	"math/rand"
	"testing"

	"asynctp/internal/core"
	"asynctp/internal/metric"
	"asynctp/internal/oracle"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// randomRepairProgram builds a random 1..5-op program slanted toward
// the repair engine's hard cases: reads feeding AbortIf predicates
// (the rollback decision must survive repair), chains of commutative
// increments, and non-commuting transforms, all on the same four hot
// keys so interleavings conflict constantly.
func randomRepairProgram(rng *rand.Rand, name string) *txn.Program {
	nOps := rng.Intn(5) + 1
	ops := make([]txn.Op, 0, nOps)
	for oi := 0; oi < nOps; oi++ {
		key := fuzzKeys[rng.Intn(len(fuzzKeys))]
		switch rng.Intn(4) {
		case 0:
			ops = append(ops, txn.ReadOp(key))
		case 1:
			ops = append(ops, txn.AddOp(key, metric.Value(rng.Intn(7)-3)))
		case 2:
			d := metric.Value(rng.Intn(3) + 1)
			ops = append(ops, txn.TransformOp(key,
				func(v metric.Value) metric.Value { return v + d },
				metric.LimitOf(metric.Fuzz(d))))
		default:
			// A guarded withdrawal: the predicate decision depends on the
			// input value, so a repair that refreshes the input must also
			// re-decide the rollback.
			amt := metric.Value(rng.Intn(50) + 1)
			threshold := metric.Value(rng.Intn(200))
			ops = append(ops, txn.WithAbortIf(txn.AddOp(key, -amt),
				func(v metric.Value) bool { return v < threshold }))
		}
	}
	return txn.MustProgram(name, ops...)
}

// randomRepairScenario builds a workload for rdc's three policies only:
// DC baseline methods (no chopping), a per-run ε-ledger, and programs
// heavy on AbortIf and increment chains.
func randomRepairScenario(rng *rand.Rand, name string) Scenario {
	eps := metric.Fuzz(rng.Intn(600) + 200)
	nProgs := rng.Intn(2) + 2
	programs := make([]*txn.Program, nProgs)
	for pi := range programs {
		p := randomRepairProgram(rng, fmt.Sprintf("r%d", pi))
		if p.Class() == txn.Query {
			p = p.WithSpec(metric.Spec{Import: metric.LimitOf(eps), Export: metric.Zero})
		} else {
			p = p.WithSpec(metric.SpecOf(eps))
		}
		programs[pi] = p
	}
	nSubs := rng.Intn(3) + 2
	subs := make([]int, nSubs)
	for i := range subs {
		subs[i] = rng.Intn(nProgs)
	}
	initial := make(map[storage.Key]metric.Value, len(fuzzKeys))
	for _, k := range fuzzKeys {
		initial[k] = metric.Value(rng.Intn(1000) + 100)
	}
	method := core.BaselineSRCC
	if rng.Intn(2) == 0 {
		method = core.BaselineESRDC
	}
	engine := []core.EngineKind{
		core.EngineOptimistic, core.EngineRepair, core.EngineRepairSkip,
	}[rng.Intn(3)]
	return Scenario{
		Name:        name,
		Initial:     initial,
		Programs:    programs,
		Submissions: subs,
		Method:      method,
		Engine:      engine,
		Ledger:      true,
	}
}

// FuzzRepair drives random programs through random deterministic
// interleavings on the rdc engine under each of its policies and holds
// them to three oaths: the self-check (every install that absorbed
// nothing byte-identical to a fresh full re-execution —
// core.Config.VerifyRepairs, wired by explore.Run), the serial-replay
// ε-oracle (no divergence beyond budget; zero under SR specs), and
// ledger reconciliation (charged ≥ measured for every explainable
// query, so absorptions are honestly priced).
func FuzzRepair(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1995, 65599} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3; i++ {
			sc := randomRepairScenario(rng, fmt.Sprintf("repair/%d", i))
			runSeed := rng.Int63n(1 << 30)
			strategy := StrategyConflict
			if rng.Intn(3) == 0 {
				strategy = StrategyRandom
			}
			res, err := Run(sc, runSeed, strategy, oracle.Config{Seed: runSeed})
			if err != nil {
				t.Fatalf("%s/%s seed %d: %v", sc.Engine, sc.Method, runSeed, err)
			}
			if res.RepairMismatch != "" {
				t.Fatalf("%s/%s seed %d: repaired run diverged from fresh re-execution: %s",
					sc.Engine, sc.Method, runSeed, res.RepairMismatch)
			}
			if !res.Report.OK {
				t.Fatalf("%s/%s seed %d: oracle: %s", sc.Engine, sc.Method, runSeed, res.Report)
			}
			if res.Reconciliation != nil && !res.Reconciliation.AllCovered {
				t.Fatalf("%s/%s seed %d: ledger charged < measured ε", sc.Engine, sc.Method, runSeed)
			}
		}
	})
}
