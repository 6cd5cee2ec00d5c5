package explore

import (
	"fmt"
	"math/rand"

	"asynctp/internal/chop"
	"asynctp/internal/core"
	"asynctp/internal/metric"
	"asynctp/internal/oracle"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// The chopping fuzzer has two halves, both driven by one seed:
//
//   - FuzzChoppings cross-checks the biconnected-block SC-cycle
//     analysis and the restricted-piece computation against the
//     brute-force simple-cycle references (chop.ReferenceSCCycle,
//     chop.ReferenceRestricted) over random chopping sets.
//   - FuzzRuns drives random well-specified workloads end to end —
//     random programs, random method × engine × distribution, the
//     deterministic scheduler, the serial-replay ε-oracle — and demands
//     that every run conforms: a correctly budgeted stack must never
//     exceed its declared ε, whatever the workload.

// FuzzStats aggregates one fuzzing campaign.
type FuzzStats struct {
	// Choppings is the number of chopping sets analyzed; WithSCCycle
	// counts those containing an SC-cycle (coverage indicator).
	Choppings   int
	WithSCCycle int
	// Disagreements lists analysis-vs-reference mismatches, one message
	// each. Empty means the fast analysis agrees with brute force.
	Disagreements []string
	// Runs counts end-to-end explorations; Skipped counts workloads the
	// chopping search rejected (no valid ESR/SR chopping — not a bug).
	Runs    int
	Skipped int
	// Failures lists end-to-end conformance failures (oracle FAIL or
	// mechanical error), one message each.
	Failures []string
}

// OK reports whether the campaign found no disagreement and no failure.
func (st *FuzzStats) OK() bool {
	return len(st.Disagreements) == 0 && len(st.Failures) == 0
}

// String summarizes the campaign.
func (st *FuzzStats) String() string {
	verdict := "OK"
	if !st.OK() {
		verdict = "FAIL"
	}
	return fmt.Sprintf("fuzz %s: %d choppings (%d with SC-cycle, %d disagreements), %d runs (%d skipped, %d failures)",
		verdict, st.Choppings, st.WithSCCycle, len(st.Disagreements), st.Runs, st.Skipped, len(st.Failures))
}

var fuzzKeys = []storage.Key{"a", "b", "c", "d"}

// randomProgram builds a random 1..4-op program. Conflicts come from
// TransformOp (non-commuting writes); AddOps commute away and ReadOps
// only conflict with writes — mixing all three exercises every edge
// classification in conflictKeysAndWeight.
func randomProgram(rng *rand.Rand, name string) *txn.Program {
	nOps := rng.Intn(4) + 1
	ops := make([]txn.Op, 0, nOps)
	for oi := 0; oi < nOps; oi++ {
		key := fuzzKeys[rng.Intn(len(fuzzKeys))]
		switch rng.Intn(3) {
		case 0:
			ops = append(ops, txn.ReadOp(key))
		case 1:
			ops = append(ops, txn.AddOp(key, metric.Value(rng.Intn(7)-3)))
		default:
			d := metric.Value(rng.Intn(3) + 1)
			ops = append(ops, txn.TransformOp(key,
				func(v metric.Value) metric.Value { return v + d },
				metric.LimitOf(metric.Fuzz(d))))
		}
	}
	return txn.MustProgram(name, ops...)
}

// randomChopped chops p randomly: whole, finest, or a random cut set.
// Invalid cut sets (rollback-unsafe) fall back to the whole program —
// the point is graph variety, not cut validity.
func randomChopped(rng *rand.Rand, p *txn.Program) *chop.Chopped {
	switch rng.Intn(3) {
	case 0:
		return chop.Whole(p)
	case 1:
		return chop.Finest(p)
	default:
		var cuts []int
		for i := 1; i < len(p.Ops); i++ {
			if rng.Intn(2) == 0 {
				cuts = append(cuts, i)
			}
		}
		c, err := chop.FromCuts(p, cuts)
		if err != nil {
			return chop.Whole(p)
		}
		return c
	}
}

// FuzzChoppings analyzes n random chopping sets and cross-checks the
// SC-cycle verdict and the restricted-piece set against the brute-force
// references. Deterministic per seed.
func FuzzChoppings(seed int64, n int, st *FuzzStats) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		nProgs := rng.Intn(3) + 2
		chopped := make([]*chop.Chopped, nProgs)
		for pi := range chopped {
			chopped[pi] = randomChopped(rng, randomProgram(rng, fmt.Sprintf("p%d", pi)))
		}
		set, err := chop.NewSet(chopped...)
		if err != nil {
			// Programs are well-formed by construction; a Set error is a bug.
			st.Disagreements = append(st.Disagreements,
				fmt.Sprintf("chopping %d: NewSet: %v", i, err))
			continue
		}
		a := chop.Analyze(set)
		st.Choppings++
		if a.HasSCCycle {
			st.WithSCCycle++
		}
		if want := chop.ReferenceSCCycle(a); a.HasSCCycle != want {
			st.Disagreements = append(st.Disagreements,
				fmt.Sprintf("chopping %d: HasSCCycle=%v, reference=%v", i, a.HasSCCycle, want))
		}
		wantR := chop.ReferenceRestricted(a)
		for v := range wantR {
			if a.Restricted[v] != wantR[v] {
				st.Disagreements = append(st.Disagreements,
					fmt.Sprintf("chopping %d: Restricted[%d]=%v, reference=%v",
						i, v, a.Restricted[v], wantR[v]))
			}
		}
	}
}

// fuzzMethods and fuzzEngines are the stacks the end-to-end fuzzer
// samples. Alternative engines only run the DC baselines (they do not
// implement chopping-aware budget assignment).
var fuzzMethods = []core.Method{
	core.BaselineSRCC, core.BaselineESRDC, core.SRChopCC,
	core.Method1SRChopDC, core.Method2ESRChopCC, core.Method3ESRChopDC,
}

// randomScenario builds a random well-specified workload: 2–3 program
// types (updates with full ε-specs, possible read-only queries with
// import-only specs) and 2–4 submissions. ε is sampled generously above
// zero so divergence control has room to work and the conformance claim
// stays non-trivial.
func randomScenario(rng *rand.Rand, name string) Scenario {
	eps := metric.Fuzz(rng.Intn(600) + 200)
	nProgs := rng.Intn(2) + 2
	programs := make([]*txn.Program, nProgs)
	for pi := range programs {
		p := randomProgram(rng, fmt.Sprintf("f%d", pi))
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
	method := fuzzMethods[rng.Intn(len(fuzzMethods))]
	engine := core.EngineLocking
	if !method.UsesChopping() && rng.Intn(3) == 0 {
		engine = []core.EngineKind{
			core.EngineOptimistic, core.EngineRepair, core.EngineRepairSkip,
		}[rng.Intn(3)]
	}
	dist := core.Static
	if method.UsesDC() && rng.Intn(2) == 0 {
		dist = core.Dynamic
	}
	return Scenario{
		Name:         name,
		Initial:      initial,
		Programs:     programs,
		Submissions:  subs,
		Method:       method,
		Distribution: dist,
		Engine:       engine,
	}
}

// FuzzRuns drives n random workloads end to end under the deterministic
// scheduler and demands oracle conformance for every one. Workloads the
// chopping search rejects (no valid ESR/SR chopping exists) are skipped
// and counted; everything else must conform. Deterministic per seed.
func FuzzRuns(seed int64, n int, st *FuzzStats) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		sc := randomScenario(rng, fmt.Sprintf("fuzz/%d", i))
		runSeed := rng.Int63n(1 << 30)
		strategy := StrategyConflict
		if rng.Intn(3) == 0 {
			strategy = StrategyRandom
		}
		res, err := Run(sc, runSeed, strategy, oracle.Config{Seed: runSeed})
		if err != nil {
			// The chopping search legitimately rejects some streams (e.g.
			// update-update SC-cycles with no safe cut). That is the
			// analyzer doing its job, not a conformance failure.
			st.Skipped++
			continue
		}
		st.Runs++
		if !res.Report.OK {
			st.Failures = append(st.Failures,
				fmt.Sprintf("run %d (%s/%s/%s seed %d): %s",
					i, sc.Method, sc.Engine, sc.Distribution, runSeed, res.Report))
		}
		if !res.Grouped.Serializable && sc.Method == core.BaselineSRCC {
			st.Failures = append(st.Failures,
				fmt.Sprintf("run %d: SRCC produced non-serializable grouped history", i))
		}
		if res.RepairMismatch != "" {
			st.Failures = append(st.Failures,
				fmt.Sprintf("run %d (%s/%s seed %d): repair verify: %s",
					i, sc.Method, sc.Engine, runSeed, res.RepairMismatch))
		}
	}
}

// Fuzz runs the full campaign: choppings cross-checks plus runs
// end-to-end explorations, all derived from one seed.
func Fuzz(seed int64, choppings, runs int) *FuzzStats {
	st := &FuzzStats{}
	FuzzChoppings(seed, choppings, st)
	FuzzRuns(seed+1, runs, st)
	return st
}
