package explore

import (
	"context"
	"fmt"
	"hash/fnv"

	"asynctp/internal/core"
	"asynctp/internal/history"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/oracle"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// Scenario is one declared conformance workload: a job stream plus the
// method × engine combination to run it under.
type Scenario struct {
	// Name identifies the scenario in reports.
	Name string
	// Initial is the starting database state.
	Initial map[storage.Key]metric.Value
	// Programs is the declared transaction mix (each carries its ε-spec).
	Programs []*txn.Program
	// Submissions lists the instances to run, as indices into Programs.
	// Each submission becomes one scheduled worker.
	Submissions []int
	// Method, Distribution, Engine select the execution stack.
	Method       core.Method
	Distribution core.Distribution
	Engine       core.EngineKind
	// BudgetScale is the test-only mis-budget knob (core.Config).
	BudgetScale int
	// LockStripes overrides the lock manager's stripe count
	// (core.Config.LockStripes). Zero uses the default. The determinism
	// regression sweep runs the same seeds at 1 and at many stripes and
	// requires byte-identical fingerprints.
	LockStripes int
	// Ledger attaches a per-run ε-provenance ledger (obs.Ledger) and
	// reconciles it against the oracle's verdicts: Result.Reconciliation
	// then carries the per-query budgeted / charged / measured rows.
	Ledger bool
	// Base, when non-nil, shares its metrics registry and span store
	// with every run (cmd/conformance wires it from -spans/-metrics).
	// Each run records into a span store of its own, grafted into
	// Base's afterwards, so runs that reuse instance IDs stay separate
	// traces. The ledger stays per-run: reconciliation needs one run's
	// charges against that run's oracle verdicts.
	Base *obs.Plane
}

// Result is one explored run, fully checked.
type Result struct {
	// Scenario and Seed identify the run; one (scenario, seed, strategy)
	// triple reproduces one interleaving exactly.
	Scenario string
	Seed     int64
	Strategy Strategy
	// Steps is the number of scheduling decisions the run took.
	Steps int
	// Instances are the per-submission outcomes, in submission order.
	Instances []*core.InstanceResult
	// InstanceErrs holds per-submission errors (nil when clean).
	InstanceErrs []error
	// Report is the serial-replay ε-oracle's finding.
	Report *oracle.Report
	// Grouped is the grouped conflict-graph analysis of the same history.
	Grouped history.GroupedAnalysis
	// Reconciliation is the ledger-vs-oracle per-query view (nil unless
	// Scenario.Ledger).
	Reconciliation *obs.Reconciliation
	// RepairMismatch is the repair engine's first self-check failure:
	// every explored run executes with core.Config.VerifyRepairs, so a
	// repaired outcome that differs from a fresh full re-execution is
	// reported here ("" when clean or not a repair engine).
	RepairMismatch string
	// fingerprint material
	hash uint64
}

// Fingerprint returns a stable digest of the recorded history and the
// oracle verdict: two runs with equal fingerprints observed identical
// interleavings. The determinism regression check compares fingerprints
// across repeated runs of one seed.
func (r *Result) Fingerprint() string {
	return fmt.Sprintf("%s/seed=%d/%s/steps=%d/h=%016x/ok=%v",
		r.Scenario, r.Seed, r.Strategy, r.Steps, r.hash, r.Report.OK)
}

// Run executes sc once under the deterministic scheduler with the given
// seed and strategy, then checks the recorded history with the oracle
// and the grouped conflict checker.
func Run(sc Scenario, seed int64, strategy Strategy, ocfg oracle.Config) (*Result, error) {
	store := storage.NewFrom(sc.Initial)
	initial := store.Snapshot()
	sched := NewScheduler(seed, strategy)

	counts := make([]int, len(sc.Programs))
	for _, ti := range sc.Submissions {
		if ti < 0 || ti >= len(sc.Programs) {
			return nil, fmt.Errorf("explore: submission index %d out of range", ti)
		}
		counts[ti]++
	}
	for i := range counts {
		if counts[i] == 0 {
			counts[i] = 1 // declared but unsubmitted types still need a count
		}
	}
	var plane *obs.Plane
	if sc.Ledger || sc.Base != nil {
		var reg *obs.Registry
		if sc.Base != nil {
			reg = sc.Base.Metrics
		}
		var lg *obs.Ledger
		if sc.Ledger {
			lg = obs.NewLedger()
		}
		plane = obs.NewPlane(lg, reg)
		if sc.Base.SpansOn() {
			plane.EnableSpans(sc.Base.Spans.Proc(), 0)
		}
	}
	runner, err := core.NewRunner(core.Config{
		Method:        sc.Method,
		Distribution:  sc.Distribution,
		Store:         store,
		Programs:      sc.Programs,
		Counts:        counts,
		Record:        true,
		Engine:        sc.Engine,
		StepHook:      sched,
		WaitObserver:  sched,
		BudgetScale:   sc.BudgetScale,
		LockStripes:   sc.LockStripes,
		Obs:           plane,
		VerifyRepairs: true,
	})
	if err != nil {
		return nil, fmt.Errorf("explore: %s: %w", sc.Name, err)
	}

	res := &Result{
		Scenario:     sc.Name,
		Seed:         seed,
		Strategy:     strategy,
		Instances:    make([]*core.InstanceResult, len(sc.Submissions)),
		InstanceErrs: make([]error, len(sc.Submissions)),
	}
	ctx := context.Background()
	for i, ti := range sc.Submissions {
		i, ti := i, ti
		sched.Go(func() {
			out, err := runner.Submit(ctx, ti)
			// Safe without extra locking: exactly one worker runs at a
			// time and Run() synchronizes on the scheduler mutex.
			res.Instances[i] = out
			res.InstanceErrs[i] = err
		})
	}
	if err := sched.Run(); err != nil {
		return nil, fmt.Errorf("explore: %s seed %d: %w", sc.Name, seed, err)
	}
	res.Steps = sched.Steps()
	if sc.Base.SpansOn() {
		sc.Base.Spans.Graft(plane.Spans.Spans())
	}

	// Map each submission's group to its ORIGINAL program for the oracle.
	groupOf := runner.GroupOf()
	programs := make(map[history.Group]*txn.Program)
	for i, ti := range sc.Submissions {
		out := res.Instances[i]
		if out == nil || len(out.Outcomes) == 0 || out.Outcomes[0] == nil {
			continue
		}
		if g, ok := groupOf[out.Outcomes[0].Owner]; ok {
			programs[g] = sc.Programs[ti]
		}
	}
	txns, ops := runner.Recorder().Snapshot()
	rep, err := oracle.Check(oracle.Input{
		Txns: txns, Ops: ops,
		GroupOf: groupOf, Programs: programs, Initial: initial,
	}, ocfg)
	if err != nil {
		return nil, fmt.Errorf("explore: %s seed %d: oracle: %w", sc.Name, seed, err)
	}
	res.Report = rep
	res.Grouped = runner.Recorder().CheckGrouped(groupOf)
	if plane != nil {
		res.Reconciliation = plane.Ledger.Reconcile(rep)
	}
	res.RepairMismatch = runner.RepairVerifyFailure()
	res.hash = historyHash(ops)
	return res, nil
}

// historyHash digests the recorded operation sequence.
func historyHash(ops []history.Op) uint64 {
	h := fnv.New64a()
	for _, op := range ops {
		fmt.Fprintf(h, "%d:%d:%d:%s:%d:%d;", op.Seq, op.Owner, op.Kind, op.Key, op.Value, op.Old)
	}
	return h.Sum64()
}

// Sweep runs sc over seeds [1, seeds] with the given strategy and
// returns every result. It stops early and returns what it has when a
// run fails mechanically (scheduler error), never on an oracle FAIL —
// collecting violations is the point.
func Sweep(sc Scenario, seeds int, strategy Strategy, ocfg oracle.Config) ([]*Result, error) {
	var out []*Result
	for seed := int64(1); seed <= int64(seeds); seed++ {
		r, err := Run(sc, seed, strategy, ocfg)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
