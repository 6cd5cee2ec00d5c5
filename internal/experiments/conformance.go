package experiments

import (
	"fmt"
	"strings"

	"asynctp/internal/core"
	"asynctp/internal/explore"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/oracle"
)

// ConformanceConfig parameterizes E8.
type ConformanceConfig struct {
	// Seed drives the scheduler sweeps and the fuzz campaign; one seed
	// reproduces the whole experiment, table and verdicts included.
	Seed int64
	// Seeds is how many scheduler seeds each scenario sweeps.
	Seeds int
	// Budget caps the oracle's serial-order enumeration per run.
	Budget int
	// FuzzChoppings and FuzzRuns size the fuzz campaign.
	FuzzChoppings int
	FuzzRuns      int
	// Plane, when non-nil, contributes a shared tracer and metrics
	// registry to every swept run (cmd/conformance wires it from
	// -trace/-metrics). Per-run ε-ledgers are independent of it.
	Plane *obs.Plane
}

// withDefaults fills zero fields.
func (cfg ConformanceConfig) withDefaults() ConformanceConfig {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 5
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 200
	}
	if cfg.FuzzChoppings <= 0 {
		cfg.FuzzChoppings = 1000
	}
	if cfg.FuzzRuns <= 0 {
		cfg.FuzzRuns = 40
	}
	return cfg
}

// conformanceEps is the bank scenario's declared ε.
const conformanceEps = 600

// sweepRow sweeps one scenario and summarizes it into a table row plus
// aggregate facts.
type sweepRow struct {
	maxDivergence metric.Fuzz
	orders        int
	allOK         bool
	allExhaustive bool
	violations    int
	namedAudit    bool
	fingerprint   string
	// ε-provenance reconciliation facts (Ledger scenarios only):
	// ledgerOver counts runs where the ledger flagged at least one
	// over-budget query; flaggedMissed counts oracle-flagged queries the
	// ledger did NOT flag; uncovered counts explainable queries whose
	// ledger charges fell short of the oracle's measured divergence.
	ledgerOver    int
	flaggedMissed int
	uncovered     int
	// repairMismatch is the first repair self-check failure across the
	// sweep ("" when clean; repair stacks only — explore.Run verifies
	// every repaired install against a fresh full re-execution).
	repairMismatch string
	// recon is a representative (first violating, else first) run's
	// per-query budgeted / charged / measured table.
	recon *obs.Reconciliation
	// reconViolating records whether recon came from an oracle-violating
	// run (preferred: those rows show measured > ε next to the flag).
	reconViolating bool
}

func sweepScenario(sc explore.Scenario, cfg ConformanceConfig) (*sweepRow, error) {
	sc.Base = cfg.Plane
	ocfg := oracle.Config{MaxOrders: cfg.Budget, Seed: cfg.Seed}
	results, err := explore.Sweep(sc, cfg.Seeds, explore.StrategyConflict, ocfg)
	if err != nil {
		return nil, err
	}
	row := &sweepRow{allOK: true, allExhaustive: true}
	for _, r := range results {
		if d := r.Report.MaxQueryDivergence; d > row.maxDivergence {
			row.maxDivergence = d
		}
		if r.Report.Orders > row.orders {
			row.orders = r.Report.Orders
		}
		if !r.Report.OK {
			row.allOK = false
			row.violations++
			for _, v := range r.Report.Violations() {
				if v.Name == "audit" {
					row.namedAudit = true
				}
			}
		}
		if !r.Report.Exhaustive {
			row.allExhaustive = false
		}
		if r.RepairMismatch != "" && row.repairMismatch == "" {
			row.repairMismatch = r.RepairMismatch
		}
		if rec := r.Reconciliation; rec != nil {
			if len(rec.OverBudget) > 0 {
				row.ledgerOver++
			}
			for _, rr := range rec.Rows {
				if !rr.MeasuredOK && !rr.OverBudget {
					row.flaggedMissed++
				}
				if rr.MeasuredOK && !rr.Covered {
					row.uncovered++
				}
			}
			if row.recon == nil || (!r.Report.OK && !row.reconViolating) {
				row.recon = rec
				row.reconViolating = !r.Report.OK
			}
		}
	}
	if len(results) > 0 {
		row.fingerprint = results[0].Fingerprint()
	}
	return row, nil
}

// Conformance runs E8: the declared bank workload swept across every
// method (and the alternative engines for the unchopped DC baseline)
// under the deterministic scheduler, each run checked by the
// serial-replay ε-oracle; the deliberately mis-budgeted control (the
// BudgetScale knob) that the oracle must catch by query name; and the
// fuzz campaign cross-checking the chopping analyzer against brute
// force plus random end-to-end conformance runs.
func Conformance(cfg ConformanceConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		ID:    "E8",
		Title: "Conformance — serial-replay ε-oracle over deterministic schedules",
		Table: newTable("scenario", "engine", "seeds", "max orders", "max divergence", "ε", "verdict"),
	}

	type stack struct {
		method core.Method
		engine core.EngineKind
	}
	stacks := make([]stack, 0, len(core.Methods())+4)
	for _, m := range core.Methods() {
		stacks = append(stacks, stack{m, core.EngineLocking})
	}
	stacks = append(stacks,
		stack{core.BaselineESRDC, core.EngineOptimistic},
		stack{core.BaselineESRDC, core.EngineRepair},
		stack{core.BaselineESRDC, core.EngineRepairSkip},
	)

	cleanUncovered := 0
	for _, st := range stacks {
		sc := explore.BankScenario(st.method, st.engine, core.Static, conformanceEps)
		// The ε-provenance ledger rides every stack: the lock arbiter and
		// rdc's charge routine both debit through the plane's DC observer.
		sc.Ledger = true
		row, err := sweepScenario(sc, cfg)
		if err != nil {
			return nil, fmt.Errorf("E8 %s: %w", sc.Name, err)
		}
		verdict := "conforms"
		if !row.allOK {
			verdict = fmt.Sprintf("VIOLATION x%d", row.violations)
		}
		rep.Table.AddRow(sc.Name, st.engine.String(),
			fmt.Sprintf("%d", cfg.Seeds),
			fmt.Sprintf("%d", row.orders),
			fmt.Sprintf("%d", row.maxDivergence),
			fmt.Sprintf("%d", conformanceEps), verdict)
		rep.Notes = append(rep.Notes, check(row.allOK && row.maxDivergence <= conformanceEps,
			fmt.Sprintf("%s: every seed's measured divergence (max %d) within ε=%d",
				sc.Name, row.maxDivergence, conformanceEps)))
		if !row.allExhaustive {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%s: oracle fell back to sampled orders within budget %d", sc.Name, cfg.Budget))
		}
		cleanUncovered += row.uncovered
		if st.engine == core.EngineRepair || st.engine == core.EngineRepairSkip {
			msg := sc.Name + ": every repaired install matches a fresh full re-execution"
			if row.repairMismatch != "" {
				msg += ": " + row.repairMismatch
			}
			rep.Notes = append(rep.Notes, check(row.repairMismatch == "", msg))
		}
	}
	rep.Notes = append(rep.Notes, check(cleanUncovered == 0,
		"ε-ledger: charged fuzz covers the oracle's measured divergence on every conforming locking-, optimistic- and repair-stack query"))

	// Determinism: the first scenario re-swept must reproduce its
	// fingerprint exactly — one seed, one interleaving, one verdict.
	sc0 := explore.BankScenario(stacks[0].method, stacks[0].engine, core.Static, conformanceEps)
	first, err := sweepScenario(sc0, cfg)
	if err != nil {
		return nil, err
	}
	again, err := sweepScenario(sc0, cfg)
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, check(first.fingerprint == again.fingerprint && first.fingerprint != "",
		fmt.Sprintf("deterministic replay: %s", first.fingerprint)))

	// Control pair: correctly budgeted run must never be flagged;
	// budget inflated 8× must be caught, naming the audit query. Both
	// carry the ε-provenance ledger: the clean control's accounts must
	// stay within budget, the inflated control must be flagged by the
	// ledger on (at least) every query the oracle flags — charged vs
	// budgeted exposes the BudgetScale gap without replaying anything.
	scGood := explore.MisbudgetScenario(1)
	scGood.Ledger = true
	good, err := sweepScenario(scGood, cfg)
	if err != nil {
		return nil, fmt.Errorf("E8 misbudget/x1: %w", err)
	}
	rep.Table.AddRow("misbudget/x1", "locking", fmt.Sprintf("%d", cfg.Seeds),
		fmt.Sprintf("%d", good.orders), fmt.Sprintf("%d", good.maxDivergence), "100",
		map[bool]string{true: "conforms", false: "VIOLATION"}[good.allOK])
	rep.Notes = append(rep.Notes, check(good.allOK,
		"correctly budgeted DC run never flagged by the oracle"))
	rep.Notes = append(rep.Notes, check(good.ledgerOver == 0,
		"correctly budgeted control: ledger charges every query within its declared ε"))

	// The mis-budgeted control sweeps more seeds: the violation needs a
	// conflict-window interleaving to surface, not every seed finds one.
	badCfg := cfg
	badCfg.Seeds = 4 * cfg.Seeds
	scBad := explore.MisbudgetScenario(8)
	scBad.Ledger = true
	bad, err := sweepScenario(scBad, badCfg)
	if err != nil {
		return nil, fmt.Errorf("E8 misbudget/x8: %w", err)
	}
	rep.Table.AddRow("misbudget/x8", "locking", fmt.Sprintf("%d", badCfg.Seeds),
		fmt.Sprintf("%d", bad.orders), fmt.Sprintf("%d", bad.maxDivergence), "100",
		map[bool]string{true: "MISSED", false: "caught"}[bad.allOK])
	rep.Notes = append(rep.Notes, check(!bad.allOK && bad.namedAudit,
		fmt.Sprintf("mis-budgeted DC control caught: divergence %d > ε=100, violation names the audit query",
			bad.maxDivergence)))
	rep.Notes = append(rep.Notes, check(bad.ledgerOver > 0 && bad.flaggedMissed == 0,
		"mis-budgeted control: ledger charges exceed the declared ε on every oracle-flagged query"))
	if bad.recon != nil {
		var b strings.Builder
		b.WriteString("per-query ε reconciliation (representative mis-budgeted run):\n")
		bad.recon.WriteTable(&b)
		rep.Notes = append(rep.Notes, strings.TrimRight(b.String(), "\n"))
	}

	// Fuzz campaign: analyzer vs brute force, plus random end-to-end.
	fz := explore.Fuzz(cfg.Seed, cfg.FuzzChoppings, cfg.FuzzRuns)
	rep.Table.AddRow("fuzz", "-", "-",
		fmt.Sprintf("%d choppings", fz.Choppings),
		fmt.Sprintf("%d runs", fz.Runs), "-",
		map[bool]string{true: "agrees", false: "DISAGREES"}[fz.OK()])
	rep.Notes = append(rep.Notes,
		check(len(fz.Disagreements) == 0,
			fmt.Sprintf("SC-cycle + restricted-piece analysis agrees with brute force on %d random choppings (%d with SC-cycles)",
				fz.Choppings, fz.WithSCCycle)),
		check(len(fz.Failures) == 0,
			fmt.Sprintf("%d random end-to-end runs all conform (%d workloads rejected off-line)",
				fz.Runs, fz.Skipped)))
	for _, d := range fz.Disagreements {
		rep.Notes = append(rep.Notes, "disagreement: "+d)
	}
	for _, f := range fz.Failures {
		rep.Notes = append(rep.Notes, "failure: "+f)
	}
	if cfg.Plane != nil {
		for _, line := range cfg.Plane.Summary() {
			rep.Notes = append(rep.Notes, "obs: "+line)
		}
	}
	return rep, nil
}
