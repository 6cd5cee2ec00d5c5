package explore

import (
	"testing"

	"asynctp/internal/core"
	"asynctp/internal/oracle"
)

func run(t *testing.T, sc Scenario, seed int64, strategy Strategy) *Result {
	t.Helper()
	res, err := Run(sc, seed, strategy, oracle.Config{Seed: seed})
	if err != nil {
		t.Fatalf("Run(%s, seed %d): %v", sc.Name, seed, err)
	}
	return res
}

func TestBankConformsAcrossMethods(t *testing.T) {
	for _, method := range core.Methods() {
		sc := BankScenario(method, core.EngineLocking, core.Static, 600)
		for seed := int64(1); seed <= 5; seed++ {
			res := run(t, sc, seed, StrategyConflict)
			if !res.Report.OK {
				t.Errorf("%s seed %d: oracle FAIL: %s", sc.Name, seed, res.Report)
			}
			for i, err := range res.InstanceErrs {
				if err != nil {
					t.Errorf("%s seed %d: instance %d: %v", sc.Name, seed, i, err)
				}
			}
		}
	}
}

func TestBankConformsAcrossEngines(t *testing.T) {
	for _, engine := range []core.EngineKind{core.EngineOptimistic} {
		for _, method := range []core.Method{core.BaselineESRDC, core.Method1SRChopDC} {
			sc := BankScenario(method, engine, core.Static, 600)
			for seed := int64(1); seed <= 5; seed++ {
				res := run(t, sc, seed, StrategyConflict)
				if !res.Report.OK {
					t.Errorf("%s seed %d: oracle FAIL: %s", sc.Name, seed, res.Report)
				}
			}
		}
	}
}

func TestDynamicDistributionConforms(t *testing.T) {
	sc := BankScenario(core.Method3ESRChopDC, core.EngineLocking, core.Dynamic, 600)
	for seed := int64(1); seed <= 5; seed++ {
		res := run(t, sc, seed, StrategyRandom)
		if !res.Report.OK {
			t.Errorf("%s seed %d: oracle FAIL: %s", sc.Name, seed, res.Report)
		}
	}
}

func TestOneSeedOneInterleaving(t *testing.T) {
	sc := BankScenario(core.Method1SRChopDC, core.EngineLocking, core.Static, 600)
	first := run(t, sc, 7, StrategyConflict)
	for i := 0; i < 4; i++ {
		again := run(t, sc, 7, StrategyConflict)
		if again.Fingerprint() != first.Fingerprint() {
			t.Fatalf("run %d diverged:\n  %s\n  %s", i, again.Fingerprint(), first.Fingerprint())
		}
	}
	// Different seeds should (for this scenario) find different
	// interleavings at least once — otherwise the scheduler isn't
	// actually exploring.
	varied := false
	for seed := int64(1); seed <= 8 && !varied; seed++ {
		if run(t, sc, seed, StrategyConflict).Fingerprint() != first.Fingerprint() {
			varied = true
		}
	}
	if !varied {
		t.Error("8 seeds produced identical interleavings; exploration looks stuck")
	}
}

func TestCorrectBudgetIsNeverFlagged(t *testing.T) {
	sc := MisbudgetScenario(1) // scale 1 = the declared (correct) budgets
	for seed := int64(1); seed <= 10; seed++ {
		res := run(t, sc, seed, StrategyConflict)
		if !res.Report.OK {
			t.Errorf("seed %d: correctly budgeted run flagged: %s", seed, res.Report)
		}
		if res.Report.MaxQueryDivergence > 100 {
			t.Errorf("seed %d: divergence %d exceeds ε=100", seed, res.Report.MaxQueryDivergence)
		}
	}
}

func TestMisbudgetedRunIsCaught(t *testing.T) {
	sc := MisbudgetScenario(8)
	caught := false
	for seed := int64(1); seed <= 20 && !caught; seed++ {
		res := run(t, sc, seed, StrategyConflict)
		if res.Report.OK {
			continue
		}
		caught = true
		viol := res.Report.Violations()
		if len(viol) == 0 || viol[0].Name != "audit" {
			t.Fatalf("seed %d: violation does not name the audit query: %+v", seed, viol)
		}
		if viol[0].Divergence <= 100 {
			t.Fatalf("seed %d: flagged divergence %d not above ε=100", seed, viol[0].Divergence)
		}
	}
	if !caught {
		t.Fatal("mis-budgeted run never caught across 20 seeds")
	}
}
