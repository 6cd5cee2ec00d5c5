package experiments

import (
	"testing"
	"time"

	"asynctp/internal/metric"
	"asynctp/internal/site"
)

// soakCfg is the deterministic crash-storm configuration shared by the
// soak runs: small enough to keep 5 repetitions inside ordinary `go
// test`, big enough that chains straddle both crashes and the
// partition.
func soakCfg() ChaosConfig {
	return ChaosConfig{
		Chains:  12,
		Amount:  5,
		Seed:    7,
		Stagger: 12 * time.Millisecond,
	}
}

// TestChaosCrashStormSoak is the harness's acceptance gate, repeated
// five times on the same seed: under a schedule that crashes LA and CHI
// mid-chain and partitions NY-CHI,
//
//   - every chopped chain settles (100%),
//   - money is conserved through crash, recovery, and redelivery,
//   - concurrent audits never deviate beyond the in-flight ε bound,
//   - at least one 2PC transaction is driven into timeout/presumed
//     abort on the very same schedule, and
//   - the fired fault timeline is identical run over run.
func TestChaosCrashStormSoak(t *testing.T) {
	cfg := soakCfg()
	epsilon := metric.Fuzz(cfg.Chains) * metric.Fuzz(cfg.Amount)
	var refFired []string
	for run := 0; run < 5; run++ {
		chop, err := RunChaosScenario(site.ChoppedQueues, ScenarioCrashStorm, cfg)
		if err != nil {
			t.Fatalf("run %d chopped: %v", run, err)
		}
		if chop.Settled != cfg.Chains {
			t.Errorf("run %d: settled %d/%d chopped chains (failed %d)",
				run, chop.Settled, cfg.Chains, chop.Failed)
		}
		if !chop.Conserved {
			t.Errorf("run %d: money not conserved under chopped queues", run)
		}
		if chop.MaxAuditDev > epsilon {
			t.Errorf("run %d: audit deviation %d exceeds ε bound %d",
				run, chop.MaxAuditDev, epsilon)
		}

		tpc, err := RunChaosScenario(site.TwoPhaseCommit, ScenarioCrashStorm, cfg)
		if err != nil {
			t.Fatalf("run %d 2pc: %v", run, err)
		}
		if tpc.TimeoutAborts < 1 {
			t.Errorf("run %d: expected ≥1 2PC timeout/presumed abort, got %d (settled %d, failed %d)",
				run, tpc.TimeoutAborts, tpc.Settled, tpc.Failed)
		}
		if !tpc.Conserved {
			t.Errorf("run %d: money not conserved under 2PC presumed abort", run)
		}

		// The seeded schedule must fire the same fault timeline each run.
		if run == 0 {
			refFired = chop.Fired
			if len(refFired) != 6 {
				t.Fatalf("crash-storm fired %d events, want 6: %v", len(refFired), refFired)
			}
			continue
		}
		if len(chop.Fired) != len(refFired) {
			t.Fatalf("run %d: fired %v, want %v", run, chop.Fired, refFired)
		}
		for i := range refFired {
			if chop.Fired[i] != refFired[i] {
				t.Errorf("run %d: fired[%d] = %q, want %q", run, i, chop.Fired[i], refFired[i])
			}
		}
	}
}

// TestChaosScenarioUnknown rejects bad scenario names.
func TestChaosScenarioUnknown(t *testing.T) {
	if _, err := ChaosSchedule("nope", 1); err == nil {
		t.Fatal("expected error for unknown scenario")
	}
}
