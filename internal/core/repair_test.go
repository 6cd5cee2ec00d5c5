package core

import (
	"context"
	"testing"

	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

func TestRepairEngineSRIsSerializable(t *testing.T) {
	fx := newBankFixture(0, 0)
	cfg := mixedConfig(fx, BaselineSRCC, 20, 10, true)
	cfg.Engine = EngineRepair
	cfg.VerifyRepairs = true
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	audits := runMixed(t, r, 20, 10)
	for i, a := range audits {
		if got := a.SumReads(); got != fx.total {
			t.Errorf("audit %d sum = %d, want exactly %d", i, got, fx.total)
		}
	}
	grouped := r.Recorder().CheckGrouped(r.GroupOf())
	if !grouped.Serializable {
		t.Errorf("repair SR/CC produced non-serializable history: %v", grouped.Cycle)
	}
	if got := fx.store.Sum([]storage.Key{"X", "Y"}); got != fx.total {
		t.Errorf("final total = %d, want %d", got, fx.total)
	}
	st := r.RDCStats()
	if st.Commits == 0 {
		t.Error("repair engine did not run")
	}
	if st.Skips != 0 {
		t.Errorf("plain repair engine skipped %d repairs", st.Skips)
	}
	if msg := r.RepairVerifyFailure(); msg != "" {
		t.Errorf("repair verify: %s", msg)
	}
}

func TestRepairSkipEngineESRBounded(t *testing.T) {
	const importLimit = 800
	fx := newBankFixture(importLimit, 10000)
	cfg := mixedConfig(fx, BaselineESRDC, 20, 10, false)
	cfg.Engine = EngineRepairSkip
	cfg.VerifyRepairs = true
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	audits := runMixed(t, r, 20, 10)
	for i, a := range audits {
		if dev := metric.Distance(a.SumReads(), fx.total); dev > importLimit {
			t.Errorf("audit %d deviation = %d > ε = %d", i, dev, importLimit)
		}
		if a.Imported > importLimit {
			t.Errorf("audit %d imported %d > limit", i, a.Imported)
		}
	}
	if got := fx.store.Sum([]storage.Key{"X", "Y"}); got != fx.total {
		t.Errorf("final total = %d, want %d", got, fx.total)
	}
	if msg := r.RepairVerifyFailure(); msg != "" {
		t.Errorf("repair verify: %s", msg)
	}
}

func TestRepairSkipStrictSpecStaysExact(t *testing.T) {
	// Under a zero import budget the ε-skip engine must behave exactly
	// like the plain repair engine: every audit reads the true total.
	fx := newBankFixture(0, 0)
	cfg := mixedConfig(fx, BaselineESRDC, 15, 8, false)
	cfg.Engine = EngineRepairSkip
	cfg.VerifyRepairs = true
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	audits := runMixed(t, r, 15, 8)
	for i, a := range audits {
		if got := a.SumReads(); got != fx.total {
			t.Errorf("audit %d sum = %d, want exactly %d", i, got, fx.total)
		}
	}
	// A read racing an install can hold the new value under the old
	// version: it looks stale at distance 0 and is skipped for free, so
	// Skips may be non-zero. What a zero budget forbids is a skip that
	// cost anything; SkippedFuzz sums the (non-negative) price of each.
	if st := r.RDCStats(); st.SkippedFuzz != 0 {
		t.Errorf("%d skips imported fuzziness %v under a zero budget", st.Skips, st.SkippedFuzz)
	}
}

func TestRepairEngineRollback(t *testing.T) {
	store := storage.NewFrom(map[storage.Key]metric.Value{"X": 50, "Y": 0})
	withdraw := txn.MustProgram("withdraw",
		txn.WithAbortIf(txn.AddOp("X", -100), func(v metric.Value) bool { return v < 100 }),
		txn.AddOp("Y", 100),
	)
	r, err := NewRunner(Config{
		Method: SRChopCC, Store: store,
		Programs: []*txn.Program{withdraw}, Engine: EngineRepair,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Submit(context.Background(), 0)
	if err != nil {
		t.Fatalf("rollback surfaced as error: %v", err)
	}
	if !res.RolledBack || res.Committed {
		t.Errorf("result = %+v", res)
	}
	if store.Get("X") != 50 || store.Get("Y") != 0 {
		t.Errorf("state changed: X=%d Y=%d", store.Get("X"), store.Get("Y"))
	}
}

func TestRepairEngineLockStatsStayZero(t *testing.T) {
	fx := newBankFixture(0, 0)
	cfg := mixedConfig(fx, BaselineSRCC, 5, 2, false)
	cfg.Engine = EngineRepair
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runMixed(t, r, 5, 2)
	if st := r.LockStats(); st.Grants != 0 || st.Blocks != 0 {
		t.Errorf("lock manager used in repair mode: %+v", st)
	}
}
