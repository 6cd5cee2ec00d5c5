package core

import (
	"context"
	"testing"

	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

func TestOptimisticBaselineSRIsSerializable(t *testing.T) {
	fx := newBankFixture(0, 0)
	cfg := mixedConfig(fx, BaselineSRCC, 20, 10, true)
	cfg.Engine = EngineOptimistic
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
		t.Errorf("optimistic SR/CC produced non-serializable history: %v", grouped.Cycle)
	}
	if got := fx.store.Sum([]storage.Key{"X", "Y"}); got != fx.total {
		t.Errorf("final total = %d, want %d", got, fx.total)
	}
	st := r.RDCStats()
	if st.Commits == 0 {
		t.Error("optimistic engine did not run")
	}
	if st.Absorbed != 0 {
		t.Errorf("strict OCC absorbed %d conflicts", st.Absorbed)
	}
}

func TestOptimisticESRDCBoundedDeviation(t *testing.T) {
	const importLimit = 600
	fx := newBankFixture(importLimit, 10000)
	cfg := mixedConfig(fx, BaselineESRDC, 30, 15, false)
	cfg.Engine = EngineOptimistic
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	audits := runMixed(t, r, 30, 15)
	for i, a := range audits {
		dev := metric.Distance(a.SumReads(), fx.total)
		if dev > importLimit {
			t.Errorf("audit %d deviation = %d > ε = %d", i, dev, importLimit)
		}
		if a.Imported > importLimit {
			t.Errorf("audit %d imported %d > limit", i, a.Imported)
		}
	}
	if got := fx.store.Sum([]storage.Key{"X", "Y"}); got != fx.total {
		t.Errorf("final total = %d, want %d", got, fx.total)
	}
}

func TestOptimisticMethod3(t *testing.T) {
	const budget = 3000
	fx := newBankFixture(budget, budget)
	cfg := mixedConfig(fx, Method3ESRChopDC, 10, 5, false)
	cfg.Engine = EngineOptimistic
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	audits := runMixed(t, r, 10, 5)
	for i, a := range audits {
		if dev := metric.Distance(a.SumReads(), fx.total); dev > budget {
			t.Errorf("audit %d deviation = %d > ε = %d", i, dev, budget)
		}
	}
	if got := fx.store.Sum([]storage.Key{"X", "Y"}); got != fx.total {
		t.Errorf("final total = %d, want %d", got, fx.total)
	}
}

func TestOptimisticRollback(t *testing.T) {
	store := storage.NewFrom(map[storage.Key]metric.Value{"X": 50, "Y": 0})
	withdraw := txn.MustProgram("withdraw",
		txn.WithAbortIf(txn.AddOp("X", -100), func(v metric.Value) bool { return v < 100 }),
		txn.AddOp("Y", 100),
	)
	r, err := NewRunner(Config{
		Method: SRChopCC, Store: store,
		Programs: []*txn.Program{withdraw}, Engine: EngineOptimistic,
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

func TestOptimisticLockStatsStayZero(t *testing.T) {
	fx := newBankFixture(0, 0)
	cfg := mixedConfig(fx, BaselineSRCC, 5, 2, false)
	cfg.Engine = EngineOptimistic
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runMixed(t, r, 5, 2)
	if st := r.LockStats(); st.Grants != 0 || st.Blocks != 0 {
		t.Errorf("lock manager used in optimistic mode: %+v", st)
	}
}

func TestTimestampEngineSRIsSerializable(t *testing.T) {
	fx := newBankFixture(0, 0)
	cfg := mixedConfig(fx, BaselineSRCC, 15, 8, true)
	cfg.Engine = EngineTimestamp
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
	grouped := r.Recorder().CheckGrouped(r.GroupOf())
	if !grouped.Serializable {
		t.Errorf("timestamp SR/CC produced non-serializable history: %v", grouped.Cycle)
	}
	if got := fx.store.Sum([]storage.Key{"X", "Y"}); got != fx.total {
		t.Errorf("final total = %d, want %d", got, fx.total)
	}
	if r.TDCStats().Commits == 0 {
		t.Error("timestamp engine did not run")
	}
}

func TestTimestampEngineESRBounded(t *testing.T) {
	const importLimit = 800
	fx := newBankFixture(importLimit, 10000)
	cfg := mixedConfig(fx, BaselineESRDC, 20, 10, false)
	cfg.Engine = EngineTimestamp
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
}

func TestEngineKindStrings(t *testing.T) {
	for _, k := range []EngineKind{EngineLocking, EngineOptimistic, EngineTimestamp, EngineRepair, EngineRepairSkip} {
		if k.String() == "" {
			t.Errorf("empty name for kind %d", int(k))
		}
	}
	if EngineKind(9).String() != "EngineKind(9)" {
		t.Error("unknown kind string")
	}
}
