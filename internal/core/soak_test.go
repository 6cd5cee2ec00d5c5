package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// TestSoakAllMethodsConserveMoney runs a larger contended stream under
// every method × engine combination and checks the global invariants:
// money conserved, every instance settled, every audit within ε.
func TestSoakAllMethodsConserveMoney(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		accounts = 6
		xferN    = 60
		auditN   = 20
		epsilon  = 50000
		amount   = 250
	)
	for _, method := range Methods() {
		for _, engine := range []EngineKind{EngineLocking, EngineOptimistic} {
			name := fmt.Sprintf("%s/%s", method, engine)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				init := make(map[storage.Key]metric.Value, accounts)
				var auditOps []txn.Op
				for i := 0; i < accounts; i++ {
					k := storage.Key(fmt.Sprintf("acct%d", i))
					init[k] = 1000000
					auditOps = append(auditOps, txn.ReadOp(k))
				}
				spec := metric.SpecOf(epsilon)
				programs := []*txn.Program{
					txn.MustProgram("xferA",
						txn.AddOp("acct0", -amount), txn.AddOp("acct1", amount)).WithSpec(spec),
					txn.MustProgram("xferB",
						txn.AddOp("acct2", -amount), txn.AddOp("acct3", amount)).WithSpec(spec),
					txn.MustProgram("xferC",
						txn.AddOp("acct4", -amount), txn.AddOp("acct5", amount)).WithSpec(spec),
					txn.MustProgram("audit", auditOps...).WithSpec(spec),
				}
				store := storage.NewFrom(init)
				r, err := NewRunner(Config{
					Method:   method,
					Store:    store,
					Programs: programs,
					Counts:   []int{xferN, xferN, xferN, auditN},
					Engine:   engine,
					OpDelay:  20 * time.Microsecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
				defer cancel()
				type result struct {
					dev metric.Fuzz
					err error
				}
				results := make(chan result, 3*xferN+auditN)
				run := func(ti int, isAudit bool) {
					res, err := r.Submit(ctx, ti)
					if err != nil {
						results <- result{err: err}
						return
					}
					var dev metric.Fuzz
					if isAudit && res.Committed {
						dev = metric.Distance(res.SumReads(), metric.Value(accounts)*1000000)
					}
					results <- result{dev: dev}
				}
				for i := 0; i < xferN; i++ {
					for ti := 0; ti < 3; ti++ {
						go run(ti, false)
					}
				}
				for i := 0; i < auditN; i++ {
					go run(3, true)
				}
				var worst metric.Fuzz
				for i := 0; i < 3*xferN+auditN; i++ {
					res := <-results
					if res.err != nil {
						t.Fatal(res.err)
					}
					if res.dev > worst {
						worst = res.dev
					}
				}
				if total := store.Sum(programs[3].ReadSet()); total != metric.Value(accounts)*1000000 {
					t.Errorf("total = %d, want %d", total, accounts*1000000)
				}
				if worst > epsilon {
					t.Errorf("worst audit deviation %d > ε %d", worst, epsilon)
				}
			})
		}
	}
}
