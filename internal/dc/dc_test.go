package dc

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/txn"
)

var (
	xferProg  = txn.MustProgram("xfer", txn.AddOp("x", -100), txn.AddOp("y", 100))
	auditProg = txn.MustProgram("audit", txn.ReadOp("x"), txn.ReadOp("y"))
	setProg   = txn.MustProgram("set", txn.SetOp("x", 0))
)

func register(t *testing.T, c *Controller, owner lock.Owner, info Info) {
	t.Helper()
	if err := c.Register(owner, info); err != nil {
		t.Fatal(err)
	}
}

func queryInfo(imp metric.Fuzz) Info {
	return Info{Class: txn.Query, Import: metric.LimitOf(imp), Export: metric.Zero, Program: auditProg}
}

func updateInfo(exp metric.Fuzz) Info {
	return Info{Class: txn.Update, Import: metric.Zero, Export: metric.LimitOf(exp), Program: xferProg}
}

func conflictOn(key string, requester lock.Owner, mode lock.Mode, holders ...lock.HolderInfo) lock.ConflictInfo {
	return lock.ConflictInfo{Key: Key(key), Requester: requester, Mode: mode, Holders: holders}
}

func TestAbsorbQueryReadingUpdatesWrite(t *testing.T) {
	c := NewController()
	register(t, c, 1, updateInfo(500)) // xfer: bound 100 on x
	register(t, c, 2, queryInfo(500))

	// Query 2 requests S on x while update 1 holds X.
	ok := c.Absorb(conflictOn("x", 2, lock.Shared, lock.HolderInfo{Owner: 1, Mode: lock.Exclusive}))
	if !ok {
		t.Fatal("affordable conflict refused")
	}
	imp, exp := c.Fuzz(2)
	if imp != 100 || exp != 0 {
		t.Errorf("query fuzz = (%d, %d), want (100, 0)", imp, exp)
	}
	imp, exp = c.Fuzz(1)
	if imp != 0 || exp != 100 {
		t.Errorf("update fuzz = (%d, %d), want (0, 100)", imp, exp)
	}
	st := c.Stats()
	if st.Absorbed != 1 || st.Refused != 0 || st.TotalCharged != 100 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAbsorbUpdateWritingUnderQueriesSLock(t *testing.T) {
	c := NewController()
	register(t, c, 1, updateInfo(500))
	register(t, c, 2, queryInfo(500))
	register(t, c, 3, queryInfo(50)) // tight import limit

	// Update 1 requests X on x while queries 2 and 3 hold S: both pairs
	// must be affordable; query 3 cannot afford 100.
	ok := c.Absorb(conflictOn("x", 1, lock.Exclusive,
		lock.HolderInfo{Owner: 2, Mode: lock.Shared},
		lock.HolderInfo{Owner: 3, Mode: lock.Shared}))
	if ok {
		t.Fatal("conflict absorbed although query 3 cannot afford it")
	}
	// Nothing charged on refusal.
	for _, o := range []lock.Owner{1, 2, 3} {
		if imp, exp := c.Fuzz(o); imp != 0 || exp != 0 {
			t.Errorf("owner %d charged on refusal: (%d, %d)", o, imp, exp)
		}
	}
	// Without the poor query it works, charging the update twice... only
	// one pair here.
	ok = c.Absorb(conflictOn("x", 1, lock.Exclusive, lock.HolderInfo{Owner: 2, Mode: lock.Shared}))
	if !ok {
		t.Fatal("affordable single-pair conflict refused")
	}
	if _, exp := c.Fuzz(1); exp != 100 {
		t.Errorf("update export = %d, want 100", exp)
	}
}

func TestAbsorbChargesPerPair(t *testing.T) {
	c := NewController()
	register(t, c, 1, updateInfo(200)) // can afford exactly two pairs
	register(t, c, 2, queryInfo(100))
	register(t, c, 3, queryInfo(100))
	ok := c.Absorb(conflictOn("x", 1, lock.Exclusive,
		lock.HolderInfo{Owner: 2, Mode: lock.Shared},
		lock.HolderInfo{Owner: 3, Mode: lock.Shared}))
	if !ok {
		t.Fatal("two affordable pairs refused")
	}
	if _, exp := c.Fuzz(1); exp != 200 {
		t.Errorf("update export = %d, want 200 (two pairs)", exp)
	}
	// A third conflict must now refuse: export exhausted.
	register(t, c, 4, queryInfo(1000))
	if c.Absorb(conflictOn("x", 4, lock.Shared, lock.HolderInfo{Owner: 1, Mode: lock.Exclusive})) {
		t.Error("export-exhausted update still absorbed")
	}
}

func TestUpdateUpdateNeverAbsorbed(t *testing.T) {
	c := NewController()
	register(t, c, 1, updateInfo(10000))
	register(t, c, 2, Info{Class: txn.Update, Import: metric.Infinite, Export: metric.Infinite, Program: xferProg})
	if c.Absorb(conflictOn("x", 2, lock.Exclusive, lock.HolderInfo{Owner: 1, Mode: lock.Exclusive})) {
		t.Error("update-update conflict absorbed")
	}
	if got := c.Stats().Refused; got != 1 {
		t.Errorf("Refused = %d, want 1", got)
	}
}

func TestInfiniteWriteBoundRefused(t *testing.T) {
	c := NewController()
	register(t, c, 1, Info{Class: txn.Update, Import: metric.Zero, Export: metric.Infinite, Program: setProg})
	register(t, c, 2, queryInfo(1<<40))
	if c.Absorb(conflictOn("x", 2, lock.Shared, lock.HolderInfo{Owner: 1, Mode: lock.Exclusive})) {
		t.Error("conflict on unbounded write absorbed")
	}
}

func TestUnregisteredOwnersRefused(t *testing.T) {
	c := NewController()
	register(t, c, 1, updateInfo(1000))
	// Unregistered requester.
	if c.Absorb(conflictOn("x", 99, lock.Shared, lock.HolderInfo{Owner: 1, Mode: lock.Exclusive})) {
		t.Error("unregistered requester absorbed")
	}
	// Unregistered holder.
	register(t, c, 2, queryInfo(1000))
	if c.Absorb(conflictOn("x", 2, lock.Shared, lock.HolderInfo{Owner: 98, Mode: lock.Exclusive})) {
		t.Error("unregistered holder absorbed")
	}
}

func TestRegisterValidation(t *testing.T) {
	c := NewController()
	if err := c.Register(1, Info{Class: txn.Update}); err == nil {
		t.Error("update without program accepted")
	}
	register(t, c, 2, queryInfo(10))
	if err := c.Register(2, queryInfo(10)); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestUnregisterReturnsFinalFuzz(t *testing.T) {
	c := NewController()
	register(t, c, 1, updateInfo(500))
	register(t, c, 2, queryInfo(500))
	if !c.Absorb(conflictOn("x", 2, lock.Shared, lock.HolderInfo{Owner: 1, Mode: lock.Exclusive})) {
		t.Fatal("absorb failed")
	}
	imp, exp := c.Unregister(2)
	if imp != 100 || exp != 0 {
		t.Errorf("Unregister(2) = (%d, %d), want (100, 0)", imp, exp)
	}
	// Second unregister: zeros.
	imp, exp = c.Unregister(2)
	if imp != 0 || exp != 0 {
		t.Errorf("double Unregister = (%d, %d)", imp, exp)
	}
	if imp, exp := c.Fuzz(2); imp != 0 || exp != 0 {
		t.Errorf("Fuzz after unregister = (%d, %d)", imp, exp)
	}
}

func TestIntegrationWithLockManager(t *testing.T) {
	// End to end: with DC as arbiter, a query's conflicting read is
	// granted while budgets last, then blocks.
	c := NewController()
	m := lock.NewManager(lock.WithArbiter(c))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	register(t, c, 1, updateInfo(100)) // export allows exactly one conflict
	register(t, c, 2, queryInfo(100))
	register(t, c, 3, queryInfo(100))

	if err := m.Acquire(ctx, 1, "x", lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	// Query 2 reads through the conflict.
	if err := m.Acquire(ctx, 2, "x", lock.Shared); err != nil {
		t.Fatalf("fuzzy grant failed: %v", err)
	}
	// Query 3 must block: update 1's export is exhausted.
	blocked := make(chan error, 1)
	go func() { blocked <- m.Acquire(ctx, 3, "x", lock.Shared) }()
	select {
	case err := <-blocked:
		t.Fatalf("query 3 did not block: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().FuzzyGrants; got != 1 {
		t.Errorf("FuzzyGrants = %d, want 1", got)
	}
}

// TestAbsorbReusedAccountsBalance runs queries and transfers on a lock
// manager with the controller as its arbiter from several goroutines,
// each attempt under a fresh owner, so Register keeps reusing accounts
// that Unregister closed while other attempts absorb. Every charge
// lands on one query and one update, so the imports and the exports
// that Unregister returns must each sum to TotalCharged: an account
// reused with a stale ledger, or read after reuse, breaks the sums.
func TestAbsorbReusedAccountsBalance(t *testing.T) {
	c := NewController()
	m := lock.NewManager(lock.WithArbiter(c), lock.WithStripes(2))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const workers, rounds = 8, 300
	var mu sync.Mutex
	var imported, exported metric.Fuzz
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				owner := lock.Owner(g*rounds + r + 1)
				info, mode := updateInfo(200), lock.Exclusive
				if (g+r)%2 == 0 {
					info, mode = queryInfo(300), lock.Shared
				}
				if err := c.Register(owner, info); err != nil {
					t.Error(err)
					return
				}
				for _, k := range []Key{"x", "y"} {
					if err := m.Acquire(ctx, owner, k, mode); err != nil {
						t.Error(err)
						break
					}
					runtime.Gosched() // let the other attempts interleave
				}
				m.ReleaseAll(owner)
				imp, exp := c.Unregister(owner)
				mu.Lock()
				imported, exported = imported.Add(imp), exported.Add(exp)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Absorbed == 0 {
		t.Fatal("no conflict was absorbed")
	}
	if imported != st.TotalCharged || exported != st.TotalCharged {
		t.Errorf("unregistered imports %d and exports %d, want both = total charged %d", imported, exported, st.TotalCharged)
	}
}
