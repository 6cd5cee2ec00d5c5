package dc

import (
	"sync"
	"testing"

	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/txn"
)

// absorbFixture registers one query and one update and returns the
// conflict a query read against the update's held write raises.
func absorbFixture(t testing.TB, c *Controller, q, u lock.Owner) lock.ConflictInfo {
	t.Helper()
	upd := txn.MustProgram("upd", txn.AddOp("x", 1))
	if err := c.Register(u, Info{Class: txn.Update, Import: metric.Infinite, Export: metric.Infinite, Program: upd}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(q, Info{Class: txn.Query, Import: metric.Infinite, Export: metric.Infinite}); err != nil {
		t.Fatal(err)
	}
	return lock.ConflictInfo{
		Key:       "x",
		Requester: q,
		Mode:      lock.Shared,
		Holders:   []lock.HolderInfo{{Owner: u, Mode: lock.Exclusive}},
	}
}

// TestAbsorbNoObserverAllocs pins the arbitration hot path's allocation
// budget with no observer installed, on the owner-keyed path: pricing,
// locking and charging run in stack scratch, so an absorb allocates
// nothing (an Event boxed for a nil observer, or stats moving off
// atomics, would show here).
func TestAbsorbNoObserverAllocs(t *testing.T) {
	c := NewController()
	ci := absorbFixture(t, c, 1, 2)
	allocs := testing.AllocsPerRun(200, func() {
		if !c.Absorb(ci) {
			t.Fatal("absorb refused with unlimited budgets")
		}
	})
	if allocs > 0 {
		t.Errorf("Absorb with nil observer: %.1f allocs/op, want 0", allocs)
	}
}

// TestAbsorbLockersZeroAlloc pins Absorb on the path the engine takes,
// accounts reached through the conflict's Lockers, at 0 allocations for
// one to four holders: a query reading through up to four updates' held
// writes, and an update writing under up to four queries' reads.
func TestAbsorbLockersZeroAlloc(t *testing.T) {
	upd := txn.MustProgram("upd", txn.AddOp("x", 1))
	for n := 1; n <= 4; n++ {
		for _, reqClass := range []txn.Class{txn.Query, txn.Update} {
			c := NewController()
			m := lock.NewManager()
			open := func(owner lock.Owner, class txn.Class) *lock.Locker {
				l := m.Locker(owner)
				if err := c.Open(l, Info{Class: class, Import: metric.Infinite, Export: metric.Infinite, Program: upd}); err != nil {
					t.Fatal(err)
				}
				return l
			}
			holderClass, mode := txn.Update, lock.Exclusive
			if reqClass == txn.Update {
				holderClass, mode = txn.Query, lock.Shared
			}
			req := open(lock.Owner(n+1), reqClass) // owner order differs from holder order
			ci := lock.ConflictInfo{Key: "x", Requester: req.Owner(), Mode: lock.Shared, Locker: req}
			if reqClass == txn.Update {
				ci.Mode = lock.Exclusive
			}
			for i := 0; i < n; i++ {
				h := open(lock.Owner(n-i+10), holderClass)
				ci.Holders = append(ci.Holders, lock.HolderInfo{Owner: h.Owner(), Mode: mode, Locker: h})
			}
			allocs := testing.AllocsPerRun(200, func() {
				if !c.Absorb(ci) {
					t.Fatal("absorb refused with unlimited budgets")
				}
			})
			if allocs > 0 {
				t.Errorf("Absorb, %v requester, %d holders: %.1f allocs/op, want 0", reqClass, n, allocs)
			}
			if imp, exp := c.Close(req); reqClass == txn.Query && imp != 201*metric.Fuzz(n) ||
				reqClass == txn.Update && exp != 201*metric.Fuzz(n) {
				t.Errorf("%v requester with %d holders closed with (%d, %d), want %d on its side",
					reqClass, n, imp, exp, 201*n)
			}
		}
	}
}

// TestRefuseNoObserverAllocs pins the refusal fast path: an
// unregistered requester must fall back to 2PL without allocating at
// all (no Event is built when nobody observes).
func TestRefuseNoObserverAllocs(t *testing.T) {
	c := NewController()
	ci := lock.ConflictInfo{
		Key:       "x",
		Requester: 99,
		Mode:      lock.Shared,
		Holders:   []lock.HolderInfo{{Owner: 1, Mode: lock.Exclusive}},
	}
	allocs := testing.AllocsPerRun(200, func() {
		if c.Absorb(ci) {
			t.Fatal("absorbed for unregistered requester")
		}
	})
	if allocs > 0 {
		t.Errorf("refusal with nil observer: %.1f allocs/op, want 0", allocs)
	}
}

// TestObserverSeesEveryDecision checks the slow path still works: with
// an observer installed every absorb and refusal is reported, serialized.
func TestObserverSeesEveryDecision(t *testing.T) {
	c := NewController()
	ci := absorbFixture(t, c, 1, 2)
	var mu sync.Mutex
	var events []Event
	c.SetObserver(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if !c.Absorb(ci) {
		t.Fatal("absorb refused")
	}
	refused := lock.ConflictInfo{Key: "x", Requester: 77, Holders: []lock.HolderInfo{{Owner: 2, Mode: lock.Exclusive}}}
	if c.Absorb(refused) {
		t.Fatal("absorbed for unregistered requester")
	}
	c.SetObserver(nil) // back to the fast path
	if !c.Absorb(ci) {
		t.Fatal("absorb refused after observer removal")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("observer saw %d events, want 2", len(events))
	}
	if !events[0].Absorbed || events[0].Cost == 0 {
		t.Errorf("first event = %+v, want absorbed with cost", events[0])
	}
	if events[1].Absorbed {
		t.Errorf("second event = %+v, want refusal", events[1])
	}
}

// TestAbsorbParallelDisjointAccounts hammers arbitration across many
// disjoint query/update pairs concurrently; under -race this doubles as
// the striped-account contention regression (per-account mutexes, not a
// controller-global one, so unrelated pairs never serialize — and never
// race).
func TestAbsorbParallelDisjointAccounts(t *testing.T) {
	c := NewController()
	const pairs = 64
	cis := make([]lock.ConflictInfo, pairs)
	for i := 0; i < pairs; i++ {
		cis[i] = absorbFixture(t, c, lock.Owner(1000+i), lock.Owner(2000+i))
	}
	const rounds = 200
	var wg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		wg.Add(1)
		go func(ci lock.ConflictInfo) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if !c.Absorb(ci) {
					t.Error("absorb refused with unlimited budgets")
					return
				}
			}
		}(cis[i])
	}
	wg.Wait()
	st := c.Stats()
	if st.Absorbed != pairs*rounds {
		t.Errorf("absorbed = %d, want %d", st.Absorbed, pairs*rounds)
	}
	if st.TotalCharged != metric.Fuzz(pairs*rounds) {
		t.Errorf("total charged = %d, want %d", st.TotalCharged, pairs*rounds)
	}
	for i := 0; i < pairs; i++ {
		imp, _ := c.Fuzz(lock.Owner(1000 + i))
		if imp != metric.Fuzz(rounds) {
			t.Errorf("query %d imported %d, want %d", i, imp, rounds)
		}
		_, exp := c.Fuzz(lock.Owner(2000 + i))
		if exp != metric.Fuzz(rounds) {
			t.Errorf("update %d exported %d, want %d", i, exp, rounds)
		}
	}
}

// TestRegisterUnregisterZeroAlloc pins the per-attempt account cost:
// Register reuses the account Unregister closed, so a steady
// register/unregister cycle under fresh owners allocates nothing.
func TestRegisterUnregisterZeroAlloc(t *testing.T) {
	c := NewController()
	info := Info{Class: txn.Query, Import: metric.Infinite, Export: metric.Infinite}
	owner := lock.Owner(0)
	cycle := func() {
		owner++
		if err := c.Register(owner, info); err != nil {
			t.Fatal(err)
		}
		c.Unregister(owner)
	}
	for i := 0; i < 1000; i++ {
		cycle() // warm the shards' maps and free lists
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs > 0 {
		t.Errorf("register/unregister: %.1f allocs/op, want 0", allocs)
	}
}

// TestOpenCloseZeroAlloc pins the per-attempt account cost on the
// engine's path: the account rides on the pooled Locker, so a steady
// Locker/Open/Close/Free cycle under fresh owners allocates nothing.
func TestOpenCloseZeroAlloc(t *testing.T) {
	c := NewController()
	m := lock.NewManager(lock.WithArbiter(c))
	info := Info{Class: txn.Query, Import: metric.Infinite, Export: metric.Infinite}
	owner := lock.Owner(0)
	cycle := func() {
		owner++
		l := m.Locker(owner)
		if err := c.Open(l, info); err != nil {
			t.Fatal(err)
		}
		c.Close(l)
		l.Free()
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs > 0 {
		t.Errorf("open/close: %.1f allocs/op, want 0", allocs)
	}
}
