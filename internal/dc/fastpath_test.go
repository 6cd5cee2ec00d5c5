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
// budget with no observer installed. The path allocates the pairing and
// involved-account scratch slices plus the two pending-charge maps;
// anything beyond ~8 allocations means a fast-path regression (e.g. the
// observer nil check boxing an Event, or stats moving off atomics).
func TestAbsorbNoObserverAllocs(t *testing.T) {
	c := NewController()
	ci := absorbFixture(t, c, 1, 2)
	allocs := testing.AllocsPerRun(200, func() {
		if !c.Absorb(ci) {
			t.Fatal("absorb refused with unlimited budgets")
		}
	})
	const maxAllocs = 8
	if allocs > maxAllocs {
		t.Errorf("Absorb with nil observer: %.1f allocs/op, want <= %d", allocs, maxAllocs)
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
