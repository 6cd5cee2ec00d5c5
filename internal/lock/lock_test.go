package lock

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"asynctp/internal/storage"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager()
	ctx := ctxT(t)
	if err := m.Acquire(ctx, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 2, "k", Shared); err != nil {
		t.Fatal(err)
	}
	if !m.HoldsLock(1, "k", Shared) || !m.HoldsLock(2, "k", Shared) {
		t.Error("both owners should hold S")
	}
}

func TestExclusiveBlocksUntilRelease(t *testing.T) {
	m := NewManager()
	ctx := ctxT(t)
	if err := m.Acquire(ctx, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- m.Acquire(ctx, 2, "k", Shared) }()
	select {
	case err := <-acquired:
		t.Fatalf("S granted while X held: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-acquired; err != nil {
		t.Fatalf("S after release: %v", err)
	}
	if !m.HoldsLock(2, "k", Shared) {
		t.Error("owner 2 should hold S")
	}
	if m.HoldsLock(1, "k", Shared) {
		t.Error("owner 1 should hold nothing")
	}
}

func TestReacquireAndUpgrade(t *testing.T) {
	m := NewManager()
	ctx := ctxT(t)
	if err := m.Acquire(ctx, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	// Re-acquiring S and upgrading to X while alone must not block.
	if err := m.Acquire(ctx, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	if !m.HoldsLock(1, "k", Exclusive) {
		t.Error("upgrade to X failed")
	}
	// X implies S.
	if !m.HoldsLock(1, "k", Shared) {
		t.Error("X should satisfy HoldsLock(S)")
	}
}

func TestUpgradeWaitsForReaders(t *testing.T) {
	m := NewManager()
	ctx := ctxT(t)
	if err := m.Acquire(ctx, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 2, "k", Shared); err != nil {
		t.Fatal(err)
	}
	up := make(chan error, 1)
	go func() { up <- m.Acquire(ctx, 1, "k", Exclusive) }()
	select {
	case err := <-up:
		t.Fatalf("upgrade granted with another reader: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-up; err != nil {
		t.Fatalf("upgrade after reader left: %v", err)
	}
}

func TestDeadlockDetectedTwoKeys(t *testing.T) {
	m := NewManager()
	ctx := ctxT(t)
	if err := m.Acquire(ctx, 1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	t1 := make(chan error, 1)
	go func() { t1 <- m.Acquire(ctx, 1, "b", Exclusive) }()
	time.Sleep(30 * time.Millisecond) // let owner 1 block on b
	err2 := m.Acquire(ctx, 2, "a", Exclusive)
	if !errors.Is(err2, ErrDeadlock) {
		t.Fatalf("owner 2 got %v, want ErrDeadlock", err2)
	}
	// Victim releases; owner 1 proceeds.
	m.ReleaseAll(2)
	if err := <-t1; err != nil {
		t.Fatalf("owner 1 after victim release: %v", err)
	}
	if got := m.Stats().Deadlocks; got != 1 {
		t.Errorf("Deadlocks = %d, want 1", got)
	}
}

func TestUpgradeDeadlock(t *testing.T) {
	m := NewManager()
	ctx := ctxT(t)
	if err := m.Acquire(ctx, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 2, "k", Shared); err != nil {
		t.Fatal(err)
	}
	t1 := make(chan error, 1)
	go func() { t1 <- m.Acquire(ctx, 1, "k", Exclusive) }()
	time.Sleep(30 * time.Millisecond)
	err2 := m.Acquire(ctx, 2, "k", Exclusive)
	if !errors.Is(err2, ErrDeadlock) {
		t.Fatalf("upgrade-upgrade got %v, want ErrDeadlock", err2)
	}
	m.ReleaseAll(2)
	if err := <-t1; err != nil {
		t.Fatal(err)
	}
}

func TestContextCancellationRemovesWaiter(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(context.Background(), 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() { res <- m.Acquire(ctx, 2, "k", Shared) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The cancelled waiter must not be granted later.
	m.ReleaseAll(1)
	time.Sleep(20 * time.Millisecond)
	if m.HoldsLock(2, "k", Shared) {
		t.Error("cancelled waiter was granted")
	}
}

// absorbAll is an arbiter that absorbs everything and records calls.
type absorbAll struct {
	mu    sync.Mutex
	calls []ConflictInfo
}

func (a *absorbAll) Absorb(ci ConflictInfo) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	ci.Holders = slices.Clone(ci.Holders) // valid only for the call
	a.calls = append(a.calls, ci)
	return true
}

func TestArbiterAbsorbsConflict(t *testing.T) {
	arb := &absorbAll{}
	m := NewManager(WithArbiter(arb))
	ctx := ctxT(t)
	if err := m.Acquire(ctx, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	// A conflicting S request is granted immediately via the arbiter.
	if err := m.Acquire(ctx, 2, "k", Shared); err != nil {
		t.Fatalf("absorbed acquire: %v", err)
	}
	if !m.HoldsLock(1, "k", Exclusive) || !m.HoldsLock(2, "k", Shared) {
		t.Error("fuzzy co-holding not recorded")
	}
	if got := m.Stats().FuzzyGrants; got != 1 {
		t.Errorf("FuzzyGrants = %d, want 1", got)
	}
	arb.mu.Lock()
	defer arb.mu.Unlock()
	if len(arb.calls) != 1 {
		t.Fatalf("arbiter calls = %d, want 1", len(arb.calls))
	}
	ci := arb.calls[0]
	if ci.Key != "k" || ci.Requester != 2 || ci.Mode != Shared ||
		len(ci.Holders) != 1 || ci.Holders[0].Owner != 1 || ci.Holders[0].Mode != Exclusive {
		t.Errorf("conflict info = %+v", ci)
	}
}

// TestConflictHoldersInGrantOrder pins the order the arbiter sees
// conflicting holders in: grant order, in every fresh manager. The dc
// controller prices the holders in that order and its observer's
// Event.Pairs follow it, so a holder order drawn from map iteration
// made the ε ledger and the conformance log vary run to run. It kills
// scripts/mutants/11-conflicts-map-order.patch.
func TestConflictHoldersInGrantOrder(t *testing.T) {
	ctx := ctxT(t)
	holders := func(ci ConflictInfo) []Owner {
		var out []Owner
		for _, h := range ci.Holders {
			out = append(out, h.Owner)
		}
		return out
	}
	for run := 0; run < 50; run++ {
		arb := &absorbAll{}
		m := NewManager(WithArbiter(arb))
		for _, o := range []Owner{1, 2, 3} {
			if err := m.Acquire(ctx, o, "k", Shared); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Acquire(ctx, 4, "k", Exclusive); err != nil {
			t.Fatal(err)
		}
		// Owner 2 leaves and comes back: it is now the latest grant.
		m.ReleaseAll(2)
		if err := m.Acquire(ctx, 2, "k", Shared); err != nil {
			t.Fatal(err)
		}
		if err := m.Acquire(ctx, 5, "k", Exclusive); err != nil {
			t.Fatal(err)
		}
		arb.mu.Lock()
		got := [][]Owner{holders(arb.calls[0]), holders(arb.calls[1]), holders(arb.calls[2])}
		arb.mu.Unlock()
		want := [][]Owner{{1, 2, 3}, {4}, {1, 3, 4, 2}}
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("run %d: arbiter call %d saw holders %v, want %v (grant order)", run, i, got[i], want[i])
			}
		}
	}
}

// absorbNth absorbs only from the nth call on.
type absorbNth struct {
	mu   sync.Mutex
	n    int
	seen int
}

func (a *absorbNth) Absorb(ConflictInfo) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seen++
	return a.seen >= a.n
}

func TestArbiterConsultedAgainOnWake(t *testing.T) {
	// First consult (at request) refuses; the waiter blocks. When a
	// holder releases and one conflicting holder remains, the arbiter is
	// consulted again and absorbs.
	arb := &absorbNth{n: 2}
	m := NewManager(WithArbiter(arb))
	ctx := ctxT(t)
	if err := m.Acquire(ctx, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 3, "q", Exclusive); err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() { res <- m.Acquire(ctx, 2, "k", Shared) }()
	time.Sleep(30 * time.Millisecond)
	select {
	case err := <-res:
		t.Fatalf("granted too early: %v", err)
	default:
	}
	// Releasing an unrelated key does not wake k's queue; releasing a
	// related holder does. Owner 1 re-acquires nothing; instead grab k
	// with a second conflicting holder to exercise re-evaluation.
	m.ReleaseAll(1)
	if err := <-res; err != nil {
		t.Fatalf("wake grant: %v", err)
	}
	m.ReleaseAll(3)
}

func TestReleaseAllIsIdempotentAndScoped(t *testing.T) {
	m := NewManager()
	ctx := ctxT(t)
	if err := m.Acquire(ctx, 1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(1) // idempotent
	if m.HoldsLock(1, "a", Shared) {
		t.Error("owner 1 still holds a")
	}
	if !m.HoldsLock(2, "b", Exclusive) {
		t.Error("owner 2 lost b")
	}
	m.ReleaseAll(99) // never held anything
}

func TestHeldKeys(t *testing.T) {
	m := NewManager()
	ctx := ctxT(t)
	if err := m.Acquire(ctx, 1, "a", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 1, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	keys := m.HeldKeys(1)
	if len(keys) != 2 {
		t.Errorf("HeldKeys = %v, want 2 keys", keys)
	}
}

func TestStressNoLostGrantsOrLeaks(t *testing.T) {
	// Many owners acquire random key sets in sorted order (deadlock-free)
	// and release; every acquire must eventually succeed and the table
	// must drain empty.
	m := NewManager()
	keys := []storage.Key{"a", "b", "c", "d", "e"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for it := 0; it < 50; it++ {
				owner := Owner(id*1000 + it)
				start := rng.Intn(len(keys))
				for j := start; j < len(keys); j++ {
					mode := Shared
					if rng.Intn(2) == 0 {
						mode = Exclusive
					}
					if err := m.Acquire(context.Background(), owner, keys[j], mode); err != nil {
						errs <- err
						return
					}
				}
				m.ReleaseAll(owner)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("stress acquire: %v", err)
	}
	// Rows stay in the table, but none may retain holders or waiters,
	// and the owner-keyed lockers must be fully drained.
	for _, s := range m.stripes {
		s.mu.Lock()
		for k, e := range s.table {
			if len(e.holders) != 0 || len(e.queue) != 0 {
				t.Errorf("lock entry %q not drained: %d holders, %d waiters", k, len(e.holders), len(e.queue))
			}
		}
		s.mu.Unlock()
	}
	m.ownMu.Lock()
	if len(m.byOwner) != 0 {
		t.Errorf("owner-keyed lockers not drained: %d owners", len(m.byOwner))
	}
	m.ownMu.Unlock()
}

// TestStressWithDeadlocksResolves runs random (unordered) acquisition
// across few keys with retries: the detector must keep the system live.
// Afterwards the waits-for graph and the lock table must be empty. That
// guards the detector's gated clear, which skips the detector mutex
// while no owner has edges: a waiter whose edges outlive its wait
// (granted, victim or released) would leak into the graph here. The run
// must wait and deadlock for the guard to mean anything.
func TestStressWithDeadlocksResolves(t *testing.T) {
	m := NewManager()
	keys := []storage.Key{"a", "b", "c"}
	var wg sync.WaitGroup
	var done sync.Map
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 7))
			for it := 0; it < 30; it++ {
				owner := Owner(id*1000 + it)
			retry:
				for {
					order := rng.Perm(len(keys))
					ok := true
					for _, j := range order[:2] {
						if err := m.Acquire(context.Background(), owner, keys[j], Exclusive); err != nil {
							m.ReleaseAll(owner)
							ok = false
							break
						}
						// Yield while holding: without it the goroutines
						// run one after another and nothing ever waits.
						runtime.Gosched()
					}
					if ok {
						break retry
					}
				}
				m.ReleaseAll(owner)
			}
			done.Store(id, true)
		}(i)
	}
	ok := make(chan struct{})
	go func() { wg.Wait(); close(ok) }()
	select {
	case <-ok:
	case <-time.After(20 * time.Second):
		t.Fatal("stress with deadlocks did not finish: likely lost wakeup")
	}
	if st := m.Stats(); st.Blocks == 0 || st.Deadlocks == 0 {
		t.Errorf("stats %+v: the run never waited or never deadlocked", st)
	}
	if wf := m.WaitGraph(); len(wf) != 0 {
		t.Errorf("waits-for graph not drained: %v", wf)
	}
	for _, s := range m.stripes {
		s.mu.Lock()
		for k, e := range s.table {
			if len(e.holders) != 0 || len(e.queue) != 0 {
				t.Errorf("lock entry %q not drained: %d holders, %d waiters", k, len(e.holders), len(e.queue))
			}
		}
		s.mu.Unlock()
	}
}
