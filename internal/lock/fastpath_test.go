package lock

import (
	"context"
	"testing"
)

// The lock manager's uncontended hot path must stay lean with no wait
// observer installed (the default): the observability shims are nil
// checks, never boxed events. A steady-state acquire/release cycle
// allocates nothing: table rows and their holder slices stay cached,
// and the owner-keyed API's Locker, with its held rows' slice, goes back
// to the manager's pool at ReleaseAll for the next owner.
// Any allocation means per-attempt bookkeeping or instrumentation
// leaked onto the fast path.

func TestAcquireReleaseNoObserverZeroAlloc(t *testing.T) {
	m := NewManager()
	ctx := context.Background()
	// Warm the table: entries persist across ReleaseAll.
	if err := m.Acquire(ctx, 1, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 1, "y", Shared); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := m.Acquire(ctx, 1, "x", Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := m.Acquire(ctx, 1, "y", Shared); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll(1)
	})
	const heldSliceBudget = 0 // the held slice is recycled, not rebuilt
	if allocs > heldSliceBudget {
		t.Errorf("uncontended acquire/release with nil observer: %.1f allocs/op, want <= %d",
			allocs, heldSliceBudget)
	}
}

func TestReacquireHeldLockZeroAlloc(t *testing.T) {
	m := NewManager()
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := m.Acquire(ctx, 1, "x", Exclusive); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("re-acquire of a held lock: %.1f allocs/op, want 0", allocs)
	}
}
