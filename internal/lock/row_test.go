package lock

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"asynctp/internal/storage"
)

// TestKeyRequestMeetsResolvedRow: the row Manager.Row resolves a key to
// is the row a request for the key by key takes, so a Locker holding
// the resolved row and an owner-keyed Acquire of the key exclude each
// other, both ways, and the key keeps that one row throughout.
func TestKeyRequestMeetsResolvedRow(t *testing.T) {
	m := NewManager(WithStripes(1))
	ctx := ctxT(t)
	r := m.Row("hot")
	// blocked reports whether acquire waits out a short deadline.
	blocked := func(acquire func(context.Context) error) bool {
		c, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
		defer cancel()
		return errors.Is(acquire(c), context.DeadlineExceeded)
	}
	a := m.Locker(2)
	if err := a.Acquire(ctx, r, Exclusive); err != nil {
		t.Fatal(err)
	}
	if !blocked(func(c context.Context) error { return m.Acquire(c, 3, "hot", Shared) }) {
		t.Error("a key-path request was granted while a Locker held the resolved row exclusively")
	}
	a.ReleaseAll()
	m.ReleaseAll(3)
	if err := m.Acquire(ctx, 3, "hot", Exclusive); err != nil {
		t.Fatal(err)
	}
	b := m.Locker(4)
	if !blocked(func(c context.Context) error { return b.Acquire(c, r, Shared) }) {
		t.Error("the resolved row was granted while a key-path owner held its key exclusively")
	}
	m.ReleaseAll(3)
	b.ReleaseAll()
	if m.Row("hot") != r {
		t.Error("the key resolves to another row after its requests were released")
	}
	a.Free()
	b.Free()
}

// TestStripeLayout: a stripe, counters included, fills one cache line.
func TestStripeLayout(t *testing.T) {
	if got := unsafe.Sizeof(stripe{}); got != cacheLine {
		t.Errorf("stripe is %d bytes, want %d", got, cacheLine)
	}
}

// TestLockerReleasesInKeyOrder: a Locker's rows are released in key
// order whatever order they were acquired in, so the waiters a release
// wakes are woken in key order (the order the schedule explorer's
// fingerprints depend on).
func TestLockerReleasesInKeyOrder(t *testing.T) {
	obs := &wakeLog{}
	m := NewManager(WithWaitObserver(obs))
	ctx := ctxT(t)
	keys := []storage.Key{"c", "a", "d", "b"}
	l := m.Locker(1)
	for _, k := range keys {
		if err := l.Acquire(ctx, m.Row(k), Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, len(keys))
	for i, k := range keys {
		owner := Owner(10 + i)
		go func() { done <- m.Acquire(ctx, owner, k, Exclusive) }()
		obs.waitBlocked(t, i+1)
	}
	l.ReleaseAll()
	for range keys {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Owners 10..13 waited on c, a, d, b: key order wakes 11, 13, 10, 12.
	if got, want := fmt.Sprint(obs.woken()), "[11 13 10 12]"; got != want {
		t.Errorf("woken in order %s, want %s (key order)", got, want)
	}
	l.Free()
}

// wakeLog records Blocked counts and Woken order.
type wakeLog struct {
	mu      sync.Mutex
	blocked int
	wake    []Owner
}

func (w *wakeLog) Blocked(Owner, storage.Key) { w.mu.Lock(); w.blocked++; w.mu.Unlock() }
func (w *wakeLog) Woken(o Owner)              { w.mu.Lock(); w.wake = append(w.wake, o); w.mu.Unlock() }
func (w *wakeLog) Resumed(Owner)              {}

func (w *wakeLog) woken() []Owner {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Owner(nil), w.wake...)
}

// waitBlocked waits until n requests have blocked.
func (w *wakeLog) waitBlocked(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		w.mu.Lock()
		got := w.blocked
		w.mu.Unlock()
		if got >= n {
			return
		}
	}
	t.Fatalf("%d requests never blocked", n)
}

// TestRowAcquireReleaseZeroAlloc pins the Locker path an engine attempt
// takes: a pooled Locker acquires resolved rows and releases them, and
// the cycle allocates nothing.
func TestRowAcquireReleaseZeroAlloc(t *testing.T) {
	m := NewManager()
	x, y := m.Row("x"), m.Row("y")
	ctx := context.Background()
	cycle := func() {
		l := m.Locker(1)
		if err := l.Acquire(ctx, y, Shared); err != nil {
			t.Fatal(err)
		}
		if err := l.Acquire(ctx, x, Exclusive); err != nil {
			t.Fatal(err)
		}
		l.ReleaseAll()
		l.Free()
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs > 0 {
		t.Errorf("row acquire/release: %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkAcquireRelease measures one uncontended acquire/release
// cycle of two locks (X then S) under a fresh owner: on the key path,
// through the owner-keyed API as the benchmark harness's lock replay
// takes it, and on the row path, through a pooled Locker and resolved
// rows as a registered piece's attempt takes it.
func BenchmarkAcquireRelease(b *testing.B) {
	ctx := context.Background()
	b.Run("key", func(b *testing.B) {
		m := NewManager()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := m.Acquire(ctx, Owner(i), "x", Exclusive); err != nil {
				b.Fatal(err)
			}
			if err := m.Acquire(ctx, Owner(i), "y", Shared); err != nil {
				b.Fatal(err)
			}
			m.ReleaseAll(Owner(i))
		}
	})
	b.Run("row", func(b *testing.B) {
		m := NewManager()
		x, y := m.Row("x"), m.Row("y")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l := m.Locker(Owner(i))
			if err := l.Acquire(ctx, x, Exclusive); err != nil {
				b.Fatal(err)
			}
			if err := l.Acquire(ctx, y, Shared); err != nil {
				b.Fatal(err)
			}
			l.ReleaseAll()
			l.Free()
		}
	})
}
