package txn

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/storage"
)

// event is one observer callback for assertion.
type event struct {
	kind  string
	owner lock.Owner
	key   storage.Key
	old   metric.Value
	val   metric.Value
}

// recorder is a test Observer.
type recorder struct {
	mu     sync.Mutex
	events []event
}

func (r *recorder) Begin(o lock.Owner, name string, c Class) {
	r.add(event{kind: "begin", owner: o})
}
func (r *recorder) Read(o lock.Owner, k storage.Key, v metric.Value) {
	r.add(event{kind: "read", owner: o, key: k, val: v})
}
func (r *recorder) Write(o lock.Owner, k storage.Key, old, v metric.Value, commutative bool) {
	r.add(event{kind: "write", owner: o, key: k, old: old, val: v})
}
func (r *recorder) Commit(o lock.Owner) { r.add(event{kind: "commit", owner: o}) }
func (r *recorder) Abort(o lock.Owner, err error) {
	r.add(event{kind: "abort", owner: o})
}

func (r *recorder) add(e event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

func (r *recorder) kinds() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.events))
	for i, e := range r.events {
		out[i] = e.kind
	}
	return out
}

func newExecT(init map[storage.Key]metric.Value) (*Exec, *recorder) {
	rec := &recorder{}
	return NewExec(storage.NewFrom(init), lock.NewManager(), rec), rec
}

// planOf is p's plan on e's store and lock table.
func planOf(e *Exec, p *Program) Plan { return Resolve(p, e.Store(), e.Locks()) }

// blocks reports whether a request for key in mode must wait in m: a
// probe whose context has already ended is refused only if it queues.
func blocks(m *lock.Manager, key storage.Key, mode lock.Mode) bool {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	probe := m.Locker(1 << 40)
	defer probe.Free()
	err := probe.Acquire(ctx, m.Row(key), mode)
	probe.ReleaseAll()
	return err != nil
}

// heldKeys returns the keys of p's ops that some owner holds in m (any
// mode).
func heldKeys(m *lock.Manager, p *Program) []storage.Key {
	var out []storage.Key
	for _, op := range p.Ops {
		if blocks(m, op.Key, lock.Exclusive) && !slices.Contains(out, op.Key) {
			out = append(out, op.Key)
		}
	}
	return out
}

func TestRunCommitsTransfer(t *testing.T) {
	e, rec := newExecT(map[storage.Key]metric.Value{"x": 1000, "y": 500})
	xfer := MustProgram("xfer", AddOp("x", -100), AddOp("y", 100))
	out, err := e.Run(context.Background(), e.Locks().Locker(1), xfer, planOf(e, xfer))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Committed {
		t.Fatal("not committed")
	}
	if got := e.Store().Get("x"); got != 900 {
		t.Errorf("x = %d, want 900", got)
	}
	if got := e.Store().Get("y"); got != 600 {
		t.Errorf("y = %d, want 600", got)
	}
	want := []string{"begin", "write", "write", "commit"}
	got := rec.kinds()
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
	// Locks must be released at commit.
	if len(heldKeys(e.Locks(), xfer)) != 0 {
		t.Error("locks leaked after commit")
	}
}

func TestRunReadsObserveValues(t *testing.T) {
	e, _ := newExecT(map[storage.Key]metric.Value{"x": 10, "y": 20})
	audit := MustProgram("audit", ReadOp("x"), ReadOp("y"))
	out, err := e.Run(context.Background(), e.Locks().Locker(2), audit, planOf(e, audit))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.SumReads(); got != 30 {
		t.Errorf("SumReads = %d, want 30", got)
	}
	if v, ok := out.ReadValue("y"); !ok || v != 20 {
		t.Errorf("ReadValue(y) = %d, %v", v, ok)
	}
	if _, ok := out.ReadValue("zzz"); ok {
		t.Error("ReadValue on unread key reported ok")
	}
}

func TestBusinessRollbackUndoesWrites(t *testing.T) {
	e, rec := newExecT(map[storage.Key]metric.Value{"x": 50})
	// Withdraw 100 from x, but roll back on insufficient funds; the
	// predicate sees the pre-write value.
	p := MustProgram("withdraw",
		AddOp("staging", 1), // a write that must be undone
		WithAbortIf(AddOp("x", -100), func(v metric.Value) bool { return v < 100 }),
	)
	out, err := e.Run(context.Background(), e.Locks().Locker(3), p, planOf(e, p))
	if !errors.Is(err, ErrRollback) {
		t.Fatalf("err = %v, want ErrRollback", err)
	}
	if out.Committed {
		t.Error("outcome committed after rollback")
	}
	if got := e.Store().Get("staging"); got != 0 {
		t.Errorf("staging = %d after undo, want 0", got)
	}
	if got := e.Store().Get("x"); got != 50 {
		t.Errorf("x = %d after undo, want 50", got)
	}
	kinds := rec.kinds()
	if kinds[len(kinds)-1] != "abort" {
		t.Errorf("last event = %s, want abort", kinds[len(kinds)-1])
	}
	if Retryable(err) {
		t.Error("business rollback classified retryable")
	}
}

func TestRollbackNotTriggeredWhenFundsSuffice(t *testing.T) {
	e, _ := newExecT(map[storage.Key]metric.Value{"x": 500})
	p := MustProgram("withdraw",
		WithAbortIf(AddOp("x", -100), func(v metric.Value) bool { return v < 100 }))
	out, err := e.Run(context.Background(), e.Locks().Locker(4), p, planOf(e, p))
	if err != nil || !out.Committed {
		t.Fatalf("err = %v committed = %v", err, out.Committed)
	}
	if got := e.Store().Get("x"); got != 400 {
		t.Errorf("x = %d, want 400", got)
	}
}

func TestDeadlockAbortUndoesAndIsRetryable(t *testing.T) {
	store := storage.NewFrom(map[storage.Key]metric.Value{"a": 1, "b": 2})
	locks := lock.NewManager()
	e := NewExec(store, locks, nil)

	// Owner 9 holds b exclusively and waits for a; txn 10 takes a then b.
	// The op delay keeps txn 10 inside its first op long enough for owner
	// 9 to queue up on "a", making txn 10 the one that closes the cycle
	// (and hence the deterministic victim).
	e.SetOpDelay(300 * time.Millisecond)
	if err := locks.Acquire(context.Background(), 9, "b", lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	hold := make(chan error, 1)
	go func() {
		// Owner 9 waits on "a" after txn 10 grabs it, while txn 10 is
		// still sleeping in its first op.
		time.Sleep(50 * time.Millisecond)
		hold <- locks.Acquire(context.Background(), 9, "a", lock.Exclusive)
	}()
	p := MustProgram("t", AddOp("a", 10), AddOp("b", 10))
	_, err := e.Run(context.Background(), e.Locks().Locker(10), p, planOf(e, p))
	if !errors.Is(err, lock.ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !Retryable(err) {
		t.Error("deadlock not classified retryable")
	}
	// Write to "a" must be undone.
	if got := store.Get("a"); got != 1 {
		t.Errorf("a = %d after deadlock undo, want 1", got)
	}
	locks.ReleaseAll(9)
	if err := <-hold; err != nil {
		t.Fatal(err)
	}
}

// TestHoldThenCommitOrAbort: a held attempt keeps its locks and its
// uncommitted writes; Commit runs durable after the store commit and
// before the release, and Abort restores the before-images.
func TestHoldThenCommitOrAbort(t *testing.T) {
	e, rec := newExecT(map[storage.Key]metric.Value{"x": 10, "y": 0})
	locks := e.Locks()
	ctx := context.Background()
	xfer := MustProgram("xfer", AddOp("x", -3), AddOp("y", 3), ReadOp("y"))

	h, err := e.Hold(ctx, locks.Locker(1), xfer, planOf(e, xfer))
	if err != nil {
		t.Fatal(err)
	}
	if !blocks(locks, "y", lock.Shared) || h.Out.Committed || len(h.Out.Reads) != 1 {
		t.Fatalf("held: locks %v, outcome %+v", heldKeys(locks, xfer), h.Out)
	}
	durable := errors.New("sync failed")
	out, err := h.Commit(func() error {
		if !blocks(locks, "x", lock.Shared) {
			t.Error("durable ran after the locks were released")
		}
		return durable
	})
	if !errors.Is(err, durable) || !out.Committed || len(heldKeys(locks, xfer)) != 0 {
		t.Fatalf("commit: err=%v committed=%v held=%v", err, out.Committed, heldKeys(locks, xfer))
	}

	h, err = e.Hold(ctx, locks.Locker(2), xfer, planOf(e, xfer))
	if err != nil {
		t.Fatal(err)
	}
	h.Abort(errors.New("no"))
	if x, y := e.Store().Get("x"), e.Store().Get("y"); x != 7 || y != 3 || len(heldKeys(locks, xfer)) != 0 {
		t.Errorf("after abort: x=%d y=%d held=%v, want 7, 3 and no locks", x, y, heldKeys(locks, xfer))
	}
	want := []string{"begin", "write", "write", "read", "commit", "begin", "write", "write", "read", "abort"}
	if got := rec.kinds(); !slices.Equal(got, want) {
		t.Errorf("events = %v, want %v", got, want)
	}
}

func TestRunInvalidProgram(t *testing.T) {
	e, _ := newExecT(nil)
	bad := &Program{Name: "bad"}
	if _, err := e.Run(context.Background(), e.Locks().Locker(1), bad, planOf(e, bad)); err == nil {
		t.Error("invalid program accepted")
	}
}

func TestIDGenUnique(t *testing.T) {
	gen := &IDGen{}
	var wg sync.WaitGroup
	seen := sync.Map{}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				id := gen.Next()
				if _, dup := seen.LoadOrStore(id, true); dup {
					t.Errorf("duplicate id %d", id)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// batchSink records the batches a store commits.
type batchSink struct{ batches []storage.Batch }

func (s *batchSink) Commit(b storage.Batch) error {
	s.batches = append(s.batches, storage.Batch{LSN: b.LSN, Writes: slices.Clone(b.Writes)})
	return nil
}

func (s *batchSink) Sync() error { return nil }

// TestCommitJournalsBatch: a commit hands its final writes to the
// store's sink as one batch; an abort hands it nothing.
func TestCommitJournalsBatch(t *testing.T) {
	e, _ := newExecT(nil)
	sink := &batchSink{}
	e.Store().SetSink(sink)
	p := MustProgram("t", AddOp("x", 5), AddOp("x", 2), AddOp("y", -1))
	if _, err := e.Run(context.Background(), e.Locks().Locker(1), p, planOf(e, p)); err != nil {
		t.Fatal(err)
	}
	want := []storage.Batch{{LSN: 1, Writes: []storage.Write{{Key: "x", Value: 7}, {Key: "y", Value: -1}}}}
	if !reflect.DeepEqual(sink.batches, want) {
		t.Errorf("committed batches = %+v, want %+v", sink.batches, want)
	}
	bad := MustProgram("rollback", AddOp("x", 1), WithAbortIf(AddOp("y", 1), func(v metric.Value) bool { return v < 0 }))
	if _, err := e.Run(context.Background(), e.Locks().Locker(2), bad, planOf(e, bad)); !errors.Is(err, ErrRollback) {
		t.Fatalf("err = %v, want ErrRollback", err)
	}
	if len(sink.batches) != 1 || e.Store().Get("x") != 7 {
		t.Errorf("rollback reached the sink (%d batches) or left x = %d", len(sink.batches), e.Store().Get("x"))
	}
}
