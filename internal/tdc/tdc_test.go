package tdc

import (
	"context"
	"errors"
	"sync"
	"testing"

	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

func newEngineT(init map[storage.Key]metric.Value) *Engine {
	return NewEngine(storage.NewFrom(init), nil)
}

// mustRun retries timestamp aborts until commit.
func mustRun(t *testing.T, e *Engine, base lock.Owner, p *txn.Program, spec metric.Spec, class txn.Class) *txn.Outcome {
	t.Helper()
	owner := base
	for {
		out, _, err := e.Run(context.Background(), owner, p, spec, class)
		if err == nil {
			return out
		}
		if !e.Retryable(err) {
			t.Fatalf("run %s: %v", p.Name, err)
		}
		owner++
	}
}

func TestCommitSimpleTransfer(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 1000, "y": 0})
	p := txn.MustProgram("xfer", txn.AddOp("x", -100), txn.AddOp("y", 100))
	out := mustRun(t, e, 1, p, metric.Strict, txn.Update)
	if !out.Committed {
		t.Fatal("not committed")
	}
	if e.store.Get("x") != 900 || e.store.Get("y") != 100 {
		t.Errorf("state: x=%d y=%d", e.store.Get("x"), e.store.Get("y"))
	}
	if st := e.Stats(); st.Commits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSequentialUpdatesOrdered(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 0})
	set1 := txn.MustProgram("set1", txn.SetOp("x", 1))
	set2 := txn.MustProgram("set2", txn.SetOp("x", 2))
	mustRun(t, e, 1, set1, metric.Strict, txn.Update)
	mustRun(t, e, 100, set2, metric.Strict, txn.Update)
	if got := e.store.Get("x"); got != 2 {
		t.Errorf("x = %d, want 2 (timestamp order)", got)
	}
}

func TestRollbackHasNoEffects(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 50})
	p := txn.MustProgram("w",
		txn.AddOp("staging", 1),
		txn.WithAbortIf(txn.AddOp("x", -100), func(v metric.Value) bool { return v < 100 }),
	)
	_, _, err := e.Run(context.Background(), 1, p, metric.Strict, txn.Update)
	if !errors.Is(err, txn.ErrRollback) {
		t.Fatalf("err = %v", err)
	}
	if e.store.Has("staging") {
		t.Error("buffered write leaked")
	}
}

func TestQueryReadsStaleWithinBudget(t *testing.T) {
	// An "old" query (small timestamp) reading keys written by newer
	// updates must charge the writers' bounds against its import limit.
	e := newEngineT(map[storage.Key]metric.Value{"x": 1000})

	// Start the query first (older timestamp), pause it mid-flight.
	started := make(chan struct{})
	release := make(chan struct{})
	slowQuery := txn.MustProgram("q",
		txn.Op{Kind: txn.OpRead, Key: "pause", AbortIf: func(metric.Value) bool {
			close(started)
			<-release
			return false
		}},
		txn.ReadOp("x"),
	)
	type qres struct {
		imported metric.Fuzz
		err      error
	}
	res := make(chan qres, 1)
	go func() {
		_, imported, err := e.Run(context.Background(), 10, slowQuery,
			metric.Spec{Import: metric.LimitOf(100), Export: metric.Zero}, txn.Query)
		res <- qres{imported, err}
	}()
	<-started
	// A newer update writes x (bound 100) and commits.
	upd := txn.MustProgram("upd", txn.AddOp("x", -100))
	mustRun(t, e, 20, upd, metric.SpecOf(1000), txn.Update)
	close(release)
	r := <-res
	if r.err != nil {
		t.Fatalf("query: %v", r.err)
	}
	if r.imported != 100 {
		t.Errorf("imported = %d, want 100", r.imported)
	}
	if got := e.Stats().Absorbed; got == 0 {
		t.Error("no absorption recorded")
	}
}

func TestQueryAbortsBeyondImportBudget(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 1000})
	started := make(chan struct{})
	release := make(chan struct{})
	slowQuery := txn.MustProgram("q",
		txn.Op{Kind: txn.OpRead, Key: "pause", AbortIf: func(metric.Value) bool {
			close(started)
			<-release
			return false
		}},
		txn.ReadOp("x"),
	)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := e.Run(context.Background(), 10, slowQuery,
			metric.Spec{Import: metric.LimitOf(50), Export: metric.Zero}, txn.Query)
		errCh <- err
	}()
	<-started
	upd := txn.MustProgram("upd", txn.AddOp("x", -100))
	mustRun(t, e, 20, upd, metric.SpecOf(1000), txn.Update)
	close(release)
	if err := <-errCh; !e.Retryable(err) {
		t.Fatalf("err = %v, want timestamp abort", err)
	}
}

func TestWriteUnderQueryReadExports(t *testing.T) {
	// The query reads x with a NEWER timestamp than the update that then
	// writes x: the update exports its bound.
	e := newEngineT(map[storage.Key]metric.Value{"x": 1000, "pause": 0})

	// Update starts first (older ts) and pauses before writing x.
	started := make(chan struct{})
	release := make(chan struct{})
	slowUpd := txn.MustProgram("slowupd",
		txn.Op{Kind: txn.OpRead, Key: "pause", AbortIf: func(metric.Value) bool {
			close(started)
			<-release
			return false
		}},
		txn.AddOp("x", -100),
	)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := e.Run(context.Background(), 10, slowUpd,
			metric.Spec{Import: metric.Zero, Export: metric.LimitOf(100)}, txn.Update)
		errCh <- err
	}()
	<-started
	// A newer query reads x.
	q := txn.MustProgram("q", txn.ReadOp("x"))
	mustRun(t, e, 20, q, metric.SpecOf(1000), txn.Query)
	close(release)
	if err := <-errCh; err != nil {
		t.Fatalf("update with export budget: %v", err)
	}
	// Same shape with zero export budget → abort.
	started2 := make(chan struct{})
	release2 := make(chan struct{})
	slowUpd2 := txn.MustProgram("slowupd2",
		txn.Op{Kind: txn.OpRead, Key: "pause", AbortIf: func(metric.Value) bool {
			close(started2)
			<-release2
			return false
		}},
		txn.AddOp("x", -100),
	)
	errCh2 := make(chan error, 1)
	go func() {
		_, _, err := e.Run(context.Background(), 30, slowUpd2, metric.Strict, txn.Update)
		errCh2 <- err
	}()
	<-started2
	mustRun(t, e, 40, q, metric.SpecOf(1000), txn.Query)
	close(release2)
	if err := <-errCh2; !e.Retryable(err) {
		t.Fatalf("err = %v, want timestamp abort (no export budget)", err)
	}
}

func TestLateUpdateReadAborts(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 0, "pause": 0})
	started := make(chan struct{})
	release := make(chan struct{})
	slowReader := txn.MustProgram("slowreader",
		txn.Op{Kind: txn.OpRead, Key: "pause", AbortIf: func(metric.Value) bool {
			close(started)
			<-release
			return false
		}},
		txn.ReadOp("x"),
	)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := e.Run(context.Background(), 10, slowReader, metric.Strict, txn.Update)
		errCh <- err
	}()
	<-started
	// A newer update writes x first.
	mustRun(t, e, 20, txn.MustProgram("w", txn.SetOp("x", 9)), metric.Strict, txn.Update)
	close(release)
	if err := <-errCh; !e.Retryable(err) {
		t.Fatalf("late read err = %v, want timestamp abort", err)
	}
}

func TestConcurrentAddsAllApply(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 0})
	p := txn.MustProgram("inc", txn.AddOp("x", 1))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				owner := lock.Owner(i*100000 + j*100)
				for {
					_, _, err := e.Run(context.Background(), owner, p, metric.Strict, txn.Update)
					if err == nil {
						break
					}
					if !e.Retryable(err) {
						t.Errorf("inc: %v", err)
						return
					}
					owner++
				}
			}
		}(i)
	}
	wg.Wait()
	if got := e.store.Get("x"); got != 320 {
		t.Errorf("x = %d, want 320 (no lost increments)", got)
	}
}

func TestGCTrimsRecentWrites(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 0})
	p := txn.MustProgram("inc", txn.AddOp("x", 1))
	for i := 0; i < 50; i++ {
		mustRun(t, e, lock.Owner(1000+i*10), p, metric.Strict, txn.Update)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for k, ks := range e.keys {
		if len(ks.recent) > 1 {
			t.Errorf("key %s retains %d recent writes after quiescence", k, len(ks.recent))
		}
	}
}

func TestInvalidProgramAndContext(t *testing.T) {
	e := newEngineT(nil)
	if _, _, err := e.Run(context.Background(), 1, &txn.Program{Name: "bad"}, metric.Strict, txn.Query); err == nil {
		t.Error("invalid program accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := txn.MustProgram("t", txn.ReadOp("x"))
	if _, _, err := e.Run(ctx, 1, p, metric.Strict, txn.Query); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestMixedWorkloadConservesMoney(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 100000, "y": 100000})
	xfer := txn.MustProgram("xfer", txn.AddOp("x", -100), txn.AddOp("y", 100))
	audit := txn.MustProgram("audit", txn.ReadOp("x"), txn.ReadOp("y"))
	spec := metric.SpecOf(10000)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				owner := lock.Owner(i*1000000 + j*1000)
				p, class := xfer, txn.Update
				if i%2 == 0 {
					p, class = audit, txn.Query
				}
				for {
					out, _, err := e.Run(context.Background(), owner, p, spec, class)
					if err == nil {
						if class == txn.Query {
							if dev := metric.Distance(out.SumReads(), 200000); dev > 10000 {
								t.Errorf("deviation %d > ε", dev)
							}
						}
						break
					}
					if !e.Retryable(err) {
						t.Errorf("run: %v", err)
						return
					}
					owner++
				}
			}
		}(i)
	}
	wg.Wait()
	if got := e.store.Get("x") + e.store.Get("y"); got != 200000 {
		t.Errorf("total = %d, want 200000", got)
	}
}
