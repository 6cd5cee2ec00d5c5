package rdc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"asynctp/internal/dc"
	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// run runs p once on e through its keys resolved to e's store cells.
func run(ctx context.Context, e *Engine, owner lock.Owner, p *txn.Program, spec metric.Spec, class txn.Class) (*txn.Outcome, metric.Fuzz, error) {
	return e.Run(ctx, owner, p, txn.Resolve(p, e.store, nil).Cells, spec, class)
}

func newEngineT(init map[storage.Key]metric.Value, policy Policy) *Engine {
	return NewEngine(storage.NewFrom(init), nil, policy)
}

// policies names every policy, for table tests and sub-benchmarks.
var policies = []struct {
	name   string
	policy Policy
}{{"abort", Abort}, {"repair", Repair}, {"repair-skip", RepairSkip}}

// forEachPolicy runs f once per policy: the behaviours it covers are
// the engine's, whatever a validation failure would cost.
func forEachPolicy(t *testing.T, f func(t *testing.T, policy Policy)) {
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) { f(t, tc.policy) })
	}
}

// pause is a read op that parks once at read time until release closes.
// Safe under repair: the started signal fires exactly once and a closed
// release never blocks re-evaluation. Park on a key nobody writes, so
// the pause itself is never a stale input.
type pause struct {
	op               txn.Op
	started, release chan struct{}
}

func newPause(key storage.Key) pause {
	p := pause{started: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	p.op = txn.Op{Kind: txn.OpRead, Key: key, AbortIf: p.parkThen(&once, func(metric.Value) bool { return false })}
	return p
}

// parkThen wraps a rollback predicate so that its first evaluation
// signals started and every evaluation waits for release.
func (p pause) parkThen(once *sync.Once, pred func(metric.Value) bool) func(metric.Value) bool {
	return func(v metric.Value) bool {
		once.Do(func() { close(p.started) })
		<-p.release
		return pred(v)
	}
}

// result is what one Engine.Run returned.
type result struct {
	out      *txn.Outcome
	imported metric.Fuzz
	err      error
}

// interleave runs slow (whose program contains at's op) on its own
// goroutine, calls during once it has parked, then releases it and
// returns what it returned.
func interleave(e *Engine, owner lock.Owner, slow *txn.Program, spec metric.Spec, class txn.Class, at pause, during func()) result {
	ch := make(chan result, 1)
	go func() {
		out, imported, err := run(context.Background(), e, owner, slow, spec, class)
		ch <- result{out, imported, err}
	}()
	<-at.started
	during()
	close(at.release)
	return <-ch
}

// commitUpdate runs an update that must commit on its first attempt.
func commitUpdate(t *testing.T, e *Engine, owner lock.Owner, p *txn.Program, spec metric.Spec) {
	t.Helper()
	if _, _, err := run(context.Background(), e, owner, p, spec, txn.Update); err != nil {
		t.Fatal(err)
	}
}

func TestCommitSimpleTransfer(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, policy Policy) {
		e := newEngineT(map[storage.Key]metric.Value{"x": 1000, "y": 0}, policy)
		p := txn.MustProgram("xfer", txn.AddOp("x", -100), txn.AddOp("y", 100))
		out, imported, err := run(context.Background(), e, 1, p, metric.Strict, txn.Update)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Committed || imported != 0 {
			t.Errorf("out=%+v imported=%d", out, imported)
		}
		if e.store.Get("x") != 900 || e.store.Get("y") != 100 {
			t.Errorf("state: x=%d y=%d", e.store.Get("x"), e.store.Get("y"))
		}
		if st := e.Stats(); st.Commits != 1 || st.Aborts != 0 || st.Repairs != 0 {
			t.Errorf("stats = %+v", st)
		}
	})
}

func TestReadsOwnWrites(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, policy Policy) {
		e := newEngineT(map[storage.Key]metric.Value{"x": 10}, policy)
		p := txn.MustProgram("t", txn.AddOp("x", 5), txn.ReadOp("x"))
		out, _, err := run(context.Background(), e, 1, p, metric.Strict, txn.Update)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := out.ReadValue("x"); !ok || v != 15 {
			t.Errorf("read own write = %d", v)
		}
	})
}

// TestInstallWritesEachKeyOnce: a key written twice is installed once,
// with its last value, and the batch keeps first-write order.
func TestInstallWritesEachKeyOnce(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, policy Policy) {
		e := newEngineT(map[storage.Key]metric.Value{"x": 10, "y": 0}, policy)
		p := txn.MustProgram("t", txn.AddOp("x", 5), txn.AddOp("y", 1), txn.ReadOp("x"), txn.AddOp("x", 7))
		out, _, err := run(context.Background(), e, 1, p, metric.Strict, txn.Update)
		if err != nil {
			t.Fatal(err)
		}
		want := []storage.Write{{Key: "x", Value: 22}, {Key: "y", Value: 1}}
		if len(out.Writes) != len(want) || out.Writes[0] != want[0] || out.Writes[1] != want[1] {
			t.Errorf("writes = %v, want %v", out.Writes, want)
		}
		if len(out.Reads) != 1 || out.Reads[0] != (txn.ReadRec{Key: "x", Value: 15}) {
			t.Errorf("reads = %v, want [{x 15}]", out.Reads)
		}
		if e.store.Get("x") != 22 || e.store.Get("y") != 1 {
			t.Errorf("state: x=%d y=%d", e.store.Get("x"), e.store.Get("y"))
		}
	})
}

func TestRollbackLeavesNoEffect(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, policy Policy) {
		e := newEngineT(map[storage.Key]metric.Value{"x": 50}, policy)
		p := txn.MustProgram("w",
			txn.AddOp("staging", 1),
			txn.WithAbortIf(txn.AddOp("x", -100), func(v metric.Value) bool { return v < 100 }),
		)
		_, _, err := run(context.Background(), e, 1, p, metric.Strict, txn.Update)
		if !errors.Is(err, txn.ErrRollback) {
			t.Fatalf("err = %v", err)
		}
		if e.store.Has("staging") {
			t.Error("buffered write leaked to store")
		}
	})
}

func TestValidationWindowGC(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, policy Policy) {
		e := newEngineT(map[storage.Key]metric.Value{"x": 0}, policy)
		p := txn.MustProgram("inc", txn.AddOp("x", 1))
		for i := 0; i < 100; i++ {
			if _, _, err := run(context.Background(), e, lock.Owner(i+1), p, metric.Strict, txn.Update); err != nil {
				t.Fatal(err)
			}
		}
		// With no active transactions, the window must be empty.
		if got := e.Stats().GCRetained; got != 0 {
			t.Errorf("validation window = %d entries after quiescence", got)
		}
		if keys, _ := chains(e); keys != 0 {
			t.Errorf("version chains hold %d keys after quiescence", keys)
		}
		// Versions live in the store cells, which GC does not touch.
		if _, got := e.store.Cell("x").Load(); got != 100 {
			t.Errorf("x's version = %d after 100 commits, want 100", got)
		}
	})
}

// chains returns how many keys have a version chain and how many
// entries the chains hold; both 0 for an engine that keeps no window.
func chains(e *Engine) (keys, entries int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.win == nil {
		return 0, 0
	}
	for _, ent := range e.win.index {
		keys++
		entries += len(ent)
	}
	return keys, entries
}

// parkReader starts a query that parks on a key nobody writes and
// returns once it is parked, with the channel its result arrives on.
func parkReader(e *Engine, owner lock.Owner) (pause, <-chan error) {
	at := newPause("hold")
	done := make(chan error, 1)
	go func() {
		_, _, err := run(context.Background(), e, owner, txn.MustProgram("hold", at.op), metric.SpecOf(100000), txn.Query)
		done <- err
	}()
	<-at.started
	return at, done
}

// commitWriters commits n updates spread over four keys. Each adds to
// its key twice, so a commit holds one chain entry per key, not per write.
func commitWriters(t *testing.T, e *Engine, first lock.Owner, n int) {
	t.Helper()
	spec := metric.Spec{Import: metric.Zero, Export: metric.LimitOf(1000)}
	for i := 0; i < n; i++ {
		k := storage.Key(fmt.Sprintf("w%d", i%4))
		commitUpdate(t, e, first+lock.Owner(i), txn.MustProgram("w", txn.AddOp(k, 1), txn.AddOp(k, 1)), spec)
	}
}

// TestRepairKeepsNoWindow: only a policy that can price an absorption
// keeps a validation window. A parked reader pins every later commit in
// the window of Abort and RepairSkip; Repair validates against the
// store cells alone, so it retains nothing and builds no chain.
func TestRepairKeepsNoWindow(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, policy Policy) {
		e := newEngineT(nil, policy)
		at, done := parkReader(e, 1)
		commitWriters(t, e, 100, 100)
		retained := e.Stats().GCRetained
		keys, entries := chains(e)
		if policy == Repair {
			if e.win != nil || retained != 0 || keys != 0 {
				t.Errorf("repair: window %v, %d retained, %d chains; want none", e.win != nil, retained, keys)
			}
		} else if retained < 100 || keys != 4 || entries != 100 {
			t.Errorf("window holds %d commits, %d chains of %d entries; want ≥ 100, 4 of 100", retained, keys, entries)
		}
		close(at.release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if keys, _ := chains(e); e.Stats().GCRetained != 0 || keys != 0 {
			t.Errorf("window not empty after the reader ended")
		}
	})
}

// TestWindowGCDropsWhatNoActiveReaderNeeds: when the oldest of two
// parked readers ends, GC drops exactly the commits before the younger
// one began, from the window and from the head of every chain. Repair
// keeps no window (TestRepairKeepsNoWindow), so it is not run.
func TestWindowGCDropsWhatNoActiveReaderNeeds(t *testing.T) {
	for _, pc := range policies {
		if pc.policy == Repair {
			continue
		}
		t.Run(pc.name, func(t *testing.T) {
			e := newEngineT(nil, pc.policy)
			old, oldDone := parkReader(e, 1)
			commitWriters(t, e, 100, 10)
			young, youngDone := parkReader(e, 2)
			commitWriters(t, e, 200, 10)
			close(old.release)
			if err := <-oldDone; err != nil {
				t.Fatal(err)
			}
			e.mu.Lock()
			min := e.win.active[2]
			for k, ent := range e.win.index {
				if ent[0].seq <= min {
					t.Errorf("chain of cell %p keeps seq %d, before the active reader's %d", k, ent[0].seq, min)
				}
			}
			e.mu.Unlock()
			if got := e.Stats().GCRetained; got != 10 {
				t.Errorf("window = %d after the old reader ended, want the 10 commits since the young one began", got)
			}
			if keys, entries := chains(e); keys != 4 || entries != 10 {
				t.Errorf("%d chains of %d entries, want 4 of 10", keys, entries)
			}
			close(young.release)
			if err := <-youngDone; err != nil {
				t.Fatal(err)
			}
			if keys, _ := chains(e); e.Stats().GCRetained != 0 || keys != 0 {
				t.Errorf("window not empty after both readers ended")
			}
		})
	}
}

func TestContextCancellation(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, policy Policy) {
		e := newEngineT(nil, policy)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		p := txn.MustProgram("t", txn.ReadOp("x"))
		if _, _, err := run(ctx, e, 1, p, metric.Strict, txn.Query); !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	})
}

func TestInvalidProgramRejected(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, policy Policy) {
		e := newEngineT(nil, policy)
		if _, _, err := run(context.Background(), e, 1, &txn.Program{Name: "bad"}, metric.Strict, txn.Query); err == nil {
			t.Error("invalid program accepted")
		}
	})
}

func TestStressMixedWorkloadConservedAndVerified(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, policy Policy) {
		e := newEngineT(map[storage.Key]metric.Value{"x": 100000, "y": 100000}, policy)
		e.SetVerify(true)
		xfer := txn.MustProgram("xfer", txn.AddOp("x", -100), txn.AddOp("y", 100))
		audit := txn.MustProgram("audit", txn.ReadOp("x"), txn.ReadOp("y"))
		spec := metric.SpecOf(10000)
		var wg sync.WaitGroup
		deadline := time.Now().Add(2 * time.Second)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				owner := lock.Owner(i * 100000)
				for n := 0; n < 200 && time.Now().Before(deadline); n++ {
					owner++
					p, class := xfer, txn.Update
					if i%2 == 0 {
						p, class = audit, txn.Query
					}
					for {
						out, imported, err := run(context.Background(), e, owner, p, spec, class)
						if err == nil {
							if class == txn.Query {
								dev := metric.Distance(out.SumReads(), 200000)
								if dev > 10000 {
									t.Errorf("deviation %d > ε", dev)
								}
								if dev > imported {
									t.Errorf("deviation %d > imported %d", dev, imported)
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
		if msg := e.VerifyFailure(); msg != "" {
			t.Errorf("verify: %s", msg)
		}
	})
}

// ---- abort policy: backward validation with ε absorption ----

func TestQueryAbsorbsCommittedWriterWithinBudget(t *testing.T) {
	// The audit reads x and y, a transfer commits while it is mid-flight,
	// then the audit validates. The transfer writes both with bound 100
	// each, so the conflict costs 200 — also when the audit reads x twice:
	// the stale read set is priced per key, not per read op.
	for name, reads := range map[string][]txn.Op{
		"each key once": {txn.ReadOp("x"), txn.ReadOp("y")},
		"x twice":       {txn.ReadOp("x"), txn.ReadOp("x"), txn.ReadOp("y")},
	} {
		t.Run(name, func(t *testing.T) {
			e := newEngineT(map[storage.Key]metric.Value{"x": 1000, "y": 0}, Abort)
			xfer := txn.MustProgram("xfer", txn.AddOp("x", -100), txn.AddOp("y", 100))
			at := newPause("z")
			slowAudit := txn.MustProgram("slowaudit", append(reads, at.op)...)
			r := interleave(e, 10, slowAudit, metric.Spec{Import: metric.LimitOf(200), Export: metric.Zero}, txn.Query, at,
				func() { commitUpdate(t, e, 11, xfer, metric.SpecOf(1000)) })
			if r.err != nil {
				t.Fatalf("audit: %v", r.err)
			}
			if r.imported != 200 {
				t.Errorf("imported = %d, want 200 (x and y conflicts absorbed)", r.imported)
			}
			if got := e.Stats().Absorbed; got != 2 {
				t.Errorf("Absorbed = %d, want 2", got)
			}
		})
	}
}

// TestAbsorptionPricesTheLastWritesBound: a writer that wrote a key
// twice is charged the bound its last write of the key declared.
func TestAbsorptionPricesTheLastWritesBound(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 1000}, Abort)
	w := txn.MustProgram("w", txn.AddOp("x", -100), txn.AddOp("x", 30))
	at := newPause("z")
	slow := txn.MustProgram("slow", txn.ReadOp("x"), at.op)
	r := interleave(e, 10, slow, metric.Spec{Import: metric.LimitOf(30), Export: metric.Zero}, txn.Query, at,
		func() { commitUpdate(t, e, 11, w, metric.SpecOf(1000)) })
	if r.err != nil || r.imported != 30 {
		t.Fatalf("audit: imported %d, err %v; want 30 absorbed", r.imported, r.err)
	}
}

func TestQueryAbortsBeyondImportBudget(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 1000, "y": 0}, Abort)
	xfer := txn.MustProgram("xfer", txn.AddOp("x", -100), txn.AddOp("y", 100))
	at := newPause("z")
	slowAudit := txn.MustProgram("slowaudit", txn.ReadOp("x"), txn.ReadOp("y"), at.op)
	r := interleave(e, 10, slowAudit, metric.Spec{Import: metric.LimitOf(50), Export: metric.Zero}, txn.Query, at,
		func() { commitUpdate(t, e, 11, xfer, metric.SpecOf(1000)) })
	if !e.Retryable(r.err) {
		t.Fatalf("audit err = %v, want validation abort", r.err)
	}
}

func TestWriterExportBudgetEnforced(t *testing.T) {
	// The committed writer's export limit caps how many queries may
	// absorb against it.
	e := newEngineT(map[storage.Key]metric.Value{"x": 1000}, Abort)
	xfer := txn.MustProgram("upd", txn.AddOp("x", -100))

	// Two slow queries start, writer (export limit 100 = one absorption)
	// commits, then both validate: one absorbs, one aborts.
	const queries = 2
	var at [queries]pause
	errs := make(chan error, queries)
	for i := range at {
		at[i] = newPause("z")
		slow := txn.MustProgram("q", txn.ReadOp("x"), at[i].op)
		go func() {
			_, _, err := run(context.Background(), e, lock.Owner(20+i), slow,
				metric.Spec{Import: metric.LimitOf(1000), Export: metric.Zero}, txn.Query)
			errs <- err
		}()
	}
	for i := range at {
		<-at[i].started
	}
	commitUpdate(t, e, 30, xfer, metric.Spec{Import: metric.Zero, Export: metric.LimitOf(100)})
	for i := range at {
		close(at[i].release)
	}
	var ok, aborted int
	for i := 0; i < queries; i++ {
		if err := <-errs; err == nil {
			ok++
		} else if e.Retryable(err) {
			aborted++
		} else {
			t.Fatalf("unexpected: %v", err)
		}
	}
	if ok != 1 || aborted != 1 {
		t.Errorf("ok=%d aborted=%d, want 1/1 (export exhausted)", ok, aborted)
	}
}

// incrementStorm runs 16 goroutines × 50 single-increment transactions
// on x, retrying validation aborts, and checks no increment was lost.
func incrementStorm(t *testing.T, e *Engine) {
	t.Helper()
	p := txn.MustProgram("inc", txn.AddOp("x", 1))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				owner := lock.Owner(i*1000 + j)
				for {
					_, _, err := run(context.Background(), e, owner, p, metric.Strict, txn.Update)
					if err == nil {
						break
					}
					if !e.Retryable(err) {
						t.Errorf("inc: %v", err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if got := e.store.Get("x"); got != 800 {
		t.Errorf("x = %d, want 800 (no lost increments)", got)
	}
}

func TestConcurrentCommutativeAddsAllApply(t *testing.T) {
	incrementStorm(t, newEngineT(map[storage.Key]metric.Value{"x": 0}, Abort))
}

func TestNonCommutativeWriteConflictAborts(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 1}, Abort)
	doubleX := txn.TransformOp("x", func(v metric.Value) metric.Value { return v * 2 }, metric.Infinite)
	at := newPause("z")
	r := interleave(e, 1, txn.MustProgram("slowdouble", doubleX, at.op), metric.Strict, txn.Update, at,
		func() { commitUpdate(t, e, 2, txn.MustProgram("double", doubleX), metric.Strict) })
	if !e.Retryable(r.err) {
		t.Fatalf("err = %v, want validation abort", r.err)
	}
	// x was doubled exactly once (the slow one aborted).
	if got := e.store.Get("x"); got != 2 {
		t.Errorf("x = %d, want 2", got)
	}
}

// TestReadOfOwnAddObservesBase is the regression test for a hole the
// end-to-end fuzzer found (explore.FuzzRuns): a read served from the
// local workspace returns base+δ, where base is the committed snapshot
// the buffered increment was computed over — so the read depends on
// that base (the increment has a consumer and is not re-appliable) even
// though the store is never touched. Without this, two concurrent
// "add x; read x" updates both read snapshot+δ, both validate (their
// writes commute), and the history is not serializable: one of them
// must observe the other's increment in any serial order.
func TestReadOfOwnAddObservesBase(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 10}, Abort)
	at := newPause("z")
	slow := txn.MustProgram("slow", txn.AddOp("x", 3), txn.ReadOp("x"), at.op)
	fast := txn.MustProgram("fast", txn.AddOp("x", 3), txn.ReadOp("x"))
	// fast commits x=13 while slow is paused after its add and read.
	r := interleave(e, 1, slow, metric.SpecOf(1000), txn.Update, at, func() {
		fastOut, _, err := run(context.Background(), e, 2, fast, metric.SpecOf(1000), txn.Update)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := fastOut.ReadValue("x"); v != 13 {
			t.Errorf("fast read %d, want 13", v)
		}
	})
	// slow read its own workspace value 13 = stale base 10 + own 3; it
	// must fail validation (update-class r/w conflict), not commit a
	// read value no serial order can produce.
	if !e.Retryable(r.err) {
		t.Fatalf("slow: err = %v, want retryable validation abort", r.err)
	}
	// The retry observes fast's committed increment.
	out, _, err := run(context.Background(), e, 3, fast, metric.SpecOf(1000), txn.Update)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out.ReadValue("x"); v != 16 {
		t.Errorf("retry read %d, want 16", v)
	}
	if got := e.store.Get("x"); got != 16 {
		t.Errorf("x = %d, want 16", got)
	}
}

// staleTransform runs the scenario the abort and repair policies
// disagree on: slow buffers a non-commutative x+3 over base 10, a
// concurrent increment moves x to 15, then slow validates. The stale
// write is a transform, so it genuinely needs re-execution rather than
// the install-time re-application commutative increments get.
func staleTransform(t *testing.T, e *Engine) result {
	t.Helper()
	at := newPause("y")
	slow := txn.MustProgram("slow",
		txn.TransformOp("x", func(v metric.Value) metric.Value { return v + 3 }, metric.LimitOf(3)), at.op)
	return interleave(e, 1, slow, metric.Strict, txn.Update, at,
		func() { commitUpdate(t, e, 2, txn.MustProgram("fast", txn.AddOp("x", 5)), metric.Strict) })
}

// TestAbortIsRepairWithZeroBudget pins the fold: under the abort policy
// the staleness a repair policy would fix exceeds the (zero) budget and
// surfaces as a retryable validation abort.
func TestAbortIsRepairWithZeroBudget(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 10}, Abort)
	if r := staleTransform(t, e); !e.Retryable(r.err) {
		t.Fatalf("err = %v, want retryable fallback", r.err)
	}
	if st := e.Stats(); st.Aborts != 1 {
		t.Errorf("Aborts = %d, want 1", st.Aborts)
	}
	// The retry succeeds cleanly.
	commitUpdate(t, e, 3, txn.MustProgram("slow", txn.AddOp("x", 3), txn.ReadOp("y")), metric.Strict)
	if got := e.store.Get("x"); got != 18 {
		t.Errorf("x = %d, want 18", got)
	}
}

// TestIncrementChainAbortsUnderZeroBudget pins the rule the abort policy
// shares with the repair policies: in `add x; add x` the first increment
// feeds the second through the workspace, so it is not re-appliable.
// Repair re-executes the chain (TestRepairedCommutativeIncrementChain);
// with a zero budget it aborts with no effect and the retry applies both.
func TestIncrementChainAbortsUnderZeroBudget(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 100}, Abort)
	at := newPause("y")
	chain := []txn.Op{txn.AddOp("x", 1), txn.AddOp("x", 2)}
	r := interleave(e, 1, txn.MustProgram("chain", append(chain, at.op)...), metric.Strict, txn.Update, at,
		func() { commitUpdate(t, e, 2, txn.MustProgram("bump", txn.AddOp("x", 1000)), metric.Strict) })
	if !e.Retryable(r.err) {
		t.Fatalf("err = %v, want retryable validation abort", r.err)
	}
	if got := e.store.Get("x"); got != 1100 {
		t.Errorf("x = %d after the abort, want 1100 (the bump only)", got)
	}
	commitUpdate(t, e, 3, txn.MustProgram("chain", chain...), metric.Strict)
	if got := e.store.Get("x"); got != 1103 {
		t.Errorf("x = %d, want 1103 (100+1000+1+2)", got)
	}
}

// ---- repair policies ----

// TestRepairInsteadOfAbort is the core repair scenario: the conflict
// that aborts under the abort policy is repaired in place — the stale op
// re-executes against the committed value and the transaction commits
// on its first attempt.
func TestRepairInsteadOfAbort(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 10}, Repair)
	e.SetVerify(true)
	if r := staleTransform(t, e); r.err != nil {
		t.Fatalf("slow: %v (want repaired commit, not abort)", r.err)
	}
	if got := e.store.Get("x"); got != 18 {
		t.Errorf("x = %d, want 18 (both increments)", got)
	}
	st := e.Stats()
	if st.Repairs != 1 || st.Aborts != 0 {
		t.Errorf("stats = %+v, want exactly one repair and no aborts", st)
	}
	if st.RepairedOps == 0 {
		t.Error("RepairedOps = 0 after a repair")
	}
	if msg := e.VerifyFailure(); msg != "" {
		t.Errorf("verify: %s", msg)
	}
}

// guardedWithdraw runs a one-op withdrawal of 100 from x that rolls back
// below 100, parks inside its predicate, and has drain subtracted from
// x by a concurrent commit before it validates.
func guardedWithdraw(t *testing.T, e *Engine, drain metric.Value) result {
	t.Helper()
	at := newPause("x")
	var once sync.Once
	slow := txn.MustProgram("withdraw", txn.Op{
		Kind: txn.OpWrite, Key: "x",
		Update:  func(v metric.Value) metric.Value { return v - 100 },
		Bound:   metric.LimitOf(100),
		AbortIf: at.parkThen(&once, func(v metric.Value) bool { return v < 100 }),
	})
	return interleave(e, 1, slow, metric.Strict, txn.Update, at,
		func() { commitUpdate(t, e, 2, txn.MustProgram("drain", txn.AddOp("x", -drain)), metric.Strict) })
}

// TestRepairFlipsRollbackDecision repairs a read feeding an AbortIf
// predicate: the predicate was false on the stale input (150 ≥ 100,
// proceed) but the fresh committed value makes it true, so the repaired
// transaction must roll back — committing on the stale decision would
// overdraw the account.
func TestRepairFlipsRollbackDecision(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 150}, Repair)
	if r := guardedWithdraw(t, e, 100); !errors.Is(r.err, txn.ErrRollback) {
		t.Fatalf("err = %v, want rollback (fresh value 50 < 100)", r.err)
	}
	if got := e.store.Get("x"); got != 50 {
		t.Errorf("x = %d, want 50 (only the drain applied)", got)
	}
	if st := e.Stats(); st.Commits != 1 {
		t.Errorf("Commits = %d, want 1 (the drain only)", st.Commits)
	}
}

// TestRepairKeepsCommitWhenDecisionHolds is the non-flipping direction:
// the guarded input changes but the predicate still passes, so the
// repair recomputes the write on the fresh value and commits.
func TestRepairKeepsCommitWhenDecisionHolds(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 500}, Repair)
	if r := guardedWithdraw(t, e, 200); r.err != nil {
		t.Fatalf("err = %v, want repaired commit (300 ≥ 100)", r.err)
	}
	if got := e.store.Get("x"); got != 200 {
		t.Errorf("x = %d, want 200 (500 - 200 - 100)", got)
	}
}

// TestRepairedCommutativeIncrementChain exercises a chain of buffered
// increments with a read of own writes threaded through: the repair
// must re-execute the whole local dependency chain, not just the first
// stale op, so no increment is lost and the read observes the fresh base.
func TestRepairedCommutativeIncrementChain(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 100}, Repair)
	e.SetVerify(true)
	at := newPause("y")
	slow := txn.MustProgram("chain", txn.AddOp("x", 1), txn.AddOp("x", 2), txn.ReadOp("x"), at.op)
	r := interleave(e, 1, slow, metric.Strict, txn.Update, at,
		func() { commitUpdate(t, e, 2, txn.MustProgram("bump", txn.AddOp("x", 1000)), metric.Strict) })
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := e.store.Get("x"); got != 1103 {
		t.Errorf("x = %d, want 1103 (100+1000+1+2)", got)
	}
	// The repaired read of own writes observes the fresh base.
	if v, _ := r.out.ReadValue("x"); v != 1103 {
		t.Errorf("read = %d, want 1103", v)
	}
	if msg := e.VerifyFailure(); msg != "" {
		t.Errorf("verify: %s", msg)
	}
}

// TestConcurrentIncrementsNeverAbort is the repair answer to the abort
// policy's commutative-write retries: under a pure increment storm the
// engine repairs every conflict and no transaction ever retries.
func TestConcurrentIncrementsNeverAbort(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 0}, Repair)
	e.SetVerify(true)
	incrementStorm(t, e)
	if st := e.Stats(); st.Aborts != 0 {
		t.Errorf("Aborts = %d, want 0 (every conflict repaired)", st.Aborts)
	}
	if msg := e.VerifyFailure(); msg != "" {
		t.Errorf("verify: %s", msg)
	}
}

// TestStaleIncrementReappliedNotRepaired pins the commutative fast
// path: a pure unconsumed increment whose base moved underneath it is
// refreshed at install — no repair round, no abort, and no lost update.
func TestStaleIncrementReappliedNotRepaired(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 10}, Repair)
	e.SetVerify(true)
	at := newPause("y")
	r := interleave(e, 1, txn.MustProgram("slow", txn.AddOp("x", 3), at.op), metric.Strict, txn.Update, at,
		func() { commitUpdate(t, e, 2, txn.MustProgram("fast", txn.AddOp("x", 5)), metric.Strict) })
	if r.err != nil {
		t.Fatalf("slow: %v (want re-applied commit)", r.err)
	}
	if got := e.store.Get("x"); got != 18 {
		t.Errorf("x = %d, want 18 (both increments)", got)
	}
	st := e.Stats()
	if st.ReApplied != 1 || st.Repairs != 0 || st.RepairRounds != 0 || st.Aborts != 0 {
		t.Errorf("stats = %+v, want one re-application and no repairs", st)
	}
	if msg := e.VerifyFailure(); msg != "" {
		t.Errorf("verify: %s", msg)
	}
}

// staleAudit runs an audit of x (owner 10, the given import limit) that
// parks while an update (owner 11, the given export limit) moves x by
// delta, then validates.
func staleAudit(t *testing.T, e *Engine, importL, exportL metric.Limit, delta metric.Value) result {
	t.Helper()
	at := newPause("y")
	audit := txn.MustProgram("audit", txn.ReadOp("x"), at.op)
	return interleave(e, 10, audit, metric.Spec{Import: importL, Export: metric.Zero}, txn.Query, at, func() {
		commitUpdate(t, e, 11, txn.MustProgram("upd", txn.AddOp("x", delta)),
			metric.Spec{Import: metric.Zero, Export: exportL})
	})
}

// TestEpsilonSkipCommitsStaleRead: a query whose only stale op is a
// plain read commits the stale value as-is, imports exactly the value
// delta, and emits one absorbed dc.Event charging the writer.
func TestEpsilonSkipCommitsStaleRead(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 1000}, RepairSkip)
	var events []dc.Event
	e.SetDCObserver(func(ev dc.Event) { events = append(events, ev) }) // called under e.mu
	r := staleAudit(t, e, metric.LimitOf(200), metric.LimitOf(1000), -100)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.imported != 100 {
		t.Errorf("imported = %d, want 100 (the skipped delta)", r.imported)
	}
	// The stale value committed as-is: ε-skip trades this exact
	// divergence for not re-running the read.
	if v, _ := r.out.ReadValue("x"); v != 1000 {
		t.Errorf("read = %d, want stale 1000", v)
	}
	st := e.Stats()
	if st.Skips != 1 || st.SkippedFuzz != 100 || st.Absorbed != 1 {
		t.Errorf("stats = %+v, want one skip of fuzz 100", st)
	}
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	ev := events[0]
	if !ev.Absorbed || ev.Cost != 100 || ev.Key != "x" || len(ev.Pairs) != 1 ||
		ev.Pairs[0].Query != 10 || ev.Pairs[0].Update != 11 {
		t.Errorf("event = %+v", ev)
	}
}

// TestEpsilonSkipRespectsBudgets: skip is refused when the import
// budget or the writer's export budget cannot carry the delta; the
// repair path takes over and the fresh value commits.
func TestEpsilonSkipRespectsBudgets(t *testing.T) {
	for _, tc := range []struct {
		name             string
		importL, exportL metric.Limit
	}{
		{"import too small", metric.LimitOf(50), metric.LimitOf(1000)},
		{"export exhausted", metric.LimitOf(200), metric.Zero},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngineT(map[storage.Key]metric.Value{"x": 1000}, RepairSkip)
			r := staleAudit(t, e, tc.importL, tc.exportL, -100)
			if r.err != nil {
				t.Fatal(r.err)
			}
			// Not skipped: the read was repaired to the fresh value.
			if v, _ := r.out.ReadValue("x"); v != 900 {
				t.Errorf("read = %d, want repaired 900", v)
			}
			if st := e.Stats(); st.Skips != 0 || st.Repairs != 1 {
				t.Errorf("stats = %+v, want repair instead of skip", st)
			}
		})
	}
}

// TestEpsilonSkipNeverForUpdates: an update-class transaction with a
// stale read is always repaired, never skipped, regardless of budgets.
func TestEpsilonSkipNeverForUpdates(t *testing.T) {
	e := newEngineT(map[storage.Key]metric.Value{"x": 1000}, RepairSkip)
	at := newPause("y")
	p := txn.MustProgram("upd", txn.ReadOp("x"), at.op, txn.AddOp("z", 1))
	r := interleave(e, 10, p, metric.SpecOf(10000), txn.Update, at,
		func() { commitUpdate(t, e, 11, txn.MustProgram("w", txn.AddOp("x", -100)), metric.SpecOf(10000)) })
	if r.err != nil {
		t.Fatal(r.err)
	}
	if st := e.Stats(); st.Skips != 0 {
		t.Errorf("Skips = %d, want 0 for update class", st.Skips)
	}
}

// TestAbsorptionChargedOnceInLedger drives both absorbing policies
// through the obs plane the way core.Runner does and asserts the retry
// discipline: a first attempt that fails validation (import limit too
// small, no repair budget), then a successful absorption — exactly one
// dc.Event whose cost is the returned import, and a ledger charged
// exactly once. The writer moves x by its declared bound, so both
// pricings (declared bound, exact distance) arrive at 50.
func TestAbsorptionChargedOnceInLedger(t *testing.T) {
	for _, tc := range policies {
		if tc.policy == Repair {
			continue // never absorbs
		}
		t.Run(tc.name, func(t *testing.T) {
			plane := obs.NewPlane(obs.NewLedger(), nil)
			e := NewEngine(storage.NewFrom(map[storage.Key]metric.Value{"x": 1000}),
				plane.ExecObserver(), tc.policy)
			var events []dc.Event
			ledgerObs := plane.DCObserver()
			e.SetDCObserver(func(ev dc.Event) { // called under e.mu
				events = append(events, ev)
				ledgerObs(ev)
			})

			const auditOwner, auditGroup = 10, 100
			plane.Ledger.BindGroup(auditGroup, "audit", "query", "rdc", metric.LimitOf(200))

			runAudit := func(attempt int, importL metric.Limit) result {
				owner := int64(auditOwner + attempt)
				plane.PieceBegin(owner, auditGroup, 0, "local", "audit", 0, 0, "")
				at := newPause("y")
				audit := txn.MustProgram("audit", txn.ReadOp("x"), at.op)
				r := interleave(e, lock.Owner(owner), audit, metric.Spec{Import: importL, Export: metric.Zero}, txn.Query, at, func() {
					commitUpdate(t, e, lock.Owner(owner)+1000, txn.MustProgram("upd", txn.AddOp("x", -50)),
						metric.Spec{Import: metric.Zero, Export: metric.LimitOf(1000)})
				})
				if r.err == nil {
					plane.PieceSettle(owner, r.imported, 0)
				}
				return r
			}

			// Attempt 1: the stale read is too dear to absorb and there is no
			// repair budget, so it falls back to a retryable abort; the exec
			// observer voids whatever the attempt had pending.
			inline, rounds := e.inline, e.rounds
			e.inline, e.rounds = 0, 0
			if r := runAudit(0, metric.LimitOf(10)); !e.Retryable(r.err) {
				t.Fatalf("attempt 1: err = %v, want fallback", r.err)
			}
			e.inline, e.rounds = inline, rounds
			r := runAudit(1, metric.LimitOf(200))
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.imported != 50 {
				t.Fatalf("imported = %d, want 50", r.imported)
			}
			if len(events) != 1 || !events[0].Absorbed || events[0].Cost != r.imported {
				t.Errorf("events = %+v, want one absorbed event of cost %d", events, r.imported)
			}

			for _, acct := range plane.Ledger.Accounts() {
				if acct.Group != auditGroup {
					continue
				}
				if acct.Charged != 50 {
					t.Errorf("ledger charged = %d, want exactly 50 (no double charge)", acct.Charged)
				}
				return
			}
			t.Fatal("audit group missing from ledger")
		})
	}
}

// ---- store versions ----

// stepFunc adapts a function to txn.StepHook.
type stepFunc func(txn.Step)

func (f stepFunc) OnStep(s txn.Step) { f(s) }

// onceAt installs a step hook that calls f, once, when owner reaches a
// step of kind k; f runs on owner's goroutine, outside the engine lock.
func onceAt(e *Engine, owner lock.Owner, k txn.StepKind, f func()) {
	var once sync.Once
	e.SetStepHook(stepFunc(func(s txn.Step) {
		if s.Owner == owner && s.Kind == k {
			once.Do(f)
		}
	}))
}

// readXValidated runs `read x` as owner 1 under the Update class (so no
// ε absorption), with between run after the read and before validation.
func readXValidated(t *testing.T, e *Engine, between func()) result {
	t.Helper()
	onceAt(e, 1, txn.StepCommit, between)
	out, imported, err := run(context.Background(), e, 1, txn.MustProgram("r", txn.ReadOp("x")), metric.Strict, txn.Update)
	return result{out, imported, err}
}

// TestStoreVersionMovesUnderLiveRead pins that validation reads the
// version the store cell holds: an install of the read key by another
// transaction, or a store Restore, between the read and validation makes
// the read dirty — repaired to the committed value under Repair, a
// retryable abort under Abort — never clean but stale.
func TestStoreVersionMovesUnderLiveRead(t *testing.T) {
	for _, tc := range []struct {
		name    string
		between func(t *testing.T, e *Engine)
	}{
		{"install", func(t *testing.T, e *Engine) {
			commitUpdate(t, e, 2, txn.MustProgram("set", txn.TransformOp("x",
				func(metric.Value) metric.Value { return 99 }, metric.Infinite)), metric.Strict)
		}},
		{"restore", func(t *testing.T, e *Engine) {
			e.store.Restore(map[storage.Key]metric.Value{"x": 99})
		}},
	} {
		t.Run(tc.name+"/repair", func(t *testing.T) {
			e := newEngineT(map[storage.Key]metric.Value{"x": 10}, Repair)
			e.SetVerify(true)
			r := readXValidated(t, e, func() { tc.between(t, e) })
			if r.err != nil {
				t.Fatalf("err = %v, want a repaired commit", r.err)
			}
			if got := r.out.Reads; len(got) != 1 || got[0].Value != 99 {
				t.Errorf("reads = %+v, want x repaired to 99", got)
			}
			if st := e.Stats(); st.Repairs != 1 || st.RepairedOps != 1 {
				t.Errorf("stats = %+v, want one repair of one op", st)
			}
			if msg := e.VerifyFailure(); msg != "" {
				t.Errorf("verify: %s", msg)
			}
		})
		t.Run(tc.name+"/abort", func(t *testing.T) {
			e := newEngineT(map[storage.Key]metric.Value{"x": 10}, Abort)
			if r := readXValidated(t, e, func() { tc.between(t, e) }); !e.Retryable(r.err) {
				t.Fatalf("err = %v, want a retryable validation abort", r.err)
			}
		})
	}
}

// TestAbortSnapshotIsBegin pins the abort policy's snapshot check against
// the store's versions: a key installed after the transaction began is
// stale even when the read came after the install and saw its value.
// The repair policy validates the version the read saw, so the same
// schedule commits there without repair.
func TestAbortSnapshotIsBegin(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, policy Policy) {
		e := newEngineT(map[storage.Key]metric.Value{"x": 10}, policy)
		onceAt(e, 1, txn.StepApply, func() {
			commitUpdate(t, e, 2, txn.MustProgram("bump", txn.AddOp("x", 5)), metric.Strict)
		})
		out, _, err := run(context.Background(), e, 1, txn.MustProgram("r", txn.ReadOp("x")), metric.Strict, txn.Update)
		if policy == Abort {
			if !e.Retryable(err) {
				t.Fatalf("err = %v, want a retryable abort (x committed since begin)", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Reads; len(got) != 1 || got[0].Value != 15 {
			t.Errorf("reads = %+v, want x = 15", got)
		}
		if st := e.Stats(); st.Repairs != 0 {
			t.Errorf("Repairs = %d, want 0: the read saw the installed version", st.Repairs)
		}
	})
}
