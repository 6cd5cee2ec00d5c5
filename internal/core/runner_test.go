package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// bankFixture is a two-account bank with one transfer and one audit
// program: the minimal workload where chopping vs ESR differences show.
type bankFixture struct {
	store    *storage.Store
	programs []*txn.Program
	total    metric.Value
}

func newBankFixture(importLimit, exportLimit metric.Fuzz) *bankFixture {
	store := storage.NewFrom(map[storage.Key]metric.Value{"X": 5000, "Y": 5000})
	xfer := txn.MustProgram("xfer",
		txn.AddOp("X", -100), txn.AddOp("Y", 100),
	).WithSpec(metric.Spec{Import: metric.Zero, Export: metric.LimitOf(exportLimit)})
	audit := txn.MustProgram("audit",
		txn.ReadOp("X"), txn.ReadOp("Y"),
	).WithSpec(metric.Spec{Import: metric.LimitOf(importLimit), Export: metric.Zero})
	return &bankFixture{store: store, programs: []*txn.Program{xfer, audit}, total: 10000}
}

// mixedConfig builds a Config whose declared stream matches the counts
// runMixed will actually submit.
func mixedConfig(fx *bankFixture, method Method, xfers, audits int, record bool) Config {
	return Config{
		Method:   method,
		Store:    fx.store,
		Programs: fx.programs,
		Counts:   []int{xfers, audits},
		Record:   record,
	}
}

// runMixed submits xfers and audits concurrently and returns the audit
// results.
func runMixed(t *testing.T, r *Runner, xfers, audits int) []*InstanceResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	auditResults := make([]*InstanceResult, audits)
	errCh := make(chan error, xfers+audits)
	for i := 0; i < xfers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Submit(ctx, 0); err != nil {
				errCh <- err
			}
		}()
	}
	for i := 0; i < audits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Submit(ctx, 1)
			if err != nil {
				errCh <- err
				return
			}
			auditResults[i] = res
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("submit: %v", err)
	}
	return auditResults
}

func TestBaselineSRCCIsSerializableAndExact(t *testing.T) {
	fx := newBankFixture(0, 0)
	r, err := NewRunner(mixedConfig(fx, BaselineSRCC, 20, 10, true))
	if err != nil {
		t.Fatal(err)
	}
	audits := runMixed(t, r, 20, 10)
	for i, a := range audits {
		if !a.Committed {
			t.Fatalf("audit %d not committed", i)
		}
		if got := a.SumReads(); got != fx.total {
			t.Errorf("audit %d sum = %d, want exactly %d", i, got, fx.total)
		}
	}
	if got := fx.store.Sum([]storage.Key{"X", "Y"}); got != fx.total {
		t.Errorf("final total = %d, want %d", got, fx.total)
	}
	grouped := r.Recorder().CheckGrouped(r.GroupOf())
	if !grouped.Serializable {
		t.Errorf("baseline SR/CC produced non-serializable history: %v", grouped.Cycle)
	}
	if got := r.DCStats().Absorbed; got != 0 {
		t.Errorf("CC method absorbed %d conflicts", got)
	}
}

func TestSRChopCCSerializableWRTOriginals(t *testing.T) {
	fx := newBankFixture(0, 0)
	r, err := NewRunner(mixedConfig(fx, SRChopCC, 20, 10, true))
	if err != nil {
		t.Fatal(err)
	}
	audits := runMixed(t, r, 20, 10)
	for _, a := range audits {
		if got := a.SumReads(); got != fx.total {
			t.Errorf("audit sum = %d, want exactly %d", got, fx.total)
		}
	}
	grouped := r.Recorder().CheckGrouped(r.GroupOf())
	if !grouped.Serializable {
		t.Errorf("SR-chop/CC not serializable w.r.t. originals: %v", grouped.Cycle)
	}
}

func TestBaselineESRDCBoundedDeviation(t *testing.T) {
	const importLimit = 500
	fx := newBankFixture(importLimit, 10000)
	r, err := NewRunner(mixedConfig(fx, BaselineESRDC, 30, 15, true))
	if err != nil {
		t.Fatal(err)
	}
	audits := runMixed(t, r, 30, 15)
	for i, a := range audits {
		got := a.SumReads()
		dev := metric.Distance(got, fx.total)
		if dev > importLimit {
			t.Errorf("audit %d deviation = %d, exceeds ε = %d", i, dev, importLimit)
		}
		if a.Imported > importLimit {
			t.Errorf("audit %d imported %d > limit %d", i, a.Imported, importLimit)
		}
	}
	// Update ETs stay serializable among themselves: money conserved.
	if got := fx.store.Sum([]storage.Key{"X", "Y"}); got != fx.total {
		t.Errorf("final total = %d, want %d", got, fx.total)
	}
}

func TestMethod1SRChopDC(t *testing.T) {
	const importLimit = 600
	fx := newBankFixture(importLimit, 10000)
	r, err := NewRunner(mixedConfig(fx, Method1SRChopDC, 30, 15, true))
	if err != nil {
		t.Fatal(err)
	}
	if !r.StreamAnalysis().IsSR() {
		t.Fatal("method 1 must run an SR-chopping")
	}
	audits := runMixed(t, r, 30, 15)
	for i, a := range audits {
		dev := metric.Distance(a.SumReads(), fx.total)
		if dev > importLimit {
			t.Errorf("audit %d deviation = %d > ε = %d", i, dev, importLimit)
		}
	}
	if got := fx.store.Sum([]storage.Key{"X", "Y"}); got != fx.total {
		t.Errorf("final total = %d, want %d", got, fx.total)
	}
}

func TestMethod2ESRChopCC(t *testing.T) {
	// Budgets sized to the declared stream keep the chopping fine; CC at
	// runtime means the only inconsistency is inter-sibling, bounded by
	// the count-scaled Z^is ≤ ε. With 10 transfers and 5 audits:
	// Z^is(xfer) = 5×200 = 1000 and Z^is(audit) = 10×200 = 2000.
	const importLimit = 2000
	fx := newBankFixture(importLimit, 1000)
	r, err := NewRunner(mixedConfig(fx, Method2ESRChopCC, 10, 5, true))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Set().Chopping(0).NumPieces(); got != 2 {
		t.Fatalf("ESR-chopping kept xfer whole (%d pieces); fixture broken", got)
	}
	audits := runMixed(t, r, 10, 5)
	for i, a := range audits {
		dev := metric.Distance(a.SumReads(), fx.total)
		if dev > importLimit {
			t.Errorf("audit %d deviation = %d > ε = %d", i, dev, importLimit)
		}
	}
	if got := fx.store.Sum([]storage.Key{"X", "Y"}); got != fx.total {
		t.Errorf("final total = %d, want %d", got, fx.total)
	}
	// CC must not have absorbed anything.
	if got := r.LockStats().FuzzyGrants; got != 0 {
		t.Errorf("CC method made %d fuzzy grants", got)
	}
}

func TestMethod3ESRChopDC(t *testing.T) {
	// Import budget 3000 covers Z^is(audit) = 10×200 = 2000 plus a DC
	// allowance of 1000 (Equation 6); the audit deviation must stay
	// within the FULL ε even though both chopping gaps and fuzzy reads
	// contribute.
	const budget = 3000
	fx := newBankFixture(budget, budget)
	r, err := NewRunner(mixedConfig(fx, Method3ESRChopDC, 10, 5, true))
	if err != nil {
		t.Fatal(err)
	}
	audits := runMixed(t, r, 10, 5)
	for i, a := range audits {
		dev := metric.Distance(a.SumReads(), fx.total)
		if dev > budget {
			t.Errorf("audit %d deviation = %d > ε = %d", i, dev, budget)
		}
	}
	if got := fx.store.Sum([]storage.Key{"X", "Y"}); got != fx.total {
		t.Errorf("final total = %d, want %d", got, fx.total)
	}
}

func TestRollbackInFirstPieceAbortsInstance(t *testing.T) {
	store := storage.NewFrom(map[storage.Key]metric.Value{"X": 50, "Y": 0})
	withdraw := txn.MustProgram("withdraw",
		txn.WithAbortIf(txn.AddOp("X", -100), func(v metric.Value) bool { return v < 100 }),
		txn.AddOp("Y", 100),
	)
	r, err := NewRunner(Config{
		Method: SRChopCC, Store: store, Programs: []*txn.Program{withdraw}, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Submit(context.Background(), 0)
	if err != nil {
		t.Fatalf("rollback surfaced as error: %v", err)
	}
	if res.Committed || !res.RolledBack {
		t.Errorf("result = %+v, want rolled back", res)
	}
	if store.Get("X") != 50 || store.Get("Y") != 0 {
		t.Errorf("state changed after rollback: X=%d Y=%d", store.Get("X"), store.Get("Y"))
	}
}

func TestRollbackSucceedsWhenFunded(t *testing.T) {
	store := storage.NewFrom(map[storage.Key]metric.Value{"X": 500, "Y": 0})
	withdraw := txn.MustProgram("withdraw",
		txn.WithAbortIf(txn.AddOp("X", -100), func(v metric.Value) bool { return v < 100 }),
		txn.AddOp("Y", 100),
	)
	r, err := NewRunner(Config{
		Method: SRChopCC, Store: store, Programs: []*txn.Program{withdraw},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Submit(context.Background(), 0)
	if err != nil || !res.Committed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if store.Get("X") != 400 || store.Get("Y") != 100 {
		t.Errorf("X=%d Y=%d", store.Get("X"), store.Get("Y"))
	}
}

func TestDynamicDistributionPropagatesLeftovers(t *testing.T) {
	const budget = 400
	fx := newBankFixture(budget, budget)
	cfg := mixedConfig(fx, Method1SRChopDC, 20, 10, true)
	cfg.Distribution = Dynamic
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	audits := runMixed(t, r, 20, 10)
	for i, a := range audits {
		dev := metric.Distance(a.SumReads(), fx.total)
		if dev > budget {
			t.Errorf("audit %d deviation = %d > ε = %d", i, dev, budget)
		}
	}
	if got := fx.store.Sum([]storage.Key{"X", "Y"}); got != fx.total {
		t.Errorf("final total = %d, want %d", got, fx.total)
	}
}

func TestNaiveDistributionStillBounded(t *testing.T) {
	const budget = 400
	fx := newBankFixture(budget, budget)
	cfg := mixedConfig(fx, Method1SRChopDC, 20, 10, true)
	cfg.Distribution = Naive
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	audits := runMixed(t, r, 20, 10)
	for i, a := range audits {
		if dev := metric.Distance(a.SumReads(), fx.total); dev > budget {
			t.Errorf("audit %d deviation = %d > ε = %d", i, dev, budget)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	fx := newBankFixture(0, 0)
	if _, err := NewRunner(Config{Method: BaselineSRCC, Programs: fx.programs}); err == nil {
		t.Error("missing store accepted")
	}
	if _, err := NewRunner(Config{Method: BaselineSRCC, Store: fx.store}); err == nil {
		t.Error("missing programs accepted")
	}
	if _, err := NewRunner(Config{
		Method: BaselineSRCC, Store: fx.store, Programs: fx.programs, Counts: []int{1},
	}); err == nil {
		t.Error("mismatched counts accepted")
	}
	r, err := NewRunner(Config{Method: BaselineSRCC, Store: fx.store, Programs: fx.programs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(context.Background(), 99); err == nil {
		t.Error("out-of-range program index accepted")
	}
	if _, err := r.Submit(context.Background(), -1); err == nil {
		t.Error("negative program index accepted")
	}
}

func TestMethodStrings(t *testing.T) {
	for _, m := range Methods() {
		if s := m.String(); s == "" || s[0] == 'M' {
			t.Errorf("method %d has suspicious name %q", int(m), s)
		}
	}
	if Method(99).String() != "Method(99)" {
		t.Error("unknown method string")
	}
	for _, d := range []Distribution{Static, Dynamic, Naive} {
		if d.String() == "" {
			t.Errorf("distribution %d has empty name", int(d))
		}
	}
}

// blockSignal is a lock.WaitObserver that runs onBlock when an owner
// starts waiting for key.
type blockSignal struct {
	key     storage.Key
	onBlock func()
}

func (b *blockSignal) Blocked(_ lock.Owner, key storage.Key) {
	if key == b.key {
		b.onBlock()
	}
}
func (b *blockSignal) Woken(lock.Owner)   {}
func (b *blockSignal) Resumed(lock.Owner) {}

// TestCancelAfterFirstPieceStillSettles cancels Submit's context while
// a transfer's second piece waits for a lock, after the first piece has
// committed its withdrawal. The later piece must keep waiting and
// commit, or the withdrawn money is gone.
func TestCancelAfterFirstPieceStillSettles(t *testing.T) {
	store := storage.NewFrom(map[storage.Key]metric.Value{"a": 100, "b": 100})
	xfer := txn.MustProgram("xfer", txn.AddOp("a", -1), txn.AddOp("b", 1)).
		WithSpec(metric.Spec{Import: metric.Zero, Export: metric.LimitOf(1)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocked := make(chan struct{})
	obs := &blockSignal{key: "b", onBlock: func() {
		cancel()
		close(blocked)
	}}
	r, err := NewRunner(Config{
		Method: Method2ESRChopCC, Store: store, Programs: []*txn.Program{xfer}, WaitObserver: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Set().Chopping(0).NumPieces(); got != 2 {
		t.Fatalf("transfer chopped into %d pieces, want 2", got)
	}
	const foreign = lock.Owner(1 << 40)
	if err := r.engine.Locks().Acquire(context.Background(), foreign, "b", lock.Exclusive); err != nil {
		t.Fatal(err)
	}

	type submitted struct {
		res *InstanceResult
		err error
	}
	done := make(chan submitted, 1)
	go func() {
		res, err := r.Submit(ctx, 0)
		done <- submitted{res, err}
	}()
	<-blocked
	// Nothing should happen until the lock is released, so there is no
	// event to wait for: the pause only gives a runner that gives up on
	// cancellation time to return. A correct runner passes at any length.
	select {
	case s := <-done:
		t.Fatalf("Submit returned while piece 2 waited: err=%v a=%d b=%d", s.err, store.Get("a"), store.Get("b"))
	case <-time.After(50 * time.Millisecond):
	}
	r.engine.Locks().ReleaseAll(foreign)
	s := <-done
	if s.err != nil || !s.res.Committed {
		t.Fatalf("committed=%v err=%v", s.res != nil && s.res.Committed, s.err)
	}
	if a, b := store.Get("a"), store.Get("b"); a != 99 || b != 101 {
		t.Errorf("a=%d b=%d, want 99 and 101", a, b)
	}
}

// TestForeignKeyPathExcludesRegisteredRow: a registered piece locks
// through the row its registration resolved, and a foreign owner that
// asks for the same key by key meets that row and excludes the piece.
// As in TestCancelAfterFirstPieceStillSettles, a foreign owner holds b
// exclusively and the transfer's second piece must wait for it.
func TestForeignKeyPathExcludesRegisteredRow(t *testing.T) {
	store := storage.NewFrom(map[storage.Key]metric.Value{"a": 100, "b": 100})
	xfer := txn.MustProgram("xfer", txn.AddOp("a", -1), txn.AddOp("b", 1)).
		WithSpec(metric.Spec{Import: metric.Zero, Export: metric.LimitOf(1)})
	blocked := make(chan struct{}, 1)
	obs := &blockSignal{key: "b", onBlock: func() {
		select {
		case blocked <- struct{}{}:
		default:
		}
	}}
	r, err := NewRunner(Config{
		Method: Method2ESRChopCC, Store: store, Programs: []*txn.Program{xfer},
		WaitObserver: obs, LockStripes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	locks := r.engine.Locks()
	if rows := r.plans[0][1].Rows; len(rows) != 1 || rows[0] != locks.Row("b") {
		t.Fatalf("the second piece's registered rows %v are not b's row", rows)
	}
	const foreign = lock.Owner(1 << 40)
	if err := locks.Acquire(ctx, foreign, "b", lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	type submitted struct {
		res *InstanceResult
		err error
	}
	done := make(chan submitted, 1)
	go func() {
		res, err := r.Submit(ctx, 0)
		done <- submitted{res, err}
	}()
	select {
	case <-blocked:
	case s := <-done:
		t.Fatalf("Submit returned while a foreign owner held b: err=%v a=%d b=%d", s.err, store.Get("a"), store.Get("b"))
	case <-ctx.Done():
		t.Fatal("the transfer's second piece never waited for b")
	}
	locks.ReleaseAll(foreign)
	if s := <-done; s.err != nil || !s.res.Committed {
		t.Fatalf("committed=%v err=%v", s.res != nil && s.res.Committed, s.err)
	}
	if a, b := store.Get("a"), store.Get("b"); a != 99 || b != 101 {
		t.Errorf("a=%d b=%d, want 99 and 101", a, b)
	}
}

func TestInstanceFuzzMatchesLemma1(t *testing.T) {
	// Imported fuzz of an instance equals the sum over its pieces, which
	// the runner accumulates; verify the audit's imported fuzz is within
	// its limit and consistent with nonzero absorption when present.
	const importLimit = 800
	fx := newBankFixture(importLimit, 10000)
	r, err := NewRunner(mixedConfig(fx, BaselineESRDC, 30, 10, false))
	if err != nil {
		t.Fatal(err)
	}
	audits := runMixed(t, r, 30, 10)
	var anyImported bool
	for _, a := range audits {
		if a.Imported > 0 {
			anyImported = true
		}
		if a.Imported > importLimit {
			t.Errorf("imported %d > limit %d", a.Imported, importLimit)
		}
	}
	stats := r.DCStats()
	if anyImported && stats.Absorbed == 0 {
		t.Error("imported fuzz without absorbed conflicts")
	}
}
