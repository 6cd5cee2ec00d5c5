package site

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// twoBranches builds the paper's Section 4 scenario: account X at the NY
// branch, account Y at the LA branch.
func twoBranches(t *testing.T, strategy Strategy, useDC bool, latency time.Duration) *Cluster {
	t.Helper()
	c, err := NewCluster(twoBranchConfig(strategy, useDC, latency))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// twoBranchConfig is twoBranches' cluster configuration.
func twoBranchConfig(strategy Strategy, useDC bool, latency time.Duration) Config {
	return Config{
		Strategy: strategy,
		UseDC:    useDC,
		Latency:  latency,
		Seed:     42,
		Placement: func(k storage.Key) simnet.SiteID {
			if strings.HasPrefix(string(k), "ny:") {
				return "NY"
			}
			return "LA"
		},
		Initial: map[simnet.SiteID]map[storage.Key]metric.Value{
			"NY": {"ny:X": 100000},
			"LA": {"la:Y": 100000},
		},
		RetransmitEvery: 20 * time.Millisecond,
	}
}

// bankPrograms returns (transfer NY→LA, audit over both branches).
func bankPrograms(amount metric.Value, spec metric.Spec) []*txn.Program {
	xfer := txn.MustProgram("xfer",
		txn.AddOp("ny:X", -amount), txn.AddOp("la:Y", amount),
	).WithSpec(spec)
	audit := txn.MustProgram("audit",
		txn.ReadOp("ny:X"), txn.ReadOp("la:Y"),
	).WithSpec(spec)
	return []*txn.Program{xfer, audit}
}

func ctxT(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func totals(c *Cluster) metric.Value {
	return c.Site("NY").Store.Get("ny:X") + c.Site("LA").Store.Get("la:Y")
}

// TestTwoPCSubTransactionsAreRegistered: each site's 2PC
// sub-transaction of a program is registered with the site's engine,
// and with the engine a recovered site rebuilds: its plan covers every
// op, its cells are the store's and its rows the lock table's.
func TestTwoPCSubTransactionsAreRegistered(t *testing.T) {
	c := twoBranches(t, TwoPhaseCommit, false, 0)
	if err := c.RegisterPrograms(bankPrograms(5000, metric.Strict)); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for _, dp := range c.dist.programs {
			if len(dp.subs) != 2 {
				t.Fatalf("%s: %q has %d sub-transactions, want one per branch", when, dp.program.Name, len(dp.subs))
			}
			for _, sub := range dp.subs {
				s := c.Site(sub.site)
				plan := s.currentEngine().Plan(sub.prog)
				if len(plan.Cells) == 0 || len(plan.Cells) != len(sub.prog.Ops) || len(plan.Rows) != len(sub.prog.Ops) {
					t.Fatalf("%s: %s has a plan of %d cells and %d rows for %d ops",
						when, sub.prog.Name, len(plan.Cells), len(plan.Rows), len(sub.prog.Ops))
				}
				for i, op := range sub.prog.Ops {
					if plan.Cells[i] != s.Store.Cell(op.Key) || plan.Rows[i] != s.Locks().Row(op.Key) {
						t.Errorf("%s: %s op %d: plan is not %s's cell and row of %q", when, sub.prog.Name, i, s.ID, op.Key)
					}
				}
			}
		}
	}
	check("registered")
	la := c.Site("LA")
	la.Crash()
	la.Recover()
	check("recovered")
}

func TestTwoPCTransferCommits(t *testing.T) {
	c := twoBranches(t, TwoPhaseCommit, false, 0)
	if err := c.RegisterPrograms(bankPrograms(5000, metric.Strict)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(ctxT(t, 10*time.Second), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("result = %+v", res)
	}
	if got := c.Site("NY").Store.Get("ny:X"); got != 95000 {
		t.Errorf("ny:X = %d, want 95000", got)
	}
	if got := c.Site("LA").Store.Get("la:Y"); got != 105000 {
		t.Errorf("la:Y = %d, want 105000", got)
	}
	// 2PC over two participants: prepare+vote+decision+ack each = 8
	// one-way messages.
	if sent := c.Net.Stats().Sent; sent < 8 {
		t.Errorf("messages sent = %d, want >= 8", sent)
	}
}

// A 2PC transaction that a system abort retries is still one trace:
// every attempt's vote and ack rounds hang off the transaction's root,
// so the merged spans form one connected tree.
func TestTwoPCRetryRoundsStayInTheirTrace(t *testing.T) {
	plane := obs.NewPlane(nil, nil)
	plane.EnableSpans("p0", 0)
	cfg := twoBranchConfig(TwoPhaseCommit, false, 0)
	cfg.LockTimeout = 30 * time.Millisecond
	cfg.Obs = plane
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.RegisterPrograms(bankPrograms(5000, metric.Strict)); err != nil {
		t.Fatal(err)
	}
	// A foreign owner holds la:Y past several lock timeouts, so LA votes
	// a system abort and the coordinator retries until it lets go.
	ctx := ctxT(t, 10*time.Second)
	const foreign = lock.Owner(1 << 40)
	locks := c.Site("LA").Locks()
	if err := locks.Acquire(ctx, foreign, "la:Y", lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(100*time.Millisecond, func() { locks.ReleaseAll(foreign) })
	res, err := c.Submit(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("result = %+v", res)
	}
	m := obs.MergeSpans([]obs.ProcSpans{plane.Spans.Dump()})
	if len(m.Traces) != 1 || m.Orphans != 0 {
		t.Fatalf("merged %d traces with %d orphans, want 1 trace and 0 orphans", len(m.Traces), m.Orphans)
	}
	rounds := 0
	for _, sp := range m.Traces[0].Spans {
		if sp.Kind == obs.Span2PC {
			rounds++
		}
	}
	if rounds < 4 {
		t.Errorf("trace holds %d 2PC round spans, want the vote and ack rounds of at least two attempts", rounds)
	}
}

func TestTwoPCAuditReadsBothBranches(t *testing.T) {
	c := twoBranches(t, TwoPhaseCommit, false, 0)
	if err := c.RegisterPrograms(bankPrograms(5000, metric.Strict)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(ctxT(t, 10*time.Second), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || res.SumReads() != 200000 {
		t.Errorf("audit result = %+v sum = %d", res, res.SumReads())
	}
}

func TestTwoPCRollbackVote(t *testing.T) {
	c := twoBranches(t, TwoPhaseCommit, false, 0)
	withdraw := txn.MustProgram("overdraw",
		txn.WithAbortIf(txn.AddOp("ny:X", -999999999), func(v metric.Value) bool { return v < 999999999 }),
		txn.AddOp("la:Y", 999999999),
	)
	if err := c.RegisterPrograms([]*txn.Program{withdraw}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(ctxT(t, 10*time.Second), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RolledBack || res.Committed {
		t.Fatalf("result = %+v, want rolled back", res)
	}
	if got := totals(c); got != 200000 {
		t.Errorf("total = %d after rollback, want 200000", got)
	}
}

func TestChoppedTransferSettles(t *testing.T) {
	c := twoBranches(t, ChoppedQueues, false, 0)
	if err := c.RegisterPrograms(bankPrograms(5000, metric.Strict)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(ctxT(t, 10*time.Second), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("result = %+v", res)
	}
	if got := c.Site("NY").Store.Get("ny:X"); got != 95000 {
		t.Errorf("ny:X = %d, want 95000", got)
	}
	if got := c.Site("LA").Store.Get("la:Y"); got != 105000 {
		t.Errorf("la:Y = %d, want 105000", got)
	}
}

func TestChoppedRollbackInFirstPiece(t *testing.T) {
	c := twoBranches(t, ChoppedQueues, false, 0)
	withdraw := txn.MustProgram("overdraw",
		txn.WithAbortIf(txn.AddOp("ny:X", -999999999), func(v metric.Value) bool { return v < 999999999 }),
		txn.AddOp("la:Y", 999999999),
	)
	if err := c.RegisterPrograms([]*txn.Program{withdraw}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(ctxT(t, 10*time.Second), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RolledBack {
		t.Fatalf("result = %+v, want rolled back", res)
	}
	time.Sleep(100 * time.Millisecond) // no stray piece may run later
	if got := totals(c); got != 200000 {
		t.Errorf("total = %d after rollback, want 200000", got)
	}
}

func TestLatencyAdvantageOfChopping(t *testing.T) {
	// With 30ms one-way latency: 2PC needs 4 sequential one-way hops
	// (>=120ms); the chopped transfer initiates locally (~0ms).
	const oneWay = 30 * time.Millisecond
	ctx := ctxT(t, 20*time.Second)

	c2pc := twoBranches(t, TwoPhaseCommit, false, oneWay)
	if err := c2pc.RegisterPrograms(bankPrograms(1000, metric.Strict)); err != nil {
		t.Fatal(err)
	}
	res2pc, err := c2pc.Submit(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}

	cch := twoBranches(t, ChoppedQueues, false, oneWay)
	if err := cch.RegisterPrograms(bankPrograms(1000, metric.Strict)); err != nil {
		t.Fatal(err)
	}
	resch, err := cch.Submit(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}

	if res2pc.Initiation < 4*oneWay {
		t.Errorf("2PC initiation %v, want >= %v (two rounds)", res2pc.Initiation, 4*oneWay)
	}
	if resch.Initiation > 2*oneWay {
		t.Errorf("chopped initiation %v, want local (< %v)", resch.Initiation, 2*oneWay)
	}
	if resch.Initiation >= res2pc.Initiation {
		t.Errorf("chopping gained nothing: %v vs %v", resch.Initiation, res2pc.Initiation)
	}
	// Settlement still needs the one-way activation hop.
	if resch.Settlement < oneWay {
		t.Errorf("chopped settlement %v, want >= %v", resch.Settlement, oneWay)
	}
}

func TestAvailabilityUnderSiteCrash(t *testing.T) {
	// E2's availability claim: with LA crashed, 2PC cannot finish a
	// transfer at all, while the chopped transfer initiates immediately
	// and settles once LA recovers.
	c2pc := twoBranches(t, TwoPhaseCommit, false, 0)
	if err := c2pc.RegisterPrograms(bankPrograms(1000, metric.Strict)); err != nil {
		t.Fatal(err)
	}
	c2pc.Site("LA").Crash()
	blockCtx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := c2pc.Submit(blockCtx, 0); err == nil {
		t.Error("2PC committed with a crashed participant")
	}

	cch := twoBranches(t, ChoppedQueues, false, 0)
	if err := cch.RegisterPrograms(bankPrograms(1000, metric.Strict)); err != nil {
		t.Fatal(err)
	}
	cch.Site("LA").Crash()
	done := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := cch.Submit(ctxT(t, 20*time.Second), 0)
		if err != nil {
			errCh <- err
			return
		}
		done <- res
	}()
	// The NY debit must land promptly even with LA down.
	deadline := time.Now().Add(2 * time.Second)
	for cch.Site("NY").Store.Get("ny:X") != 99000 {
		if time.Now().After(deadline) {
			t.Fatal("first piece did not commit while LA down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := cch.Site("LA").Store.Get("la:Y"); got != 100000 {
		t.Fatalf("la:Y changed while crashed: %d", got)
	}
	// Recovery lets the second piece settle.
	cch.Site("LA").Recover()
	select {
	case res := <-done:
		if !res.Committed {
			t.Errorf("result = %+v", res)
		}
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(15 * time.Second):
		t.Fatal("settlement never completed after recovery")
	}
	if got := cch.Site("LA").Store.Get("la:Y"); got != 101000 {
		t.Errorf("la:Y = %d after settlement, want 101000", got)
	}
}

func TestCrashRedeliveryDoesNotDoubleApply(t *testing.T) {
	// Crash LA right after the activation is durable but before (or
	// while) the piece runs; recovery must apply the credit exactly
	// once despite redelivery.
	c := twoBranches(t, ChoppedQueues, false, 0)
	if err := c.RegisterPrograms(bankPrograms(1000, metric.Strict)); err != nil {
		t.Fatal(err)
	}
	res := make(chan *Result, 1)
	go func() {
		r, err := c.Submit(ctxT(t, 20*time.Second), 0)
		if err == nil {
			res <- r
		}
	}()
	// Crash/recover LA a few times while the transfer settles.
	for i := 0; i < 3; i++ {
		time.Sleep(15 * time.Millisecond)
		c.Site("LA").Crash()
		time.Sleep(15 * time.Millisecond)
		c.Site("LA").Recover()
	}
	select {
	case <-res:
	case <-time.After(15 * time.Second):
		t.Fatal("transfer never settled through crashes")
	}
	if got := c.Site("LA").Store.Get("la:Y"); got != 101000 {
		t.Errorf("la:Y = %d, want exactly 101000 (no double apply)", got)
	}
	if got := totals(c); got != 200000 {
		t.Errorf("total = %d, want 200000", got)
	}
}

func TestDistributedEpsilonSplit(t *testing.T) {
	// E3 (Section 4.1): transfer export ε = $10,000 split $5,000 per
	// branch piece; audit import ε likewise. Transfers of $4,000 (<
	// $5,000 per-piece budget) proceed through conflicts via local
	// divergence control.
	c := twoBranches(t, ChoppedQueues, true, 0)
	spec := metric.Spec{Import: metric.LimitOf(1000000), Export: metric.LimitOf(1000000)}
	if err := c.RegisterPrograms(bankPrograms(4000, spec)); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t, 30*time.Second)
	var wg sync.WaitGroup
	const xfers, audits = 8, 4
	sums := make(chan metric.Value, audits)
	errCh := make(chan error, xfers+audits)
	for i := 0; i < xfers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Submit(ctx, 0); err != nil {
				errCh <- err
			}
		}()
	}
	for i := 0; i < audits; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Submit(ctx, 1)
			if err != nil {
				errCh <- err
				return
			}
			sums <- res.SumReads()
		}()
	}
	wg.Wait()
	close(errCh)
	close(sums)
	for err := range errCh {
		t.Fatal(err)
	}
	// Money conserved after settlement.
	if got := totals(c); got != 200000 {
		t.Errorf("total = %d, want 200000", got)
	}
	// Audit deviations bounded by money in flight: at most all transfers
	// concurrently mid-flight.
	for sum := range sums {
		if dev := metric.Distance(sum, 200000); dev > xfers*4000 {
			t.Errorf("audit deviation %d exceeds in-flight bound %d", dev, xfers*4000)
		}
	}
}

func TestRegisterProgramsValidation(t *testing.T) {
	c := twoBranches(t, ChoppedQueues, false, 0)
	// Rollback in the second (cross-site) op breaks rollback-safety.
	bad := txn.MustProgram("bad",
		txn.AddOp("ny:X", -1),
		txn.WithAbortIf(txn.AddOp("la:Y", 1), func(metric.Value) bool { return false }),
	)
	if err := c.RegisterPrograms([]*txn.Program{bad}); err == nil {
		t.Error("rollback-unsafe cross-site program accepted")
	}
	if _, err := c.Submit(context.Background(), 99); err == nil {
		t.Error("unknown program index accepted")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := NewCluster(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewCluster(Config{
		Placement: func(storage.Key) simnet.SiteID { return "a" },
	}); err == nil {
		t.Error("config without sites accepted")
	}
}

func TestTwoPCWithDistributedDC(t *testing.T) {
	// Category-1 distributed divergence control (paper §4.1): each
	// subtransaction runs under its site's local DC with an even share
	// of the transaction's ε-spec; local fuzziness sums at the
	// coordinator. A query may read through a prepared update's locks
	// when the shares afford it.
	c := twoBranches(t, TwoPhaseCommit, true, 0)
	spec := metric.Spec{Import: metric.LimitOf(10000), Export: metric.LimitOf(10000)}
	if err := c.RegisterPrograms(bankPrograms(1000, spec)); err != nil {
		t.Fatal(err)
	}
	ctx := ctxT(t, 20*time.Second)
	var wg sync.WaitGroup
	errCh := make(chan error, 12)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Submit(ctx, 0); err != nil {
				errCh <- err
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Submit(ctx, 1)
			if err != nil {
				errCh <- err
				return
			}
			if !res.Committed {
				errCh <- fmt.Errorf("audit did not commit: %+v", res)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := totals(c); got != 200000 {
		t.Errorf("total = %d, want 200000", got)
	}
}
