package site

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"asynctp/internal/fault"
	"asynctp/internal/metric"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// threeSitesOpts is threeSites plus cluster tuning options.
func threeSitesOpts(t *testing.T, latency time.Duration, opts ...Option) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Strategy: ChoppedQueues,
		Latency:  latency,
		Seed:     3,
		Placement: func(k storage.Key) simnet.SiteID {
			switch {
			case strings.HasPrefix(string(k), "ny:"):
				return "NY"
			case strings.HasPrefix(string(k), "la:"):
				return "LA"
			default:
				return "CHI"
			}
		},
		Initial: map[simnet.SiteID]map[storage.Key]metric.Value{
			"NY":  {"ny:A": 10000},
			"LA":  {"la:B": 10000},
			"CHI": {"chi:C": 10000},
		},
		RetransmitEvery: 10 * time.Millisecond,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// conserveChain asserts the three-site money supply is intact.
func conserveChain(t *testing.T, c *Cluster) {
	t.Helper()
	total := c.Site("NY").Store.Get("ny:A") +
		c.Site("LA").Store.Get("la:B") +
		c.Site("CHI").Store.Get("chi:C")
	if total != 30000 {
		t.Errorf("conservation violated: total = %d, want 30000", total)
	}
}

// TestWithWorkersOptionPlumbs checks the functional option reaches the
// sites and the default stays at the historical pool size (satellite:
// WithWorkers).
func TestWithWorkersOptionPlumbs(t *testing.T) {
	c := threeSitesOpts(t, 0)
	if got := c.Site("NY").workers; got != defaultWorkers {
		t.Errorf("default workers = %d, want %d", got, defaultWorkers)
	}
	c1 := threeSitesOpts(t, 0, WithWorkers(1))
	if got := c1.Site("LA").workers; got != 1 {
		t.Errorf("WithWorkers(1) → workers = %d", got)
	}
	c8 := threeSitesOpts(t, 0, WithWorkers(8), WithActivationBatch(4))
	if got := c8.Site("CHI").workers; got != 8 {
		t.Errorf("WithWorkers(8) → workers = %d", got)
	}
	if got := c8.Site("CHI").actBatch; got != 4 {
		t.Errorf("WithActivationBatch(4) → actBatch = %d", got)
	}
}

// runChains submits n chain instances concurrently and requires every
// one to settle committed.
func runChains(t *testing.T, c *Cluster, n int) {
	t.Helper()
	if err := c.RegisterPrograms([]*txn.Program{chainProgram(1)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Submit(ctx, 0)
			if err != nil {
				errs <- err
				return
			}
			if !res.Committed {
				errs <- context.DeadlineExceeded
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("chain submission failed: %v", err)
	}
}

// TestWorkerPoolSizesConserve runs the same concurrent chain load at
// workers=1 and workers=8: both must settle everything and conserve the
// money supply identically (satellite: WithWorkers conservation).
func TestWorkerPoolSizesConserve(t *testing.T) {
	for _, workers := range []int{1, 8} {
		c := threeSitesOpts(t, 0, WithWorkers(workers))
		runChains(t, c, 16)
		conserveChain(t, c)
		if got := c.Site("NY").Store.Get("ny:A"); got != 10000-16 {
			t.Errorf("workers=%d: ny:A = %d, want %d", workers, got, 10000-16)
		}
		if got := c.Site("CHI").Store.Get("chi:C"); got != 10000+16 {
			t.Errorf("workers=%d: chi:C = %d, want %d", workers, got, 10000+16)
		}
	}
}

// TestLegacyWireClusterSettles keeps the A/B baseline honest: the
// pre-batching transport must still settle the same workload.
func TestLegacyWireClusterSettles(t *testing.T) {
	c := threeSitesOpts(t, 0, WithLegacyWire())
	runChains(t, c, 8)
	conserveChain(t, c)
	if got := c.Site("CHI").Store.Get("chi:C"); got != 10008 {
		t.Errorf("chi:C = %d, want 10008", got)
	}
}

// TestDoneBatchPayloadSettlesTracker delivers a coalesced doneBatch
// through the recoverable done queue and checks the origin's doneLoop
// unpacks every report into the tracker (coalesced settlement path).
func TestDoneBatchPayloadSettlesTracker(t *testing.T) {
	c := threeSitesOpts(t, 0)
	if err := c.RegisterPrograms([]*txn.Program{chainProgram(1)}); err != nil {
		t.Fatal(err)
	}
	// Hand-register a tracker for a fake 3-piece instance at origin NY.
	const inst = uint64(777777)
	tr := newTracker(3)
	c.dist.mu.Lock()
	c.dist.trackers[inst] = tr
	c.dist.mu.Unlock()
	// LA reports all three pieces in ONE done-queue message.
	la := c.Site("LA")
	buf := la.queues.Buffer()
	buf.Enqueue("NY", doneQueue, doneBatch{Reports: []pieceDone{
		{Inst: inst, Piece: 0},
		{Inst: inst, Piece: 1},
		{Inst: inst, Piece: 2},
	}})
	la.queues.CommitSend(buf)
	// The committed send is held until an image holding it is durable.
	if err := la.queues.Persist(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tr.done:
	case <-time.After(10 * time.Second):
		t.Fatal("coalesced doneBatch never settled the tracker")
	}
	c.dist.mu.Lock()
	defer c.dist.mu.Unlock()
	if len(tr.pieces) != 3 {
		t.Errorf("tracker recorded %d pieces, want 3", len(tr.pieces))
	}
}

// TestBatchFlushCrashReplay crashes NY at fault.PointPreBatchFlush —
// after its successor activations are durable in the outbox but before
// the coalesced frame reaches the wire. The volatile flush buffer dies
// with the site; after Recover, retransmission must replay the staged
// batch from the durable outbox and the chain settles with conservation
// intact (satellite: crash mid-flush).
func TestBatchFlushCrashReplay(t *testing.T) {
	hook := &fault.CrashOnce{
		Point: fault.PointPreBatchFlush,
		Site:  "NY",
		Piece: -1,
	}
	c, err := NewCluster(Config{
		Strategy: ChoppedQueues,
		Seed:     11,
		Placement: func(k storage.Key) simnet.SiteID {
			switch {
			case strings.HasPrefix(string(k), "ny:"):
				return "NY"
			case strings.HasPrefix(string(k), "la:"):
				return "LA"
			default:
				return "CHI"
			}
		},
		Initial: map[simnet.SiteID]map[storage.Key]metric.Value{
			"NY":  {"ny:A": 10000},
			"LA":  {"la:B": 10000},
			"CHI": {"chi:C": 10000},
		},
		RetransmitEvery: 10 * time.Millisecond,
		FaultHook:       hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.RegisterPrograms([]*txn.Program{chainProgram(500)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if res, err := c.Submit(ctx, 0); err == nil {
			done <- res
		}
	}()
	waitFired(t, hook, "pre-batch-flush crash")
	// NY fail-stopped mid-flush: its successor activation for LA is
	// durable in the outbox but never hit the wire.
	time.Sleep(20 * time.Millisecond)
	c.Site("NY").Recover()
	select {
	case res := <-done:
		if !res.Committed {
			t.Fatalf("result = %+v, want committed", res)
		}
	case <-time.After(25 * time.Second):
		t.Fatal("chain never settled through the mid-flush crash")
	}
	// Let the last acks drain, then check the books.
	time.Sleep(50 * time.Millisecond)
	if got := c.Site("NY").Store.Get("ny:A"); got != 9500 {
		t.Errorf("ny:A = %d, want 9500", got)
	}
	if got := c.Site("CHI").Store.Get("chi:C"); got != 10500 {
		t.Errorf("chi:C = %d, want 10500", got)
	}
	conserveChain(t, c)
}

// TestQueueBatchingOptionPlumbs runs chains under WithQueueBatching:
// with a batch cap past the default they still settle and conserve
// money.
func TestQueueBatchingOptionPlumbs(t *testing.T) {
	c := threeSitesOpts(t, 0, WithQueueBatching(256))
	runChains(t, c, 4)
	conserveChain(t, c)
}
