package site

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"asynctp/internal/metric"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/storage/driver"
	"asynctp/internal/txn"
)

// diskCluster builds the NY/LA/CHI chain cluster over the disk driver
// rooted at dir. instBase offsets instance IDs for restart incarnations;
// opts adjust the driver's parameters.
func diskCluster(t *testing.T, dir string, instBase uint64, opts ...func(*driver.Params)) *Cluster {
	t.Helper()
	params := driver.Params{Dir: dir, SyncEvery: 200 * time.Microsecond}
	for _, o := range opts {
		o(&params)
	}
	drv, err := driver.New("disk", params)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Strategy: ChoppedQueues,
		Storage:  drv,
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
		InstanceBase:    instBase,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDiskChainSettlesAndMatchesMem(t *testing.T) {
	// The same deterministic chain workload through the full site
	// pipeline on both drivers must leave identical account state.
	run := func(c *Cluster) map[simnet.SiteID]metric.Value {
		t.Helper()
		defer c.Close()
		if err := c.RegisterPrograms([]*txn.Program{chainProgram(250)}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for i := 0; i < 4; i++ {
			res, err := c.Submit(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Committed {
				t.Fatalf("submission %d: %+v", i, res)
			}
		}
		return map[simnet.SiteID]metric.Value{
			"NY":  c.Site("NY").Store.Get("ny:A"),
			"LA":  c.Site("LA").Store.Get("la:B"),
			"CHI": c.Site("CHI").Store.Get("chi:C"),
		}
	}
	mem := run(threeSites(t, ChoppedQueues, 0))
	disk := run(diskCluster(t, t.TempDir(), 0))
	for id, v := range mem {
		if disk[id] != v {
			t.Errorf("site %s: mem=%d disk=%d", id, v, disk[id])
		}
	}
	if mem["NY"] != 10000-4*250 || mem["CHI"] != 10000+4*250 {
		t.Errorf("workload did not settle: %+v", mem)
	}
}

func TestDiskChainThroughMidCrash(t *testing.T) {
	// Crash the middle site while chains settle; recovery replays the
	// real WAL files and exactly-once must hold.
	dir := t.TempDir()
	c := diskCluster(t, dir, 0)
	defer c.Close()
	if err := c.RegisterPrograms([]*txn.Program{chainProgram(10)}); err != nil {
		t.Fatal(err)
	}
	const n = 5
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := c.Submit(ctx, 0); err != nil {
				errs <- err
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	c.Site("LA").Crash()
	time.Sleep(30 * time.Millisecond)
	c.Site("LA").Recover()
	if err := c.Site("LA").RecoverError(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := c.Site("NY").Store.Get("ny:A"); got != 10000-n*10 {
		t.Errorf("ny:A = %d, want %d", got, 10000-n*10)
	}
	if got := c.Site("CHI").Store.Get("chi:C"); got != 10000+n*10 {
		t.Errorf("chi:C = %d, want %d (exactly once through crash)", got, 10000+n*10)
	}
	if got := c.Site("LA").Store.Get("la:B"); got != 10000 {
		t.Errorf("la:B = %d, want 10000", got)
	}
}

func TestDiskProcessRestartResumesFromImage(t *testing.T) {
	// Simulate a full process restart: run a workload, tear the cluster
	// down, build a brand-new cluster over the same directory. The new
	// incarnation must see the settled balances, keep exactly-once for
	// redelivered traffic, and mint non-colliding instance IDs.
	dir := t.TempDir()
	c := diskCluster(t, dir, 0)
	if err := c.RegisterPrograms([]*txn.Program{chainProgram(100)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(ctx, 0); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	c.Close()

	c2 := diskCluster(t, dir, 1_000_000)
	defer c2.Close()
	// RegisterPrograms re-stages only origin slots whose staging the image
	// lacks; the first run settled, so it stages nothing and state stays.
	if err := c2.RegisterPrograms([]*txn.Program{chainProgram(100)}); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, c2)
	if got := c2.Site("NY").Store.Get("ny:A"); got != 10000-3*100 {
		t.Errorf("ny:A after restart = %d, want %d", got, 10000-3*100)
	}
	if got := c2.Site("CHI").Store.Get("chi:C"); got != 10000+3*100 {
		t.Errorf("chi:C after restart = %d, want %d (re-staging must dedup)", got, 10000+3*100)
	}

	// New submissions in the restarted incarnation settle on top.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	res, err := c2.Submit(ctx2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("post-restart submission: %+v", res)
	}
	if got := c2.Site("CHI").Store.Get("chi:C"); got != 10000+4*100 {
		t.Errorf("chi:C after restart+submit = %d, want %d", got, 10000+4*100)
	}
}

func TestDiskRecoveredActivationWaitsForRegistration(t *testing.T) {
	// NewCluster starts the piece workers over the queue image restored
	// from storage, before the caller can register programs. An
	// activation recovered from that image must wait for the program
	// table, not index into an empty one, and then settle exactly once.
	dir := pendingLAActivation(t)
	c2 := diskCluster(t, dir, 1_000_000)
	defer c2.Close()
	// Registration is delayed: long enough for a worker that does not
	// wait to have consumed the recovered activation.
	time.Sleep(50 * time.Millisecond)
	if got := c2.Site("LA").queues.Depth(pieceQueue); got != 1 {
		t.Fatalf("LA piece queue depth = %d before registration, want the 1 recovered activation", got)
	}
	if err := c2.RegisterPrograms([]*txn.Program{chainProgram(100)}); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, c2)
	for key, want := range map[storage.Key]metric.Value{
		"ny:A": 10000 - 100, "la:B": 10000, "chi:C": 10000 + 100,
	} {
		if got := c2.Site(c2.placement(key)).Store.Get(key); got != want {
			t.Errorf("%s = %d, want %d (the recovered chain settles exactly once)", key, got, want)
		}
	}
}

// pendingLAActivation runs one chain on a fresh disk cluster with LA's
// workers stopped and closes it: the returned directory holds a durable
// queue image in which the chain's second activation is delivered to LA
// and never consumed.
func pendingLAActivation(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	c := diskCluster(t, dir, 0)
	if err := c.RegisterPrograms([]*txn.Program{chainProgram(100)}); err != nil {
		t.Fatal(err)
	}
	c.Site("LA").stopWorkersAndWait()
	ctx, cancel := context.WithCancel(context.Background())
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		_, _ = c.Submit(ctx, 0) // cannot settle; cancelled below
	}()
	waitFor(t, "LA to hold the pending activation", func() bool {
		return c.Site("LA").queues.Depth(pieceQueue) == 1
	})
	cancel()
	<-submitted
	c.Close()
	return dir
}

func TestDiskUnknownProgramTypeIsNacked(t *testing.T) {
	// A process restarted with a shorter program table than the one its
	// queue image was written under: the recovered activation names a
	// type the table does not hold. It must go back unacked and unapplied
	// (no index panic), and run once workers restart over the full table.
	dir := pendingLAActivation(t)
	c2 := diskCluster(t, dir, 1_000_000)
	defer c2.Close()
	if err := c2.RegisterPrograms(nil); err != nil {
		t.Fatal(err)
	}
	la := c2.Site("LA")
	// Long enough for every LA worker to have taken the delivery, nacked
	// it and stopped; stopping them makes the depth below final.
	time.Sleep(50 * time.Millisecond)
	la.stopWorkersAndWait()
	if got := la.queues.Depth(pieceQueue); got != 1 {
		t.Fatalf("LA piece queue depth = %d, want the 1 nacked activation", got)
	}
	// The witness is LA's committed batches (its store's LSN): nothing
	// but the chain's LA piece commits there.
	start := la.Store.LastLSN()
	applied := func() int { return int(la.Store.LastLSN() - start) }
	if got := applied(); got != 0 {
		t.Fatalf("LA applied %d pieces with the chain's type unknown", got)
	}
	if err := c2.RegisterPrograms([]*txn.Program{chainProgram(100)}); err != nil {
		t.Fatal(err)
	}
	la.startWorkers()
	waitIdle(t, c2)
	if got, bal := applied(), la.Store.Get("la:B"); got != 1 || bal != 10000 {
		t.Errorf("LA applied %d pieces, la:B = %d; want the recovered piece applied once and la:B 10000", got, bal)
	}
}

// waitIdle waits until every site's queue endpoint has drained.
func waitIdle(t *testing.T, c *Cluster) {
	t.Helper()
	waitFor(t, "the cluster to quiesce", func() bool {
		for _, s := range c.sites {
			if !s.QueuesIdle() {
				return false
			}
		}
		return true
	})
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
