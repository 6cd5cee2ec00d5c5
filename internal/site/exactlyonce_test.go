package site

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"asynctp/internal/fault"
	"asynctp/internal/history"
	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// hooks crashes wherever any of the CrashOnce hooks armed so far fires.
type hooks struct {
	mu    sync.Mutex
	armed []*fault.CrashOnce
}

func (h *hooks) arm(c *fault.CrashOnce) {
	h.mu.Lock()
	h.armed = append(h.armed, c)
	h.mu.Unlock()
}

func (h *hooks) ShouldCrash(p fault.Point, site simnet.SiteID, inst uint64, piece int, comp bool) bool {
	h.mu.Lock()
	armed := h.armed
	h.mu.Unlock()
	for _, c := range armed {
		if c.ShouldCrash(p, site, inst, piece, comp) {
			return true
		}
	}
	return false
}

// guardedChain moves amount NY→LA→CHI. The freeze probe at LA makes it
// rollback-unsafe, so it runs as a compensable strict chain: LA's piece
// stages CHI's, and a redelivered LA activation has a successor to
// stage again.
func guardedChain(amount metric.Value) *txn.Program {
	return txn.MustProgram("gchain",
		txn.AddOp("ny:A", -amount),
		txn.WithAbortIf(txn.AddOp("la:frozen", 0), func(v metric.Value) bool { return v != 0 }),
		txn.AddOp("la:B", amount),
		txn.AddOp("la:B", -amount),
		txn.AddOp("chi:C", amount),
	)
}

// appliedDeltas returns, from the recorded history, the number of
// committed applications of every (instance, piece program) and the net
// delta each instance's committed pieces wrote per key.
func appliedDeltas(c *Cluster) (apps map[string]int, deltas map[history.Group]map[storage.Key]metric.Value) {
	txns, ops := c.Recorder().Snapshot()
	groupOf := c.GroupOf()
	apps = make(map[string]int)
	deltas = make(map[history.Group]map[storage.Key]metric.Value)
	for _, tx := range txns {
		if tx.Status != history.Committed {
			continue
		}
		g := groupOf[tx.Owner]
		apps[fmt.Sprintf("%d %s", g, tx.Name)]++
		if deltas[g] == nil {
			deltas[g] = make(map[storage.Key]metric.Value)
		}
		for _, i := range tx.Ops {
			if op := ops[i]; op.Kind == history.OpWrite {
				deltas[g][op.Key] += op.Value - op.Old
			}
		}
	}
	return apps, deltas
}

// chainCluster is NY, LA and CHI, each holding 10000, with guardedChain
// registered, a recorded history and hook as the fault hook.
func chainCluster(t *testing.T, amount metric.Value, hook fault.Hook) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Strategy:          ChoppedQueues,
		AllowCompensation: true,
		Record:            true,
		Seed:              9,
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
			"LA":  {"la:B": 10000, "la:frozen": 0},
			"CHI": {"chi:C": 10000},
		},
		RetransmitEvery: 5 * time.Millisecond,
		FaultHook:       hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.RegisterPrograms([]*txn.Program{guardedChain(amount)}); err != nil {
		t.Fatal(err)
	}
	if !c.dist.programs[0].compensable {
		t.Fatal("guardedChain is not a compensable strict chain")
	}
	return c
}

// checkAppliedOnce waits for the chain cluster to conserve its money and
// quiesce, then requires from the history that every piece of every
// instance was applied exactly once and that each instance moved
// exactly amount from NY to CHI. It returns the number of instances.
func checkAppliedOnce(t *testing.T, c *Cluster, amount metric.Value) int {
	t.Helper()
	for _, id := range []simnet.SiteID{"NY", "LA", "CHI"} {
		if err := c.Site(id).RecoverError(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	sum := func() metric.Value {
		return c.Site("NY").Store.Get("ny:A") + c.Site("LA").Store.Get("la:B") + c.Site("CHI").Store.Get("chi:C")
	}
	waitFor(t, "money to be conserved", func() bool { return sum() == 30000 })
	waitIdle(t, c)
	apps, deltas := appliedDeltas(c)
	for app, n := range apps {
		if n != 1 {
			t.Errorf("%s applied %d times", app, n)
		}
	}
	want := map[storage.Key]metric.Value{"ny:A": -amount, "la:B": 0, "la:frozen": 0, "chi:C": amount}
	settled := 0
	for g, d := range deltas {
		if fmt.Sprint(d) != fmt.Sprint(want) {
			t.Errorf("instance %d moved %v, want %v", g, d, want)
			continue
		}
		settled++
	}
	moved := metric.Value(settled) * amount
	if got := c.Site("NY").Store.Get("ny:A"); got != 10000-moved {
		t.Errorf("ny:A = %d, want %d after %d instances", got, 10000-moved, settled)
	}
	if got := c.Site("CHI").Store.Get("chi:C"); got != 10000+moved {
		t.Errorf("chi:C = %d, want %d after %d instances", got, 10000+moved, settled)
	}
	return settled
}

// TestRestageAndRedeliverDoNotDoubleApply crashes LA after its batch of
// chain pieces committed and staged, before the step that acknowledges
// them (fault.PointPreAck), and NY after a first piece committed, before
// it staged its successor (fault.PointPreReport). Recovery redelivers
// LA's activations, whose successors it stages again, and restages NY's
// lost origin. The history must show every piece of every instance
// applied exactly once, each instance moving exactly amount, and the
// money conserved.
func TestRestageAndRedeliverDoNotDoubleApply(t *testing.T) {
	const amount, chains = 10, 24
	preAck := &fault.CrashOnce{Point: fault.PointPreAck, Site: "LA", Piece: 1}
	preReport := &fault.CrashOnce{Point: fault.PointPreReport, Site: "NY", Piece: 0}
	hook := &hooks{}
	hook.arm(preAck)
	c := chainCluster(t, amount, hook)

	// Submitters retry a submission the crashed origin refused; the one
	// whose first piece committed before the pre-report crash is left to
	// the restage.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < chains/4; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				_, err := c.Submit(ctx, 0)
				cancel()
				for err != nil && c.Site("NY").isCrashed() {
					time.Sleep(time.Millisecond)
					ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
					_, err = c.Submit(ctx, 0)
					cancel()
				}
			}
		}()
	}
	waitFired(t, preAck, "pre-ack crash at LA")
	waitFor(t, "LA to fail-stop", c.Site("LA").isCrashed)
	c.RestartSite("LA")
	if len(c.Site("LA").recovered) == 0 {
		t.Error("LA's recovery found no applied delivery its image would deliver again")
	}
	hook.arm(preReport)
	waitFired(t, preReport, "pre-report crash at NY")
	c.CrashSite("NY")
	c.RestartSite("NY")
	wg.Wait()
	settled := checkAppliedOnce(t, c, amount)
	if preAck.Hits() < 2 {
		t.Error("LA's crashed batch was never redelivered")
	}
	t.Logf("%d instances settled; LA redelivered %d applied deliveries", settled, len(c.Site("LA").recovered))
}

// TestRestageWhileSubmittingAppliesOnce keeps four submitters
// running at NY while NY crashes and recovers again and again: half the
// crashes hit a first piece that committed before staging its successor
// (fault.PointPreReport), the rest land wherever the submitters are.
// A submission under way across a crash, or one that arrives while NY
// recovers, must neither reuse the origin slot of a lost staging nor be
// staged twice, so the history must still show every piece of every
// instance applied exactly once.
func TestRestageWhileSubmittingAppliesOnce(t *testing.T) {
	const amount, cycles = 10, 40
	hook := &hooks{}
	c := chainCluster(t, amount, hook)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				_, _ = c.Submit(ctx, 0)
				cancel()
			}
		}()
	}
	for i := 0; i < cycles; i++ {
		if i%2 == 0 {
			preReport := &fault.CrashOnce{Point: fault.PointPreReport, Site: "NY", Piece: 0}
			hook.arm(preReport)
			waitFired(t, preReport, "pre-report crash at NY")
		} else {
			time.Sleep(3 * time.Millisecond)
		}
		c.CrashSite("NY")
		c.RestartSite("NY")
		time.Sleep(3 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	settled := checkAppliedOnce(t, c, amount)
	if settled < cycles {
		t.Errorf("%d instances settled over %d recoveries", settled, cycles)
	}
	t.Logf("%d instances settled over %d recoveries of NY", settled, cycles)
}

// exactlyOnceState measures what a site keeps for exactly-once: its
// store's cells, the entries of its apply logs and origin slots, the
// deliveries it remembers from a recovery, and the cluster's group map.
func exactlyOnceState(c *Cluster, id simnet.SiteID) string {
	s := c.Site(id)
	logs := 0
	for _, k := range s.Store.Keys() {
		if strings.HasPrefix(string(k), "__") {
			logs++
		}
	}
	return fmt.Sprintf("len=%d logs=%d recovered=%d slots=%d groups=%d",
		s.Store.Len(), logs, len(s.recovered), s.origins.n, len(c.GroupOf()))
}

// TestAppliedStateIsBounded runs 1k and then 10k more chopped transfers
// on the two-branch cluster. What each site keeps for exactly-once must
// be the same after both: a constant set of log cells per site and
// channel, not one per instance.
func TestAppliedStateIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("11k transfers")
	}
	c, err := NewCluster(twoBranchConfig(ChoppedQueues, false, 0), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.RegisterPrograms(bankPrograms(1, metric.Strict)); err != nil {
		t.Fatal(err)
	}
	run := func(n int) map[simnet.SiteID]string {
		for i := 0; i < n; i++ {
			if res, err := c.Submit(ctxT(t, 10*time.Second), 0); err != nil || !res.Committed {
				t.Fatalf("transfer %d: %+v, %v", i, res, err)
			}
		}
		waitIdle(t, c)
		return map[simnet.SiteID]string{"NY": exactlyOnceState(c, "NY"), "LA": exactlyOnceState(c, "LA")}
	}
	after1k := run(1000)
	after11k := run(10000)
	for id, st := range after1k {
		if after11k[id] != st {
			t.Errorf("%s: after 1k transfers %s, after 11k %s", id, st, after11k[id])
		}
	}
	if got := totals(c); got != 200000 {
		t.Errorf("total = %d, want 200000", got)
	}
	t.Logf("after 11k transfers: %v", after11k)
}

// TestRecoveredWatermarkKeepsGaps hands resume a store whose apply logs
// name deliveries 2, 4 and 9 from NY and an image that admitted 1–6,
// consumed 1–3 and still queues 4–6. Delivery 2 is consumed, so it is
// forgotten; 4 (queued) and 9 (admitted after the image, to be
// retransmitted) are applied and must be recognized; 5 and 6 sit below
// an applied sequence number without having been applied, and must run.
func TestRecoveredWatermarkKeepsGaps(t *testing.T) {
	c := twoBranches(t, ChoppedQueues, false, 0)
	la := c.Site("LA")
	la.stopWorkersAndWait()
	for key, seq := range map[string]int{"__applied/NY/0/0": 2, "__applied/NY/1/0": 4, "__applied/NY/r/0": 9} {
		if err := la.Store.Apply([]storage.Write{{Key: storage.Key(key), Value: metric.Value(seq)}}); err != nil {
			t.Fatal(err)
		}
	}
	msg := func(seq uint64) queue.Msg { return queue.Msg{From: "NY", Seq: seq, Queue: pieceQueue} }
	st := queue.State{
		Queues: map[string][]queue.Msg{pieceQueue: {msg(4), msg(5), msg(6)}},
		Seen:   map[simnet.SiteID]queue.SeenState{"NY": {Prefix: 6}},
	}
	if err := la.resume(st); err != nil {
		t.Fatal(err)
	}
	for seq, want := range map[uint64]bool{1: false, 2: false, 3: false, 4: true, 5: false, 6: false, 7: false, 8: false, 9: true, 10: false} {
		if got := la.redelivered(msg(seq)); got != want {
			t.Errorf("delivery %d counted applied: %v, want %v", seq, got, want)
		}
	}
	if got := la.redelivered(queue.Msg{From: "CHI", Seq: 4}); got {
		t.Error("CHI's delivery 4 counted applied for NY's")
	}
	// The recovered deliveries were rewritten to entries no worker
	// reuses: a second recovery over the same image finds them again.
	la.Store.Set("__applied/NY/1/0", 0)
	if err := la.resume(st); err != nil {
		t.Fatal(err)
	}
	if !la.redelivered(msg(4)) || !la.redelivered(msg(9)) || la.redelivered(msg(2)) {
		t.Errorf("second recovery remembers %v, want deliveries 4 and 9 from NY", la.recovered)
	}
}
