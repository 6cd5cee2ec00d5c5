package site

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/storage/driver"
)

// savesDriver is the mem driver with SaveQueues counted per site.
type savesDriver struct {
	driver.Driver
	mu    sync.Mutex
	saves map[string]int
}

type savesBackend struct {
	driver.Backend
	d    *savesDriver
	site string
}

func (d *savesDriver) Open(site string, init map[storage.Key]metric.Value) (driver.Backend, error) {
	be, err := d.Driver.Open(site, init)
	return savesBackend{Backend: be, d: d, site: site}, err
}

func (b savesBackend) SaveQueues(st queue.State) error {
	b.d.mu.Lock()
	b.d.saves[b.site]++
	b.d.mu.Unlock()
	return b.Backend.SaveQueues(st)
}

func (d *savesDriver) count(site string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.saves[site]
}

// idleCluster is the NY/LA/CHI cluster with no program registered: the
// piece workers wait for the table, so nothing but the receive barrier
// persists a queue image and admitted activations stay in the queue.
func idleCluster(t *testing.T) (*Cluster, *savesDriver) {
	t.Helper()
	mem, err := driver.New("mem", driver.Params{})
	if err != nil {
		t.Fatal(err)
	}
	drv := &savesDriver{Driver: mem, saves: map[string]int{}}
	c, err := NewCluster(Config{
		Strategy: ChoppedQueues,
		Storage:  drv,
		Placement: func(k storage.Key) simnet.SiteID {
			return simnet.SiteID(strings.ToUpper(strings.SplitN(string(k), ":", 2)[0]))
		},
		Initial: map[simnet.SiteID]map[storage.Key]metric.Value{
			"NY": {"ny:A": 1}, "LA": {"la:B": 1}, "CHI": {"chi:C": 1},
		},
		RetransmitEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, drv
}

// actFrame is a batch frame carrying one activation from a peer to NY.
func actFrame(from simnet.SiteID, seq uint64) simnet.Message {
	return simnet.Message{From: from, To: "NY", Kind: queue.KindEnqueueBatch, Payload: queue.BatchFrame{
		Msgs: []queue.Msg{{
			ID: fmt.Sprintf("%s>NY-%d", from, seq), Seq: seq, From: from, Queue: pieceQueue,
			Payload: activation{Inst: seq, Origin: from, Piece: 1},
		}},
	}}
}

// TestDispatchDrainsInboxIntoOneBarrier: frames already waiting when the
// dispatch loop wakes are handed over together and share one persist.
func TestDispatchDrainsInboxIntoOneBarrier(t *testing.T) {
	c, drv := idleCluster(t)
	ny := c.Site("NY")
	const n = 8
	inbox := make(chan simnet.Message, n)
	for i := 1; i <= n; i++ {
		inbox <- actFrame("LA", uint64(i))
	}
	c.wg.Add(1)
	go c.dispatch(ny, inbox)
	waitFor(t, "the drained frames to be admitted", func() bool { return ny.queues.Depth(pieceQueue) == n })
	if got := drv.count("NY"); got != 1 {
		t.Errorf("SaveQueues ran %d times for %d waiting frames, want 1", got, n)
	}
}

// TestRouteKeepsOrderAroundOtherMessages: a message that is not a
// batched queue frame ends the run — it reaches its own handler, in
// order, and the frames on either side of it get a barrier each. A
// legacy frame is such a message: it is handled one at a time.
func TestRouteKeepsOrderAroundOtherMessages(t *testing.T) {
	c, drv := idleCluster(t)
	ny := c.Site("NY")
	const inst = uint64(424242)
	tr := newTracker(1)
	c.dist.mu.Lock()
	c.dist.trackers[inst] = tr
	c.dist.mu.Unlock()

	legacy := actFrame("CHI", 2).Payload.(queue.BatchFrame).Msgs[0]
	c.route(ny, []simnet.Message{
		actFrame("LA", 1),
		actFrame("CHI", 1),
		{From: "LA", To: "NY", Kind: KindPieceDone, Payload: pieceDone{Inst: inst, Piece: 0}},
		actFrame("LA", 2),
		{From: "CHI", To: "NY", Kind: queue.KindEnqueue, Payload: legacy},
		actFrame("LA", 3),
	})
	select {
	case <-tr.done:
	default:
		t.Error("the piece.done message between two frames never reached its handler")
	}
	if got := ny.queues.Depth(pieceQueue); got != 5 {
		t.Errorf("admitted %d activations, want 5", got)
	}
	// Runs: [LA1 CHI1] · piece.done · [LA2] · legacy CHI2 · [LA3].
	if got := drv.count("NY"); got != 4 {
		t.Errorf("SaveQueues ran %d times, want 4", got)
	}
}
