package site

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/storage/driver"
	"asynctp/internal/storage/wal"
	"asynctp/internal/txn"
)

// hookDriver is the mem driver with a hook in front of every
// SaveQueues, which may hold a site's persist open or fail it.
type hookDriver struct {
	driver.Driver
	save func(site string, st queue.State) error
}

type hookBackend struct {
	driver.Backend
	site string
	save func(site string, st queue.State) error
}

func (d hookDriver) Open(site string, init map[storage.Key]metric.Value) (driver.Backend, error) {
	be, err := d.Driver.Open(site, init)
	return hookBackend{Backend: be, site: site, save: d.save}, err
}

func (b hookBackend) SaveQueues(st queue.State) error {
	if err := b.save(b.site, st); err != nil {
		return err
	}
	return b.Backend.SaveQueues(st)
}

// hookCluster is the NY/LA/CHI cluster over hookDriver, every account
// seeded with 100, running programs.
func hookCluster(t *testing.T, save func(site string, st queue.State) error, programs ...*txn.Program) *Cluster {
	t.Helper()
	mem, err := driver.New("mem", driver.Params{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Strategy: ChoppedQueues,
		Storage:  hookDriver{Driver: mem, save: save},
		Placement: func(k storage.Key) simnet.SiteID {
			return simnet.SiteID(strings.ToUpper(strings.SplitN(string(k), ":", 2)[0]))
		},
		Initial: map[simnet.SiteID]map[storage.Key]metric.Value{
			"NY": {"ny:A": 100}, "LA": {"la:B": 100}, "CHI": {"chi:C": 100},
		},
		RetransmitEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.RegisterPrograms(programs); err != nil {
		t.Fatal(err)
	}
	return c
}

// moveProgram moves one unit NY → LA in two pieces.
func moveProgram() *txn.Program {
	return txn.MustProgram("move", txn.AddOp("ny:A", -1), txn.AddOp("la:B", 1))
}

// TestNoFrameLeavesBeforeItsImageIsDurable: NY's persist of the image
// holding the activation it staged is held open. Until it returns, the
// activation must not reach LA — a crash in that window would restart
// NY from an image without the message, and its next message to LA
// would reuse the sequence number LA has already seen.
func TestNoFrameLeavesBeforeItsImageIsDurable(t *testing.T) {
	release := make(chan struct{})
	var holding atomic.Bool
	c := hookCluster(t, func(site string, st queue.State) error {
		if site == "NY" && len(st.Outbox) > 0 && !holding.Swap(true) {
			<-release
		}
		return nil
	}, moveProgram())

	submitted := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := c.Submit(ctx, 0)
		submitted <- err
	}()
	time.Sleep(100 * time.Millisecond)
	during := c.Site("LA").Store.Get("la:B")
	close(release)
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	if !holding.Load() {
		t.Fatal("NY never persisted an image holding the activation")
	}
	if during != 100 {
		t.Errorf("la:B = %d while the image holding its activation was not durable, want 100", during)
	}
	if got := c.Site("LA").Store.Get("la:B"); got != 101 {
		t.Errorf("la:B = %d after the persist returned, want 101", got)
	}
}

var errDiskFull = errors.New("disk full")

// TestSubmitReturnsPersistError: the origin's persist fails, so Submit
// reports it, the origin fail-stops and the activation never leaves.
func TestSubmitReturnsPersistError(t *testing.T) {
	var fail atomic.Bool
	c := hookCluster(t, func(site string, st queue.State) error {
		if site == "NY" && fail.Load() {
			return errDiskFull
		}
		return nil
	}, moveProgram())
	fail.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Submit(ctx, 0); !errors.Is(err, errDiskFull) {
		t.Fatalf("Submit = %v, want the persist error", err)
	}
	if !c.Site("NY").isCrashed() {
		t.Error("NY carried on after its persist failed")
	}
	time.Sleep(20 * time.Millisecond)
	if got := c.Site("LA").Store.Get("la:B"); got != 100 {
		t.Errorf("la:B = %d, want 100: the activation left without a durable image", got)
	}
}

// TestWorkerPersistErrorFailStopsSite: LA's persists fail. Its worker
// runs the piece it was handed, fails the batch's persist and must
// fail-stop with the settlement report it staged still held: the
// instance never settles on a piece whose image did not become durable.
func TestWorkerPersistErrorFailStopsSite(t *testing.T) {
	var fail atomic.Bool
	c := hookCluster(t, func(site string, st queue.State) error {
		if site == "LA" && fail.Load() {
			return errDiskFull
		}
		return nil
	}, moveProgram())
	fail.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	submitted := make(chan *Result, 1)
	go func() {
		res, _ := c.Submit(ctx, 0) // cannot settle; cancelled below
		submitted <- res
	}()
	waitFor(t, "LA to fail-stop", c.Site("LA").isCrashed)
	select {
	case res := <-submitted:
		t.Fatalf("Submit returned %+v: LA's report left without a durable image", res)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	if res := <-submitted; res != nil {
		t.Errorf("Submit settled (%+v) after LA fail-stopped", res)
	}
}

// originOnDisk reads a site's log as a restart would and reports
// whether it holds the batch of a chain's piece 0 that moved amount out
// of ny:A (seeded at 10000) and an image whose outbox holds inst's child
// activation. The witness is the piece's own write, not the site's
// exactly-once bookkeeping.
func originOnDisk(t *testing.T, dir string, inst uint64, amount metric.Value) (batch, image bool) {
	t.Helper()
	res, err := wal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Batches {
		for _, kv := range b.Writes {
			batch = batch || kv.Key == "ny:A" && kv.Val == int64(10000-amount)
		}
	}
	if rec, ok := res.Aux["queues"]; ok { // the disk driver's name for the image
		st, err := queue.DecodeState(rec.Data)
		if err != nil {
			t.Fatal(err)
		}
		for _, om := range st.Outbox {
			if act, ok := om.Msg.Payload.(activation); ok && act.Inst == inst && act.Piece == 1 {
				image = true
			}
		}
	}
	return batch, image
}

// TestDiskCrashKeepsPieceBatchAndImageTogether crashes NY's log while
// it commits a chain's first piece — at the piece's batch record, or at
// the fsync of the cohort holding the piece's image — and reopens NY
// from its files. The piece's batch rides the image's fsync, so the log
// holds both or neither; nothing left NY before the crash, and after
// the restart the chain settles exactly once or not at all.
func TestDiskCrashKeepsPieceBatchAndImageTogether(t *testing.T) {
	for _, tc := range []struct {
		point     wal.CrashPoint
		committed bool
	}{
		{wal.PointAppend, false},
		{wal.PointSync, true},
	} {
		t.Run(tc.point.String(), func(t *testing.T) {
			const inst, amount = 1, 10
			dir := t.TempDir()
			var armed atomic.Bool
			c := diskCluster(t, dir, 0, func(p *driver.Params) {
				p.Hook = func(site string, pt wal.CrashPoint) wal.Action {
					if site == "NY" && pt == tc.point && armed.CompareAndSwap(true, false) {
						return wal.ActCrash
					}
					return wal.ActContinue
				}
			})
			defer c.Close()
			if err := c.RegisterPrograms([]*txn.Program{chainProgram(amount)}); err != nil {
				t.Fatal(err)
			}
			armed.Store(true)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := c.Submit(ctx, 0); !errors.Is(err, wal.ErrCrashed) {
				t.Fatalf("Submit = %v, want the injected crash", err)
			}
			if !c.Site("NY").isCrashed() {
				c.CrashSite("NY") // a failed batch write aborts the piece; the site is still up
			}
			if got := c.Site("LA").queues.DedupPrefix("NY"); got != 0 {
				t.Errorf("LA admitted %d messages from NY before NY's image was durable", got)
			}

			batch, image := originOnDisk(t, filepath.Join(dir, "NY"), inst, amount)
			if batch != image || batch != tc.committed {
				t.Fatalf("NY's log holds the piece's batch: %v, its image's child activation: %v; want both %v",
					batch, image, tc.committed)
			}

			c.RestartSite("NY")
			if err := c.Site("NY").RecoverError(); err != nil {
				t.Fatal(err)
			}
			moved := metric.Value(0)
			if tc.committed {
				moved = amount
			}
			waitFor(t, "the chain to settle", func() bool {
				return c.Site("CHI").Store.Get("chi:C") == 10000+moved
			})
			waitIdle(t, c)
			for key, want := range map[storage.Key]metric.Value{
				"ny:A": 10000 - moved, "la:B": 10000, "chi:C": 10000 + moved,
			} {
				if got := c.Site(c.placement(key)).Store.Get(key); got != want {
					t.Errorf("%s = %d, want %d", key, got, want)
				}
			}
		})
	}
}
