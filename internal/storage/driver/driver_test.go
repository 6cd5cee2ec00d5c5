package driver

import (
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/storage/wal"
)

func init() { queue.RegisterPayloadType(testPayload{}) }

type testPayload struct {
	N int
}

func openDisk(t *testing.T, dir string, opts ...func(*Params)) Backend {
	t.Helper()
	p := Params{Dir: dir, SyncEvery: 200 * time.Microsecond, SegmentBytes: 4 << 10}
	for _, o := range opts {
		o(&p)
	}
	d, err := New("disk", p)
	if err != nil {
		t.Fatal(err)
	}
	be, err := d.Open("NY", map[storage.Key]metric.Value{"a": 100, "b": 50})
	if err != nil {
		t.Fatal(err)
	}
	return be
}

func TestRegistryKnowsBuiltins(t *testing.T) {
	for _, name := range []string{"mem", "disk"} {
		d, err := New(name, Params{Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if d.Name() != name {
			t.Errorf("Name() = %q, want %q", d.Name(), name)
		}
	}
	if _, err := New("bogus", Params{}); err == nil {
		t.Error("unknown driver did not error")
	}
	if _, err := New("disk", Params{}); err == nil {
		t.Error("disk driver without Dir did not error")
	}
}

func TestDiskSeedAndReopen(t *testing.T) {
	dir := t.TempDir()
	be := openDisk(t, dir)
	st := be.Store()
	if st.Get("a") != 100 || st.Get("b") != 50 {
		t.Fatalf("seed: a=%d b=%d", st.Get("a"), st.Get("b"))
	}
	if err := st.Apply([]storage.Write{{Key: "a", Value: 75}, {Key: "c", Value: 25}}); err != nil {
		t.Fatal(err)
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the durable image wins, init is ignored.
	d, err := New("disk", Params{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	be2, err := d.Open("NY", map[storage.Key]metric.Value{"a": 1})
	if err != nil {
		t.Fatal(err)
	}
	defer be2.Close()
	st2 := be2.Store()
	if st2.Get("a") != 75 || st2.Get("b") != 50 || st2.Get("c") != 25 {
		t.Errorf("reopened: a=%d b=%d c=%d", st2.Get("a"), st2.Get("b"), st2.Get("c"))
	}
	// LSNs must continue, not restart.
	if err := st2.Apply([]storage.Write{{Key: "d", Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if st2.LastLSN() != 3 {
		t.Errorf("LastLSN after reopen+apply = %d, want 3", st2.LastLSN())
	}
}

func TestDiskRecoverDropsUnloggedState(t *testing.T) {
	dir := t.TempDir()
	be := openDisk(t, dir)
	st := be.Store()
	if err := st.Apply([]storage.Write{{Key: "a", Value: 75}}); err != nil {
		t.Fatal(err)
	}
	// Dirty, uncommitted writes (an in-flight transaction's Set calls).
	st.Set("a", 1)
	st.Set("ghost", 9)

	rec, err := be.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if rec.Get("a") != 75 || rec.Has("ghost") {
		t.Errorf("recovered: a=%d ghost=%v", rec.Get("a"), rec.Has("ghost"))
	}
	// The recovered store keeps committing to the same log.
	if err := rec.Apply([]storage.Write{{Key: "post", Value: 1}}); err != nil {
		t.Fatal(err)
	}
	rec2, err := be.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Get("post") != 1 {
		t.Error("write after recovery did not survive a second recovery")
	}
}

func TestDiskQueueStateRoundTrip(t *testing.T) {
	be := openDisk(t, t.TempDir())
	qs := queue.State{
		NextSeq: map[simnet.SiteID]uint64{"LA": 3},
		Outbox: map[string]queue.OutboxMsg{
			"NY>LA-3": {Msg: queue.Msg{ID: "NY>LA-3", Seq: 3, From: "NY", Queue: "pieces", Payload: testPayload{N: 7}}, To: "LA"},
		},
		Queues:   map[string][]queue.Msg{"pieces": {{ID: "LA>NY-1", Seq: 1, From: "LA", Queue: "pieces", Payload: testPayload{N: 1}}}},
		Inflight: map[string]queue.Msg{},
		Seen:     map[simnet.SiteID]queue.SeenState{"LA": {Prefix: 1, Sparse: []uint64{4}}},
	}
	if err := be.SaveQueues(qs); err != nil {
		t.Fatal(err)
	}
	got, ok, err := reopen(t, be).LoadQueues()
	if err != nil || !ok {
		t.Fatalf("LoadQueues ok=%v err=%v", ok, err)
	}
	if got.NextSeq["LA"] != 3 || got.Seen["LA"].Prefix != 1 || len(got.Queues["pieces"]) != 1 {
		t.Errorf("queue state = %+v", got)
	}
	if p, _ := got.Queues["pieces"][0].Payload.(testPayload); p.N != 1 {
		t.Errorf("payload = %+v", got.Queues["pieces"][0].Payload)
	}
}

func TestDiskQueueStateEmptyWatermark(t *testing.T) {
	be := openDisk(t, t.TempDir())
	if err := be.SaveQueues(queue.State{}); err != nil {
		t.Fatal(err)
	}
	got, ok, err := reopen(t, be).LoadQueues()
	if err != nil || !ok {
		t.Fatalf("empty state: ok=%v err=%v", ok, err)
	}
	if len(got.Outbox) != 0 || len(got.Seen) != 0 {
		t.Errorf("empty state round trip = %+v", got)
	}
}

func TestDiskCheckpointTruncatesAndRecovers(t *testing.T) {
	be := openDisk(t, t.TempDir(), func(p *Params) { p.SegmentBytes = 512 })
	st := be.Store()
	for i := 0; i < 200; i++ {
		if err := st.Apply([]storage.Write{{Key: "hot-key-with-length", Value: metric.Value(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := be.SaveQueues(queue.State{NextSeq: map[simnet.SiteID]uint64{"LA": 9}}); err != nil {
		t.Fatal(err)
	}
	if err := be.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := st.Snapshot()
	be2 := reopen(t, be)
	if got := be2.Store().Snapshot(); !maps.Equal(got, want) {
		t.Errorf("post-checkpoint recovery: %v, want %v", got, want)
	}
	qs, ok, err := be2.LoadQueues()
	if err != nil || !ok || qs.NextSeq["LA"] != 9 {
		t.Errorf("queue state after checkpoint: ok=%v err=%v st=%+v", ok, err, qs)
	}
}

func TestDiskCrashHookTearsRecord(t *testing.T) {
	armed, fired := false, false
	be := openDisk(t, t.TempDir(), func(p *Params) {
		p.Hook = func(site string, pt wal.CrashPoint) wal.Action {
			if armed && pt == wal.PointAppend && !fired {
				fired = true
				return wal.ActTorn
			}
			return wal.ActContinue
		}
	})
	st := be.Store()
	armed = true // the seed apply above already passed through the hook
	err := st.Apply([]storage.Write{{Key: "torn", Value: 1}})
	if err == nil {
		t.Fatal("torn append did not error")
	}
	if reopen(t, be).Store().Has("torn") {
		t.Error("torn record resurrected on recovery")
	}
}

func TestMemAndDiskProduceIdenticalState(t *testing.T) {
	// The same deterministic batch sequence through both drivers must
	// leave identical stores — the acceptance check at the storage layer
	// (the experiments package repeats it through the full site pipeline)
	// — and the disk one must still match after a file-level recovery.
	snaps := map[string]map[storage.Key]metric.Value{}
	for name, be := range openBoth(t) {
		st := be.Store()
		for i := 0; i < 50; i++ {
			if err := st.Apply([]storage.Write{
				{Key: storage.Key("k" + string(rune('a'+i%7))), Value: metric.Value(i * 3)},
				{Key: "counter", Value: metric.Value(i)},
			}); err != nil {
				t.Fatal(err)
			}
		}
		snaps[name] = st.Snapshot()
		if name == "disk" {
			rec, err := be.Recover()
			if err != nil {
				t.Fatal(err)
			}
			snaps["disk recovered"] = rec.Snapshot()
		}
	}
	for name, snap := range snaps {
		if !maps.Equal(snap, snaps["mem"]) {
			t.Errorf("%s: %v, mem: %v", name, snap, snaps["mem"])
		}
	}
}

// versioned is a queue image told apart by its NextSeq entry.
func versioned(version, mark uint64) queue.State {
	return queue.State{Version: version, NextSeq: map[simnet.SiteID]uint64{"LA": mark}}
}

// TestSaveQueuesKeepsHighestVersion: snapshots race each other to the
// backend outside the queue manager's mutex, so an older image can
// arrive after a newer one. Neither backend may let it win — not in
// LoadQueues, and not in what a recovery from the files finds.
func TestSaveQueuesKeepsHighestVersion(t *testing.T) {
	backends := openBoth(t)
	for name, be := range backends {
		for _, st := range []queue.State{versioned(1, 10), versioned(3, 30), versioned(2, 20)} {
			if err := be.SaveQueues(st); err != nil {
				t.Fatalf("%s: SaveQueues(v%d): %v", name, st.Version, err)
			}
		}
		got, ok, err := be.LoadQueues()
		if err != nil || !ok || got.Version != 3 || got.NextSeq["LA"] != 30 {
			t.Errorf("%s: LoadQueues = v%d %v (ok=%v err=%v), want the version-3 image", name, got.Version, got.NextSeq, ok, err)
		}
	}

	disk := backends["disk"]
	if _, err := disk.Recover(); err != nil {
		t.Fatal(err)
	}
	got, ok, err := disk.LoadQueues()
	if err != nil || !ok || got.Version != 3 || got.NextSeq["LA"] != 30 {
		t.Errorf("after Recover: v%d %v (ok=%v err=%v), want the version-3 image", got.Version, got.NextSeq, ok, err)
	}
	// The recovered backend still refuses what the files already beat,
	// and a process restart reads the same image.
	if err := disk.SaveQueues(versioned(2, 20)); err != nil {
		t.Fatal(err)
	}
	got, ok, err = reopen(t, disk).LoadQueues()
	if err != nil || !ok || got.Version != 3 || got.NextSeq["LA"] != 30 {
		t.Errorf("after reopen: v%d %v (ok=%v err=%v), want the version-3 image", got.Version, got.NextSeq, ok, err)
	}
}

// TestSaveQueuesLoserWaitsForNewerImage: the caller whose image lost the
// race is told "durable" only once the newer image is, and is told the
// newer image's error if that append fails.
func TestSaveQueuesLoserWaitsForNewerImage(t *testing.T) {
	for _, act := range []wal.Action{wal.ActContinue, wal.ActCrash} {
		entered, release := make(chan struct{}), make(chan struct{})
		armed := false
		be := openDisk(t, t.TempDir(), func(p *Params) {
			p.Hook = func(site string, pt wal.CrashPoint) wal.Action {
				if armed && pt == wal.PointAppend {
					armed = false
					close(entered)
					<-release
					return act
				}
				return wal.ActContinue
			}
		})
		armed = true // the seed apply already passed through the hook
		newer, older := make(chan error, 1), make(chan error, 1)
		go func() { newer <- be.SaveQueues(versioned(2, 20)) }()
		<-entered
		go func() { older <- be.SaveQueues(versioned(1, 10)) }()
		select {
		case err := <-older:
			t.Fatalf("action %v: the older image's save returned (%v) before the newer image was durable", act, err)
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		errNewer, errOlder := <-newer, <-older
		if failed := act == wal.ActCrash; (errNewer != nil) != failed || (errOlder != nil) != failed {
			t.Errorf("action %v: newer err %v, older err %v", act, errNewer, errOlder)
		}
		be.Close()
	}
}

// TestSaveQueuesConcurrentSaversKeepNewest races many savers, as the
// receive barrier and the piece workers do: whatever order they reach
// the backend in, the newest image is the one held and the one replayed.
func TestSaveQueuesConcurrentSaversKeepNewest(t *testing.T) {
	be := openDisk(t, t.TempDir())
	defer be.Close()
	const n = 32
	var wg sync.WaitGroup
	for v := uint64(1); v <= n; v++ {
		wg.Add(1)
		go func(v uint64) {
			defer wg.Done()
			if err := be.SaveQueues(versioned(v, v)); err != nil {
				t.Errorf("SaveQueues(v%d): %v", v, err)
			}
		}(v)
	}
	wg.Wait()
	for _, stage := range []string{"live", "recovered"} {
		got, ok, err := be.LoadQueues()
		if err != nil || !ok || got.Version != n || got.NextSeq["LA"] != n {
			t.Errorf("%s: v%d %v (ok=%v err=%v), want version %d", stage, got.Version, got.NextSeq, ok, err, n)
		}
		if _, err := be.Recover(); err != nil {
			t.Fatal(err)
		}
	}
}

// syncObs is a driver Observer counting the records fsyncs covered.
type syncObs struct {
	mu      sync.Mutex
	records int
}

func (o *syncObs) WALSynced(site string, records int) {
	o.mu.Lock()
	o.records += records
	o.mu.Unlock()
}
func (o *syncObs) Recovered(string, int, int64) {}
func (o *syncObs) Checkpointed(string, int)     {}

func (o *syncObs) synced() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.records
}

// TestDiskSeedDurableWithoutClose: no queue image follows the seed batch,
// so Open itself waits for it. A backend reopened from the directory
// straight after Open, with no Close, still holds the seed.
func TestDiskSeedDurableWithoutClose(t *testing.T) {
	dir := t.TempDir()
	obs := &syncObs{}
	be := openDisk(t, dir, func(p *Params) { p.Obs = obs })
	defer be.Close()
	if got := obs.synced(); got != 1 {
		t.Fatalf("fsyncs covered %d records when Open returned, want the seed batch", got)
	}
	d, err := New("disk", Params{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := d.Open("NY", map[storage.Key]metric.Value{"a": 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if st := reopened.Store(); st.Get("a") != 100 || st.Get("b") != 50 {
		t.Errorf("reopened without Close: a=%d b=%d, want the seed 100 and 50", st.Get("a"), st.Get("b"))
	}
}

// TestDiskCommitRidesTheNextSync: Apply writes its batch to the log
// without an fsync; the store's Sync, or the fsync of any record written
// after it, makes it durable.
func TestDiskCommitRidesTheNextSync(t *testing.T) {
	obs := &syncObs{}
	be := openDisk(t, t.TempDir(), func(p *Params) { p.Obs = obs })
	defer be.Close()
	st := be.Store()
	seed := obs.synced()
	if err := st.Apply([]storage.Write{{Key: "a", Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := obs.synced(); got != seed {
		t.Fatalf("Apply fsynced %d records, want none", got-seed)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := obs.synced(); got != seed+1 {
		t.Fatalf("Sync covered %d records, want the one batch", got-seed)
	}
	if err := st.Apply([]storage.Write{{Key: "b", Value: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := be.SaveQueues(versioned(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := obs.synced(); got != seed+3 {
		t.Errorf("the image's fsync covered %d records, want the batch before it and the image", got-seed-1)
	}
}

// openBoth opens the NY site on each driver, seeded as openDisk seeds it.
func openBoth(t *testing.T, opts ...func(*Params)) map[string]Backend {
	t.Helper()
	md, err := New("mem", Params{})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := md.Open("NY", map[storage.Key]metric.Value{"a": 100, "b": 50})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{"mem": mb, "disk": openDisk(t, t.TempDir(), opts...)}
}

// reopen closes a disk backend, which may be crash-wedged, and opens its
// directory afresh, as a process restart would.
func reopen(t *testing.T, be Backend) Backend {
	t.Helper()
	dir := be.(*diskBackend).dir
	_ = be.Close()
	d, err := New("disk", Params{Dir: filepath.Dir(dir)})
	if err != nil {
		t.Fatal(err)
	}
	be, err = d.Open(filepath.Base(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { be.Close() })
	return be
}

// TestImageCutWaitsForGaps: batches on disjoint keys reach the image out
// of LSN order; its cut passes an LSN only once every batch at or below
// it has arrived, and a snapshot is a copy.
func TestImageCutWaitsForGaps(t *testing.T) {
	im := imageOf(storage.NewFrom(map[storage.Key]metric.Value{"a": 1}))
	commit := func(lsn uint64, k storage.Key, v metric.Value) {
		im.commit(storage.Batch{LSN: lsn, Writes: []storage.Write{{Key: k, Value: v}}})
	}
	commit(3, "c", 3)
	commit(5, "e", 5)
	if state, cut := im.snapshot(); cut != 1 || state["c"] != 3 || state["e"] != 5 {
		t.Fatalf("after 3 and 5: cut %d, state %v; want cut 1 holding both", cut, state)
	}
	commit(2, "b", 2)
	if _, cut := im.snapshot(); cut != 3 {
		t.Fatalf("after 2: cut %d, want 3", cut)
	}
	commit(4, "a", 4)
	state, cut := im.snapshot()
	if cut != 5 || len(im.ahead) != 0 {
		t.Fatalf("after 4: cut %d, %d batches still ahead; want cut 5, none", cut, len(im.ahead))
	}
	state["a"] = 99
	if got, _ := im.snapshot(); got["a"] != 4 {
		t.Errorf("snapshot aliases the image: a = %d", got["a"])
	}
}

// TestDiskCheckpointSkipsInFlightWrites: a checkpoint writes the
// committed image, not the live cells, so an in-flight write-through
// value an abort later undoes (by a Set, which logs nothing) is never
// made durable.
func TestDiskCheckpointSkipsInFlightWrites(t *testing.T) {
	be := openDisk(t, t.TempDir())
	st := be.Store()
	st.Set("a", 999) // an in-flight piece's write-through
	if err := be.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Set("a", 100) // its abort
	rec, err := be.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Get("a"); got != 100 {
		t.Errorf("recovered a = %d, want the committed 100", got)
	}
	if got := reopen(t, be).Store().Get("a"); got != 100 {
		t.Errorf("reopened a = %d, want the committed 100", got)
	}
}

// TestCheckpointNoop: on both drivers, checkpoints of a fresh image,
// back to back, change nothing: a recovery reproduces the seed, and the
// first batch after them takes the LSN after the seed's.
func TestCheckpointNoop(t *testing.T) {
	for name, be := range openBoth(t) {
		want := be.Store().Snapshot()
		for i := 0; i < 2; i++ {
			if err := be.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := be.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Snapshot(); !maps.Equal(got, want) {
			t.Fatalf("%s: recovered %v, want the seed %v", name, got, want)
		}
		if err := rec.Apply([]storage.Write{{Key: "a", Value: 1}}); err != nil {
			t.Fatal(err)
		}
		if got := rec.LastLSN(); got != 2 {
			t.Errorf("%s: first LSN after the seed = %d, want 2", name, got)
		}
	}
}

// TestCheckpointPreservesRecovery: on both drivers, a checkpoint — mid-run
// or after the last batch — changes neither the state a recovery
// reproduces nor the LSNs that follow it.
func TestCheckpointPreservesRecovery(t *testing.T) {
	for name, be := range openBoth(t, func(p *Params) { p.SegmentBytes = 512 }) {
		st := be.Store()
		for i := 1; i <= 20; i++ {
			k := storage.Key(fmt.Sprintf("k%d", i%5))
			if err := st.Apply([]storage.Write{{Key: k, Value: metric.Value(i)}}); err != nil {
				t.Fatal(err)
			}
			if i == 12 {
				if err := be.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := st.Snapshot()
		if err := be.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		rec, err := be.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Snapshot(); !maps.Equal(got, want) {
			t.Fatalf("%s: recovered %v, want %v", name, got, want)
		}
		// LSNs keep ascending: the seed took 1, the batches 2..21.
		if err := rec.Apply([]storage.Write{{Key: "k0", Value: 99}}); err != nil {
			t.Fatal(err)
		}
		if got := rec.LastLSN(); got != 22 {
			t.Errorf("%s: post-checkpoint LSN = %d, want 22", name, got)
		}
		if name == "disk" {
			want["k0"] = 99
			if got := reopen(t, be).Store().Snapshot(); !maps.Equal(got, want) {
				t.Errorf("reopened %v, want %v", got, want)
			}
		}
	}
}

// TestCheckpointConcurrentWithApply races commits on disjoint keys, which
// reach the image out of LSN order, against back-to-back checkpoints that
// prune the log behind them. Each writer cycles over its own keys, so
// the last write to a key lands while checkpoints run. No batch may be
// lost and none may replay out of its key's order: what a recovery, and
// on disk a reopen from the files, holds is every key's last write.
func TestCheckpointConcurrentWithApply(t *testing.T) {
	const writers, keysPer, minWrites, minCheckpoints = 4, 16, 160, 4
	for name, be := range openBoth(t, func(p *Params) { p.SegmentBytes = 1 << 10 }) {
		st := be.Store()
		var ckpts atomic.Int64
		stop := make(chan struct{})
		ckptDone := make(chan struct{})
		go func() {
			defer close(ckptDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := be.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
				ckpts.Add(1)
			}
		}()
		want := map[storage.Key]metric.Value{"a": 100, "b": 50}
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				last := map[storage.Key]metric.Value{}
				for i := 0; i < minWrites || ckpts.Load() < minCheckpoints; i++ {
					k := storage.Key(fmt.Sprintf("w%d/%d", w, i%keysPer))
					v := metric.Value(i)
					if err := st.Apply([]storage.Write{{Key: k, Value: v}, {Key: k + "/neg", Value: -v}}); err != nil {
						t.Error(err)
						return
					}
					last[k], last[k+"/neg"] = v, -v
					if i%8 == 0 {
						runtime.Gosched()
					}
				}
				mu.Lock()
				maps.Copy(want, last)
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		close(stop)
		<-ckptDone
		if got := st.Snapshot(); !maps.Equal(got, want) {
			t.Fatalf("%s: live state %v, want %v", name, got, want)
		}
		rec, err := be.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Snapshot(); !maps.Equal(got, want) {
			t.Errorf("%s: recovered %v, want %v", name, got, want)
		}
		if name == "disk" {
			if got := reopen(t, be).Store().Snapshot(); !maps.Equal(got, want) {
				t.Errorf("reopened %v, want %v", got, want)
			}
		}
	}
}
