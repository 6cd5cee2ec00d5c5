package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(BatchRecord(1, []KV{{Key: "x", Val: 10}, {Key: "y", Val: -3}})); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(AuxRecord(1, "queues", []byte("blob-1"))); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(BatchRecord(2, []KV{{Key: "x", Val: 11}})); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(AuxRecord(2, "queues", []byte("blob-2"))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 2 || res.Batches[0].LSN != 1 || res.Batches[1].LSN != 2 {
		t.Fatalf("batches = %+v", res.Batches)
	}
	if got := res.Batches[0].Writes; len(got) != 2 || got[0] != (KV{"x", 10}) || got[1] != (KV{"y", -3}) {
		t.Errorf("batch 1 writes = %+v", got)
	}
	if aux := res.Aux["queues"]; string(aux.Data) != "blob-2" || aux.Seq != 2 {
		t.Errorf("aux = %+v, want newest blob", aux)
	}
	if res.TornBytes != 0 {
		t.Errorf("torn bytes = %d on a clean log", res.TornBytes)
	}
}

func TestReplayTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(BatchRecord(1, []KV{{Key: "a", Val: 1}})); err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, w.index)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn tail: append half of a valid frame.
	frame := encodeFrame(encodePayload(BatchRecord(2, []KV{{Key: "b", Val: 2}})))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	res, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 1 || res.Batches[0].LSN != 1 {
		t.Fatalf("batches after torn tail = %+v, want only LSN 1", res.Batches)
	}
	if res.TornBytes != int64(len(frame)/2) {
		t.Errorf("torn bytes = %d, want %d", res.TornBytes, len(frame)/2)
	}
}

func TestReplayContinuesPastTornSealedSegment(t *testing.T) {
	// A crash leaves a torn tail in the then-active segment; the restarted
	// writer appends to a fresh segment. Replay must drop only the torn
	// record and still read the newer segment.
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(BatchRecord(1, []KV{{Key: "a", Val: 1}})); err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, w.index)
	w.Close()
	frame := encodeFrame(encodePayload(BatchRecord(2, []KV{{Key: "lost", Val: 9}})))
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write(frame[:len(frame)-3])
	f.Close()

	w2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(BatchRecord(3, []KV{{Key: "c", Val: 3}})); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	res, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 2 || res.Batches[0].LSN != 1 || res.Batches[1].LSN != 3 {
		t.Fatalf("batches = %+v, want LSNs 1 and 3", res.Batches)
	}
}

func TestGroupCommitManyAppenders(t *testing.T) {
	dir := t.TempDir()
	syncs := 0
	var mu sync.Mutex
	w, err := Open(dir,
		WithGroupCommit(2*time.Millisecond, 64),
		WithSyncObserver(func(n int) {
			mu.Lock()
			syncs++
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Append(BatchRecord(uint64(i+1), []KV{{Key: "k", Val: int64(i)}}))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	w.Close()
	mu.Lock()
	if syncs >= n {
		t.Errorf("group commit did %d fsyncs for %d appends; expected batching", syncs, n)
	}
	mu.Unlock()
	res, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != n {
		t.Errorf("replayed %d batches, want %d", len(res.Batches), n)
	}
}

func TestSegmentRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, WithSegmentBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if err := w.Append(BatchRecord(uint64(i), []KV{{Key: "key-with-some-length", Val: int64(i)}})); err != nil {
			t.Fatal(err)
		}
	}
	sealed, _ := w.SegmentCount()
	if sealed < 2 {
		t.Fatalf("sealed segments = %d, want rotation to have happened", sealed)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	removed, err := w.PruneTo(20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Error("prune removed nothing despite covered segments")
	}
	res, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Batches {
		if b.LSN > 20 {
			continue
		}
	}
	// Every surviving batch above the prune point must still be present.
	seen := map[uint64]bool{}
	for _, b := range res.Batches {
		seen[b.LSN] = true
	}
	for lsn := uint64(21); lsn <= 40; lsn++ {
		if !seen[lsn] {
			t.Errorf("batch LSN %d lost by pruning", lsn)
		}
	}
	w.Close()
}

func TestPruneRespectsAuxSeq(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, WithSegmentBytes(1)) // rotate on every append
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(BatchRecord(1, []KV{{Key: "a", Val: 1}})); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(AuxRecord(5, "queues", []byte("newest"))); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	// Snapshot covers LSN 1 but only aux seq 4: the aux segment must stay.
	if _, err := w.PruneTo(1, 4); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Aux["queues"].Data) != "newest" {
		t.Error("pruning dropped an aux record newer than the snapshot's aux cut")
	}
	w.Close()
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := Snapshot{
		LSN:    42,
		AuxSeq: 7,
		State:  map[string]int64{"x": 10, "__applied/3/0": 1},
		Aux:    map[string][]byte{"queues": []byte("qstate")},
	}
	if err := WriteSnapshot(dir, snap, nil); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot ok=%v err=%v", ok, err)
	}
	if got.LSN != 42 || got.AuxSeq != 7 || got.State["x"] != 10 || string(got.Aux["queues"]) != "qstate" {
		t.Errorf("snapshot round trip = %+v", got)
	}
}

func TestLoadSnapshotIgnoresCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, Snapshot{LSN: 1, State: map[string]int64{"x": 1}}, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := LoadSnapshot(dir); ok || err != nil {
		t.Errorf("corrupt snapshot: ok=%v err=%v, want absent", ok, err)
	}
}

// stepHook crashes (or tears) at the nth consultation of a point.
type stepHook struct {
	mu     sync.Mutex
	point  CrashPoint
	hits   int
	at     int
	action Action
	fired  bool
}

func (h *stepHook) Act(p CrashPoint) Action {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p != h.point || h.fired {
		return ActContinue
	}
	h.hits++
	if h.hits >= h.at {
		h.fired = true
		return h.action
	}
	return ActContinue
}

func TestCrashAtAppendLosesRecord(t *testing.T) {
	dir := t.TempDir()
	h := &stepHook{point: PointAppend, at: 2, action: ActCrash}
	w, err := Open(dir, WithHook(h))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(BatchRecord(1, []KV{{Key: "a", Val: 1}})); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(BatchRecord(2, []KV{{Key: "b", Val: 2}})); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append at crash point: %v, want ErrCrashed", err)
	}
	// Writer is dead from now on.
	if err := w.Append(BatchRecord(3, nil)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append after crash: %v, want sticky ErrCrashed", err)
	}
	w.Close()
	res, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 1 || res.Batches[0].LSN != 1 {
		t.Fatalf("batches = %+v, want only the pre-crash record", res.Batches)
	}
}

func TestTornInjectionLeavesTruncatedFrame(t *testing.T) {
	dir := t.TempDir()
	h := &stepHook{point: PointAppend, at: 2, action: ActTorn}
	w, err := Open(dir, WithHook(h))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(BatchRecord(1, []KV{{Key: "a", Val: 1}})); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(BatchRecord(2, []KV{{Key: "torn-away-record", Val: 2}})); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn append: %v, want ErrCrashed", err)
	}
	w.Close()
	res, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 1 {
		t.Fatalf("batches = %+v, want torn record dropped", res.Batches)
	}
	if res.TornBytes == 0 {
		t.Error("expected torn bytes on disk after torn injection")
	}
}

func TestDecodeFramesStopsAtBadCRC(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(encodeFrame(encodePayload(BatchRecord(1, []KV{{Key: "a", Val: 1}}))))
	bad := encodeFrame(encodePayload(BatchRecord(2, []KV{{Key: "b", Val: 2}})))
	bad[frameHeader] ^= 0xff // corrupt payload, CRC now wrong
	buf.Write(bad)
	buf.Write(encodeFrame(encodePayload(BatchRecord(3, []KV{{Key: "c", Val: 3}}))))

	recs, consumed := DecodeFrames(buf.Bytes())
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("recs = %+v, want decode to stop at the bad CRC", recs)
	}
	if consumed >= buf.Len() {
		t.Error("consumed past the corrupt frame")
	}
}

func TestDecodeFramesRejectsAbsurdLength(t *testing.T) {
	b := make([]byte, 64)
	binary.LittleEndian.PutUint32(b[0:4], 1<<31)
	recs, consumed := DecodeFrames(b)
	if len(recs) != 0 || consumed != 0 {
		t.Errorf("absurd length decoded: %d recs, %d consumed", len(recs), consumed)
	}
}

// syncCount is a WithSyncObserver callback counting fsyncs and the
// records they covered.
type syncCount struct {
	mu             sync.Mutex
	syncs, records int
}

func (c *syncCount) observe(records int) {
	c.mu.Lock()
	c.syncs++
	c.records += records
	c.mu.Unlock()
}

func (c *syncCount) get() (syncs, records int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncs, c.records
}

// modes are the writer's two durability modes.
var modes = map[string]Option{
	"group-commit":    WithGroupCommit(200*time.Microsecond, 0),
	"sync-per-append": WithGroupCommit(0, 0),
}

// TestWriteWaitsForNoFsync: Write puts records in the log without an
// fsync; one Wait then covers all of them with one fsync, and a second
// Wait with nothing written since costs none.
func TestWriteWaitsForNoFsync(t *testing.T) {
	for name, mode := range modes {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			sc := &syncCount{}
			w, err := Open(dir, mode, WithSyncObserver(sc.observe))
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 3; i++ {
				if err := w.Write(BatchRecord(uint64(i), []KV{{Key: "k", Val: int64(i)}})); err != nil {
					t.Fatal(err)
				}
			}
			if syncs, _ := sc.get(); syncs != 0 {
				t.Fatalf("%d fsyncs after three writes, want 0", syncs)
			}
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
			if syncs, records := sc.get(); syncs != 1 || records != 3 {
				t.Fatalf("after Wait: %d fsyncs covering %d records, want 1 covering 3", syncs, records)
			}
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
			if syncs, _ := sc.get(); syncs != 1 {
				t.Errorf("a Wait with nothing new written fsynced again (%d fsyncs)", syncs)
			}
			w.Close()
			res, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Batches) != 3 {
				t.Errorf("replayed %d batches, want 3", len(res.Batches))
			}
		})
	}
}

// TestWaitCoversWritesBeforeRotation: records written into a segment
// that has since been sealed are covered by the Wait that follows —
// rotation fsyncs the segment it seals.
func TestWaitCoversWritesBeforeRotation(t *testing.T) {
	for name, mode := range modes {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			sc := &syncCount{}
			w, err := Open(dir, mode, WithSegmentBytes(1), WithSyncObserver(sc.observe))
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 3; i++ {
				if err := w.Write(BatchRecord(uint64(i), []KV{{Key: "k", Val: int64(i)}})); err != nil {
					t.Fatal(err)
				}
			}
			if sealed, _ := w.SegmentCount(); sealed < 2 {
				t.Fatalf("sealed segments = %d, want the writes to span rotations", sealed)
			}
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
			if syncs, records := sc.get(); syncs != 1 || records != 3 {
				t.Errorf("Wait: %d fsyncs covering %d records, want 1 covering all 3", syncs, records)
			}
			w.Close()
			res, err := Replay(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Batches) != 3 {
				t.Errorf("replayed %d batches, want 3", len(res.Batches))
			}
		})
	}
}

// TestWaitReturnsStickyErrorAfterCrash: a crash at the fsync fails the
// Wait that needed it, every later Wait and Write, and an Append.
func TestWaitReturnsStickyErrorAfterCrash(t *testing.T) {
	for name, mode := range modes {
		t.Run(name, func(t *testing.T) {
			h := &stepHook{point: PointSync, at: 1, action: ActCrash}
			w, err := Open(t.TempDir(), mode, WithHook(h))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.Write(BatchRecord(1, []KV{{Key: "a", Val: 1}})); err != nil {
				t.Fatal(err)
			}
			if err := w.Wait(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Wait at the crash point: %v, want ErrCrashed", err)
			}
			if err := w.Wait(); !errors.Is(err, ErrCrashed) {
				t.Errorf("Wait after the crash: %v, want sticky ErrCrashed", err)
			}
			if err := w.Write(BatchRecord(2, nil)); !errors.Is(err, ErrCrashed) {
				t.Errorf("Write after the crash: %v, want sticky ErrCrashed", err)
			}
			if err := w.Append(BatchRecord(3, nil)); !errors.Is(err, ErrCrashed) {
				t.Errorf("Append after the crash: %v, want sticky ErrCrashed", err)
			}
		})
	}
}

// TestConcurrentWritersAndWaiters mixes non-waiting writers, waiters
// and appenders (run under -race): every record replays, and every
// fsync-covered record is counted once.
func TestConcurrentWritersAndWaiters(t *testing.T) {
	dir := t.TempDir()
	sc := &syncCount{}
	w, err := Open(dir, WithGroupCommit(200*time.Microsecond, 16), WithSyncObserver(sc.observe))
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers*each)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := BatchRecord(uint64(g*each+i+1), []KV{{Key: "k", Val: int64(i)}})
				var err error
				switch i % 3 {
				case 0:
					err = w.Append(rec)
				case 1:
					if err = w.Write(rec); err == nil {
						err = w.Wait()
					}
				default:
					err = w.Write(rec)
				}
				if err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, records := sc.get(); records != writers*each {
		t.Errorf("fsyncs covered %d records, want %d", records, writers*each)
	}
	w.Close()
	res, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != writers*each {
		t.Errorf("replayed %d batches, want %d", len(res.Batches), writers*each)
	}
}
