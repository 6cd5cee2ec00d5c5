package storage

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"asynctp/internal/metric"
)

func TestGetMissingKeyIsZero(t *testing.T) {
	s := New()
	if got := s.Get("nope"); got != 0 {
		t.Errorf("Get(missing) = %d, want 0", got)
	}
	if s.Has("nope") {
		t.Error("Has(missing) = true")
	}
}

func TestSetGet(t *testing.T) {
	s := New()
	s.Set("x", 100)
	if got := s.Get("x"); got != 100 {
		t.Errorf("Get(x) = %d, want 100", got)
	}
	if !s.Has("x") {
		t.Error("Has(x) = false after Set")
	}
	s.Set("x", -7)
	if got := s.Get("x"); got != -7 {
		t.Errorf("Get(x) = %d after overwrite, want -7", got)
	}
}

// TestNewFromSeedsAndJournals: the seed is one batch, LSN 1, so the
// first batch a sink installed afterwards sees is LSN 2.
func TestNewFromSeedsAndJournals(t *testing.T) {
	s := NewFrom(map[Key]metric.Value{"a": 1, "b": 2})
	if s.Get("a") != 1 || s.Get("b") != 2 {
		t.Errorf("seeded values wrong: a=%d b=%d", s.Get("a"), s.Get("b"))
	}
	if got := s.LastLSN(); got != 1 {
		t.Errorf("LastLSN after seed = %d, want 1", got)
	}
	sink := &recordingSink{}
	s.SetSink(sink)
	must(t, s.Apply([]Write{{Key: "a", Value: 3}}))
	if len(sink.entries) != 1 || sink.entries[0].LSN != 2 {
		t.Errorf("sink after seed saw %+v, want one batch at LSN 2", sink.entries)
	}
	if e := NewFrom(nil); e.Len() != 0 || e.LastLSN() != 0 {
		t.Errorf("NewFrom(nil): %d keys, LSN %d; want empty at 0", e.Len(), e.LastLSN())
	}
}

func TestApplyAtomicBatch(t *testing.T) {
	s := New()
	if err := s.Apply([]Write{{Key: "x", Value: 5}, {Key: "y", Value: 6}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if s.Get("x") != 5 || s.Get("y") != 6 {
		t.Errorf("post-Apply state: x=%d y=%d", s.Get("x"), s.Get("y"))
	}
	if err := s.Apply(nil); err != nil {
		t.Fatalf("Apply(nil): %v", err)
	}
	if got := s.LastLSN(); got != 1 {
		t.Errorf("empty Apply took an LSN: LastLSN = %d, want 1", got)
	}
}

// TestApplyCopiesBatch: the cells take copies of the batch's values, so
// the caller may reuse its slice once Apply returns.
func TestApplyCopiesBatch(t *testing.T) {
	s := New()
	batch := []Write{{Key: "x", Value: 1}}
	if err := s.Apply(batch); err != nil {
		t.Fatal(err)
	}
	batch[0].Value = 999
	if got := s.Get("x"); got != 1 {
		t.Errorf("cell aliases caller batch: %d", got)
	}
}

// TestJournalLSNsAreDense: the LSNs a sink sees are ascending per Apply
// on one goroutine and, across concurrent Applies, exactly 1..n.
func TestJournalLSNsAreDense(t *testing.T) {
	sink := &recordingSink{}
	s := New()
	s.SetSink(sink)
	for i := 0; i < 5; i++ {
		must(t, s.Apply([]Write{{Key: "k", Value: metric.Value(i)}}))
	}
	for i, e := range sink.entries {
		if e.LSN != uint64(i+1) {
			t.Errorf("batch %d has LSN %d", i, e.LSN)
		}
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(k Key) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.Apply([]Write{{Key: k, Value: metric.Value(i)}}); err != nil {
					t.Error(err)
				}
			}
		}(Key(rune('a' + w)))
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, e := range sink.entries {
		seen[e.LSN] = true
	}
	for lsn := uint64(1); lsn <= 5+writers*per; lsn++ {
		if !seen[lsn] {
			t.Fatalf("no batch took LSN %d", lsn)
		}
	}
	if len(sink.entries) != 5+writers*per {
		t.Errorf("sink saw %d batches, want %d", len(sink.entries), 5+writers*per)
	}
}

func TestKeysSorted(t *testing.T) {
	s := NewFrom(map[Key]metric.Value{"c": 1, "a": 2, "b": 3})
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Errorf("Keys = %v", keys)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := NewFrom(map[Key]metric.Value{"x": 10})
	snap := s.Snapshot()
	s.Set("x", 20)
	if snap["x"] != 10 {
		t.Errorf("snapshot mutated: %d", snap["x"])
	}
	snap["x"] = 99
	if s.Get("x") != 20 {
		t.Errorf("store mutated through snapshot: %d", s.Get("x"))
	}
}

func TestRestore(t *testing.T) {
	s := NewFrom(map[Key]metric.Value{"x": 1, "y": 2})
	s.Restore(map[Key]metric.Value{"z": 3})
	if s.Len() != 1 || s.Get("z") != 3 || s.Has("x") {
		t.Errorf("Restore failed: len=%d z=%d", s.Len(), s.Get("z"))
	}
}

func TestSums(t *testing.T) {
	s := NewFrom(map[Key]metric.Value{"x": 10, "y": -3, "z": 5})
	if got := s.Sum([]Key{"x", "y"}); got != 7 {
		t.Errorf("Sum(x,y) = %d, want 7", got)
	}
	if got := s.Sum([]Key{"x", "missing"}); got != 10 {
		t.Errorf("Sum with missing = %d, want 10", got)
	}
	if got := s.SumAll(); got != 12 {
		t.Errorf("SumAll = %d, want 12", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			k := Key(rune('a' + id))
			for j := 0; j < 200; j++ {
				s.Set(k, metric.Value(j))
				_ = s.Get(k)
				_ = s.SumAll()
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Errorf("Len = %d, want 8", s.Len())
	}
	for i := 0; i < 8; i++ {
		if got := s.Get(Key(rune('a' + i))); got != 199 {
			t.Errorf("key %c = %d, want 199", 'a'+i, got)
		}
	}
}

func TestRestoreKeepsLSNMonotonic(t *testing.T) {
	s := NewFrom(map[Key]metric.Value{"x": 1})
	if err := s.Apply([]Write{{Key: "x", Value: 2}}); err != nil {
		t.Fatal(err)
	}
	cut := s.LastLSN()
	sink := &recordingSink{}
	s.SetSink(sink)
	s.Restore(s.Snapshot())
	if got := s.LastLSN(); got != cut {
		t.Fatalf("Restore moved the LSN counter: %d, want %d", got, cut)
	}
	if err := s.Apply([]Write{{Key: "y", Value: 3}}); err != nil {
		t.Fatal(err)
	}
	if len(sink.entries) != 1 || sink.entries[0].LSN != cut+1 {
		t.Errorf("batch after restore = %+v, want LSN %d", sink.entries, cut+1)
	}
}

// recordingSink keeps a copy of every batch it is handed: Commit must not
// retain the caller's slice.
type recordingSink struct {
	mu      sync.Mutex
	entries []Batch
	fail    error
}

func (r *recordingSink) Commit(b Batch) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail != nil {
		return r.fail
	}
	r.entries = append(r.entries, Batch{LSN: b.LSN, Writes: slices.Clone(b.Writes)})
	return nil
}

func (r *recordingSink) Sync() error { return nil }

func TestCommitSinkSeesEveryBatch(t *testing.T) {
	sink := &recordingSink{}
	s := New()
	s.SetSink(sink)
	for i := 1; i <= 5; i++ {
		if err := s.Apply([]Write{{Key: "x", Value: metric.Value(i)}, {Key: "y", Value: metric.Value(-i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.applyStampedKeys([]Write{{Key: "z", Value: 6}}, 9); err != nil {
		t.Fatal(err)
	}
	if len(sink.entries) != 6 {
		t.Fatalf("sink saw %d batches, want 6", len(sink.entries))
	}
	for i, e := range sink.entries[:5] {
		want := Batch{LSN: uint64(i + 1), Writes: []Write{{Key: "x", Value: metric.Value(i + 1)}, {Key: "y", Value: metric.Value(-i - 1)}}}
		if !reflect.DeepEqual(e, want) {
			t.Errorf("sink batch %d = %+v, want %+v", i, e, want)
		}
	}
	if e := sink.entries[5]; e.LSN != 6 || !reflect.DeepEqual(e.Writes, []Write{{Key: "z", Value: 6}}) {
		t.Errorf("stamped batch = %+v, want LSN 6 writing z=6", e)
	}
}

func TestCommitSinkErrorPropagates(t *testing.T) {
	sink := &recordingSink{fail: errSinkDown}
	s := New()
	s.SetSink(sink)
	if err := s.Apply([]Write{{Key: "x", Value: 1}}); err != errSinkDown {
		t.Errorf("Apply error = %v, want sink error", err)
	}
}

var errSinkDown = errors.New("sink down")

// TestApplyHeapStaysFlat: a store keeps one cell per key and no history,
// so a long run of commits leaves its live heap where it started.
func TestApplyHeapStaysFlat(t *testing.T) {
	s := NewFrom(map[Key]metric.Value{"a": 0, "b": 0})
	batch := []Write{{Key: "a"}, {Key: "b"}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 60000; i++ {
		batch[0].Value, batch[1].Value = metric.Value(i), metric.Value(-i)
		must(t, s.Apply(batch))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 256<<10 {
		t.Errorf("60000 Applies grew the live heap by %d bytes, want < 256 KiB", grew)
	}
}

// TestApplyAllocs: without a sink, an Apply to existing keys allocates
// nothing.
func TestApplyAllocs(t *testing.T) {
	s := NewFrom(map[Key]metric.Value{"a": 0, "b": 0})
	batch := []Write{{Key: "a", Value: 1}, {Key: "b", Value: -1}}
	if allocs := testing.AllocsPerRun(1000, func() { must(t, s.Apply(batch)) }); allocs != 0 {
		t.Errorf("Apply: %.1f allocs, want 0", allocs)
	}
}
