package storage

import (
	"errors"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

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

func TestNewFromSeedsAndJournals(t *testing.T) {
	s := NewFrom(map[Key]metric.Value{"a": 1, "b": 2})
	if s.Get("a") != 1 || s.Get("b") != 2 {
		t.Errorf("seeded values wrong: a=%d b=%d", s.Get("a"), s.Get("b"))
	}
	j := s.Journal()
	if len(j) != 1 || j[0].LSN != 1 || len(j[0].Writes) != 2 {
		t.Errorf("journal after seed = %+v", j)
	}
	if NewFrom(nil).Len() != 0 {
		t.Error("NewFrom(nil) not empty")
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
	if got := len(s.Journal()); got != 1 {
		t.Errorf("empty Apply journaled: %d entries", got)
	}
}

func TestApplyCopiesBatch(t *testing.T) {
	s := New()
	batch := []Write{{Key: "x", Value: 1}}
	if err := s.Apply(batch); err != nil {
		t.Fatal(err)
	}
	batch[0].Value = 999
	if got := s.Journal()[0].Writes[0].Value; got != 1 {
		t.Errorf("journal aliases caller batch: %d", got)
	}
}

func TestJournalLSNsAreDense(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		if err := s.Apply([]Write{{Key: "k", Value: metric.Value(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i, entry := range s.Journal() {
		if entry.LSN != uint64(i+1) {
			t.Errorf("entry %d has LSN %d", i, entry.LSN)
		}
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

func TestRecoverDropsUncommittedWrites(t *testing.T) {
	s := New()
	if err := s.Apply([]Write{{Key: "x", Value: 100}}); err != nil {
		t.Fatal(err)
	}
	// Dirty write by an in-flight transaction that never commits.
	s.Set("x", 55)
	s.Set("dirty", 1)

	r := s.Recover()
	if got := r.Get("x"); got != 100 {
		t.Errorf("recovered x = %d, want committed 100", got)
	}
	if r.Has("dirty") {
		t.Error("recovered store kept uncommitted key")
	}
	// The recovered store must keep journaling from the right LSN.
	if err := r.Apply([]Write{{Key: "x", Value: 101}}); err != nil {
		t.Fatal(err)
	}
	j := r.Journal()
	if j[len(j)-1].LSN != 2 {
		t.Errorf("post-recovery LSN = %d, want 2", j[len(j)-1].LSN)
	}
}

func TestRecoverReplayEquivalenceProperty(t *testing.T) {
	// Replaying the journal must reproduce exactly the state produced by
	// the sequence of Apply calls, for any batch sequence.
	prop := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		keys := []Key{"a", "b", "c", "d"}
		for i := 0; i < int(steps%30); i++ {
			n := rng.Intn(3) + 1
			batch := make([]Write, 0, n)
			for j := 0; j < n; j++ {
				batch = append(batch, Write{
					Key:   keys[rng.Intn(len(keys))],
					Value: metric.Value(rng.Intn(1000)),
				})
			}
			if err := s.Apply(batch); err != nil {
				return false
			}
		}
		r := s.Recover()
		want := s.Snapshot()
		got := r.Snapshot()
		if len(want) != len(got) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
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

func TestRestoreTruncatesStaleJournal(t *testing.T) {
	// Regression: Restore used to keep the journal untouched, so entries
	// with LSNs above the restored snapshot's cut survived and the next
	// CompactJournal (or Recover) folded those future writes back into
	// the old state.
	s := NewFrom(map[Key]metric.Value{"x": 1})
	if err := s.Apply([]Write{{Key: "x", Value: 2}}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot() // x=2
	if err := s.Apply([]Write{{Key: "x", Value: 9}, {Key: "leak", Value: 7}}); err != nil {
		t.Fatal(err)
	}
	s.Restore(snap)
	s.CompactJournal(s.LastLSN())
	r := s.Recover()
	if got := r.Get("x"); got != 2 {
		t.Errorf("recovered x = %d, want restored 2", got)
	}
	if r.Has("leak") {
		t.Error("recovered store resurrected a write from above the restore cut")
	}
	if got, want := r.Snapshot(), s.Snapshot(); !maps.Equal(got, want) {
		t.Errorf("Recover after Restore+Compact = %v, want %v", got, want)
	}
}

func TestRestoreKeepsLSNMonotonic(t *testing.T) {
	s := NewFrom(map[Key]metric.Value{"x": 1})
	if err := s.Apply([]Write{{Key: "x", Value: 2}}); err != nil {
		t.Fatal(err)
	}
	cut := s.LastLSN()
	s.Restore(s.Snapshot())
	if err := s.Apply([]Write{{Key: "y", Value: 3}}); err != nil {
		t.Fatal(err)
	}
	j := s.Journal()
	if len(j) != 2 || !j[0].Checkpoint {
		t.Fatalf("journal after restore = %+v, want [checkpoint, y]", j)
	}
	if j[0].LSN != cut || j[1].LSN <= cut {
		t.Errorf("LSNs not monotonic across restore: %d then %d", j[0].LSN, j[1].LSN)
	}
}

type recordingSink struct {
	mu      sync.Mutex
	entries []JournalEntry
	fail    error
}

func (r *recordingSink) Commit(e JournalEntry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail != nil {
		return r.fail
	}
	r.entries = append(r.entries, e)
	return nil
}

func (r *recordingSink) Sync() error { return nil }

func TestCommitSinkSeesEveryBatch(t *testing.T) {
	sink := &recordingSink{}
	s := New()
	s.SetSink(sink)
	for i := 1; i <= 5; i++ {
		if err := s.Apply([]Write{{Key: "x", Value: metric.Value(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.entries) != 5 {
		t.Fatalf("sink saw %d batches, want 5", len(sink.entries))
	}
	for i, e := range sink.entries {
		if e.LSN != uint64(i+1) {
			t.Errorf("sink entry %d LSN = %d, want %d", i, e.LSN, i+1)
		}
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
