package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"asynctp/internal/metric"
)

// TestVersionRules checks each writer's effect on the cell versions
// against the rules in the package doc, and on every case the invariant
// the optimistic engine relies on: a cell whose value changed never
// shows the version it had before.
func TestVersionRules(t *testing.T) {
	keys := []Key{"a", "b", "c"}
	// base holds a stamped cell (a), a raw uncommitted write (b) and an
	// unstamped seeded cell (c).
	base := func() *Store {
		s := NewFrom(map[Key]metric.Value{"a": 1, "b": 2, "c": 3})
		if err := s.applyStampedKeys([]Write{{Key: "a", Value: 10}}, 5); err != nil {
			t.Fatal(err)
		}
		s.Set("b", 20)
		return s
	}
	changeA := func(s *Store) map[Key]metric.Value {
		snap := s.Snapshot()
		snap["a"]++
		return snap
	}
	// recover is what a storage driver's Recover does to the store:
	// restore its committed image, which lacks the raw write to b.
	recover := func(s *Store) *Store {
		committed := s.Snapshot()
		committed["b"] = 2
		s.Restore(committed)
		return s
	}
	for _, tc := range []struct {
		name string
		prep func(s *Store) // before the versions are read
		op   func(s *Store) *Store
		// want lists exact versions after op; unlisted keys keep theirs.
		want map[Key]int64
		// fresh: every cell instead carries one new negative epoch.
		fresh bool
	}{
		{name: "stamped Apply sets the version",
			op: func(s *Store) *Store {
				must(t, s.applyStampedKeys([]Write{{Key: "a", Value: 11}, {Key: "c", Value: 4}}, 6))
				return s
			},
			want: map[Key]int64{"a": 6, "c": 6}},
		{name: "Set clears the version",
			op:   func(s *Store) *Store { s.Set("a", 12); return s },
			want: map[Key]int64{"a": 0}},
		{name: "unstamped Apply clears the version",
			op:   func(s *Store) *Store { must(t, s.Apply([]Write{{Key: "a", Value: 13}})); return s },
			want: map[Key]int64{"a": 0}},
		{name: "Restore stamps an epoch, changed or not",
			op:    func(s *Store) *Store { s.Restore(changeA(s)); return s },
			fresh: true},
		{name: "second Restore stamps a new epoch",
			prep:  func(s *Store) { s.Restore(s.Snapshot()) },
			op:    func(s *Store) *Store { s.Restore(s.Snapshot()); return s },
			fresh: true},
		{name: "Recover drops the raw write under a new epoch",
			op:    recover,
			fresh: true},
		{name: "Recover after Restore outruns its epoch",
			prep:  func(s *Store) { s.Restore(s.Snapshot()) },
			op:    recover,
			fresh: true},
		{name: "NewRecovered stamps an epoch",
			op: func(s *Store) *Store {
				return NewRecovered(changeA(s), s.LastLSN(), nil)
			},
			fresh: true},
		{name: "NewRecovered replays entries under the epoch",
			op: func(s *Store) *Store {
				tail := []Batch{{LSN: s.LastLSN() + 1, Writes: []Write{{Key: "c", Value: 30}}}}
				return NewRecovered(s.Snapshot(), s.LastLSN(), tail)
			},
			fresh: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			if tc.prep != nil {
				tc.prep(s)
			}
			type pair struct {
				v   metric.Value
				ver int64
			}
			before := map[Key]pair{}
			for _, k := range keys {
				v, ver := s.GetVersioned(k)
				before[k] = pair{v, ver}
			}
			after := tc.op(s)
			var epoch int64
			for _, k := range keys {
				v, ver := after.GetVersioned(k)
				if v != after.Get(k) {
					t.Fatalf("%s: GetVersioned value %d, Get %d", k, v, after.Get(k))
				}
				was := before[k]
				if v != was.v && ver == was.ver {
					t.Errorf("%s: value %d → %d under unchanged version %d", k, was.v, v, ver)
				}
				switch want, listed := tc.want[k]; {
				case tc.fresh:
					if epoch == 0 {
						epoch = ver
					}
					if ver >= 0 || ver != epoch {
						t.Errorf("%s: version %d, want one negative epoch (first cell %d)", k, ver, epoch)
					}
					for _, p := range before {
						if ver == p.ver {
							t.Errorf("%s: epoch %d reuses a version read before", k, ver)
						}
					}
				case listed && ver != want:
					t.Errorf("%s: version %d, want %d", k, ver, want)
				case !listed && ver != was.ver:
					t.Errorf("%s: version %d → %d, want it kept", k, was.ver, ver)
				}
			}
		})
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestApplyStampedRejectsNonPositiveVersion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ApplyStamped(…, 0) did not panic")
		}
	}()
	_ = New().applyStampedKeys([]Write{{Key: "x", Value: 1}}, 0)
}

// TestVersionedReadsSeeInstalledPairs races versioned readers against
// stamped applies: every (value, version) pair a reader observes must be
// one some apply wrote (or the seeded cell), never a value with another
// apply's version.
func TestVersionedReadsSeeInstalledPairs(t *testing.T) {
	const (
		nKeys    = 4
		writers  = 4
		applies  = 500
		readers  = 4
		seedBase = 7
	)
	keys := make([]Key, nKeys)
	init := map[Key]metric.Value{}
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("k%d", i))
		init[keys[i]] = seedBase
	}
	// valueOf is the value stamp ver writes to key i: recoverable from
	// the pair alone, so a reader can check what it saw.
	valueOf := func(ver int64, i int) metric.Value { return metric.Value(ver*nKeys + int64(i)) }
	s := NewFrom(init)
	var next atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, k := range keys {
					v, ver := s.GetVersioned(k)
					if (ver == 0 && v != seedBase) || (ver != 0 && v != valueOf(ver, i)) {
						errs <- fmt.Errorf("%s: read (%d, %d), which no apply wrote", k, v, ver)
						return
					}
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for n := 0; n < applies; n++ {
				ver := next.Add(1)
				batch := make([]Write, nKeys)
				for i, k := range keys {
					batch[i] = Write{Key: k, Value: valueOf(ver, i)}
				}
				if err := s.applyStampedKeys(batch, ver); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	last := next.Add(1)
	must(t, s.applyStampedKeys([]Write{{Key: keys[0], Value: valueOf(last, 0)}}, last))
	if got := s.MaxVersion(); got != last {
		t.Errorf("MaxVersion = %d, want the last stamp %d", got, last)
	}
}

// TestRestoreDroppedKeyNeverShowsOldVersion: a key a Restore drops reads
// 0 afterwards, so its version must move too. Were the key simply
// forgotten, it would read (0, 0) — the version an unstamped write of
// any value also carries — and a reader that saw (5, 0) would validate
// against a value that is gone.
func TestRestoreDroppedKeyNeverShowsOldVersion(t *testing.T) {
	s := NewFrom(map[Key]metric.Value{"other": 1})
	s.Set("k", 5)
	v, ver := s.GetVersioned("k")
	if v != 5 || ver != 0 {
		t.Fatalf("after Set: (%d, %d), want (5, 0)", v, ver)
	}
	s.Restore(map[Key]metric.Value{"other": 1})
	if s.Has("k") {
		t.Error("Has(k) after a Restore that dropped it")
	}
	v2, ver2 := s.GetVersioned("k")
	if v2 != 0 {
		t.Errorf("dropped key reads %d, want 0", v2)
	}
	if ver2 == ver {
		t.Errorf("dropped key went %d → %d under unchanged version %d", v, v2, ver)
	}
	if _, epoch := s.GetVersioned("other"); ver2 != epoch {
		t.Errorf("dropped key has version %d, want the restore epoch %d", ver2, epoch)
	}
}
