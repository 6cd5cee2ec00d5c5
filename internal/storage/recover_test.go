package storage_test

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/storage/driver"
)

// backends opens one backend of each driver, seeded with init: what a
// store recovers to is its driver's committed image, so the recovery
// tests hold on both.
func backends(t *testing.T, init map[storage.Key]metric.Value) map[string]driver.Backend {
	t.Helper()
	out := map[string]driver.Backend{}
	for _, name := range driver.Names() {
		d, err := driver.New(name, driver.Params{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		be, err := d.Open("NY", init)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { be.Close() })
		out[name] = be
	}
	return out
}

func TestRecoverDropsUncommittedWrites(t *testing.T) {
	for name, be := range backends(t, nil) {
		s := be.Store()
		if err := s.Apply([]storage.Write{{Key: "x", Value: 100}}); err != nil {
			t.Fatal(err)
		}
		// Dirty write by an in-flight transaction that never commits.
		s.Set("x", 55)
		s.Set("dirty", 1)

		r, err := be.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Get("x"); got != 100 {
			t.Errorf("%s: recovered x = %d, want committed 100", name, got)
		}
		if r.Has("dirty") {
			t.Errorf("%s: recovered store kept uncommitted key", name)
		}
		// The recovered store keeps committing from the right LSN, and
		// what it commits survives the next recovery.
		if err := r.Apply([]storage.Write{{Key: "x", Value: 101}}); err != nil {
			t.Fatal(err)
		}
		if got := r.LastLSN(); got != 2 {
			t.Errorf("%s: post-recovery LSN = %d, want 2", name, got)
		}
		r2, err := be.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if got := r2.Get("x"); got != 101 {
			t.Errorf("%s: second recovery x = %d, want 101", name, got)
		}
	}
}

// TestRecoverReplayEquivalenceProperty: for any run of committed batches
// and in-flight Sets, recovery reproduces exactly the state the batches
// alone produce, on both drivers.
func TestRecoverReplayEquivalenceProperty(t *testing.T) {
	keys := []storage.Key{"a", "b", "c", "d"}
	prop := func(seed int64, steps uint8) bool {
		for name, be := range backends(t, nil) {
			rng := rand.New(rand.NewSource(seed))
			s := be.Store()
			committed := map[storage.Key]metric.Value{}
			for i := 0; i < int(steps%30); i++ {
				if rng.Intn(4) == 0 {
					s.Set(keys[rng.Intn(len(keys))], metric.Value(-rng.Intn(1000)))
					continue
				}
				n := rng.Intn(3) + 1
				batch := make([]storage.Write, 0, n)
				for j := 0; j < n; j++ {
					w := storage.Write{Key: keys[rng.Intn(len(keys))], Value: metric.Value(rng.Intn(1000))}
					batch = append(batch, w)
					committed[w.Key] = w.Value
				}
				if err := s.Apply(batch); err != nil {
					t.Errorf("%s: %v", name, err)
					return false
				}
			}
			r, err := be.Recover()
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return false
			}
			if got := r.Snapshot(); !maps.Equal(got, committed) {
				t.Errorf("%s: recovered %v, want %v", name, got, committed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
