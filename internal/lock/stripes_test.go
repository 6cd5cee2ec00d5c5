package lock

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"asynctp/internal/storage"
)

// TestWithStripesValidation pins the option's clamping and accessor.
func TestWithStripesValidation(t *testing.T) {
	if got := NewManager().Stripes(); got != DefaultStripes {
		t.Errorf("default stripes = %d, want %d", got, DefaultStripes)
	}
	if got := NewManager(WithStripes(1)).Stripes(); got != 1 {
		t.Errorf("stripes = %d, want 1", got)
	}
	if got := NewManager(WithStripes(0)).Stripes(); got != DefaultStripes {
		t.Errorf("stripes(0) = %d, want default %d", got, DefaultStripes)
	}
	if got := NewManager(WithStripes(-3)).Stripes(); got != DefaultStripes {
		t.Errorf("stripes(-3) = %d, want default %d", got, DefaultStripes)
	}
}

// TestStressStripeCounts hammers the manager at several stripe counts
// with two deliberately different key populations:
//
//   - "hot": a single key, so every request lands on ONE stripe and the
//     striped manager degenerates to the old single-mutex behaviour;
//   - "spread": many keys, so requests fan out across stripes and the
//     per-stripe mutexes, the Lockers' held rows, and the shared deadlock
//     detector all run concurrently.
//
// Acquisition is in sorted key order (deadlock-free), so every acquire
// must succeed and the table must drain. Run under -race this is the
// striping data-race regression test.
func TestStressStripeCounts(t *testing.T) {
	for _, stripes := range []int{1, 4, 16} {
		for _, pop := range []struct {
			name string
			keys []storage.Key
		}{
			{"hot", []storage.Key{"hot"}},
			{"spread", func() []storage.Key {
				ks := make([]storage.Key, 32)
				for i := range ks {
					ks[i] = storage.Key(fmt.Sprintf("k%02d", i))
				}
				return ks
			}()},
		} {
			t.Run(fmt.Sprintf("stripes=%d/%s", stripes, pop.name), func(t *testing.T) {
				m := NewManager(WithStripes(stripes))
				var wg sync.WaitGroup
				errs := make(chan error, 16)
				for g := 0; g < 16; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(g)))
						for it := 0; it < 40; it++ {
							owner := Owner(g*1000 + it)
							start := rng.Intn(len(pop.keys))
							for j := start; j < len(pop.keys); j++ {
								mode := Shared
								if rng.Intn(2) == 0 {
									mode = Exclusive
								}
								if err := m.Acquire(context.Background(), owner, pop.keys[j], mode); err != nil {
									errs <- err
									return
								}
							}
							m.ReleaseAll(owner)
						}
					}(g)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatalf("stress acquire: %v", err)
				}
				for _, s := range m.stripes {
					s.mu.Lock()
					for k, e := range s.table {
						if len(e.holders) != 0 || len(e.queue) != 0 {
							t.Errorf("entry %q not drained: %d holders, %d waiters", k, len(e.holders), len(e.queue))
						}
					}
					s.mu.Unlock()
				}
				st := m.Stats()
				if st.Grants == 0 {
					t.Error("no grants recorded")
				}
				if st.Deadlocks != 0 {
					t.Errorf("sorted-order acquisition deadlocked %d times", st.Deadlocks)
				}
				if wf := m.WaitGraph(); len(wf) != 0 {
					t.Errorf("waits-for graph not drained: %v", wf)
				}
			})
		}
	}
}
