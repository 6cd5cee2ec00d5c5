package txn

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/storage"
)

// modelRun interprets a program against a plain map with the same
// semantics the executor promises: sequential application, rollback
// predicates on the pre-write value, all-or-nothing.
func modelRun(state map[storage.Key]metric.Value, p *Program) (map[storage.Key]metric.Value, []metric.Value, bool) {
	next := make(map[storage.Key]metric.Value, len(state))
	for k, v := range state {
		next[k] = v
	}
	var reads []metric.Value
	for _, op := range p.Ops {
		old := next[op.Key]
		if op.AbortIf != nil && op.AbortIf(old) {
			return state, nil, false // rolled back: no effects
		}
		switch op.Kind {
		case OpRead:
			reads = append(reads, old)
		case OpWrite:
			next[op.Key] = op.Update(old)
		}
	}
	return next, reads, true
}

// randomProgram builds a deterministic random program over a tiny key
// space, possibly with a rollback predicate.
func randomProgram(rng *rand.Rand, name string) *Program {
	keys := []storage.Key{"k0", "k1", "k2"}
	n := rng.Intn(5) + 1
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		key := keys[rng.Intn(len(keys))]
		switch rng.Intn(3) {
		case 0:
			ops = append(ops, ReadOp(key))
		case 1:
			ops = append(ops, AddOp(key, metric.Value(rng.Intn(21)-10)))
		default:
			ops = append(ops, SetOp(key, metric.Value(rng.Intn(100))))
		}
	}
	if rng.Intn(4) == 0 {
		idx := rng.Intn(len(ops))
		floor := metric.Value(rng.Intn(50))
		ops[idx] = WithAbortIf(ops[idx], func(v metric.Value) bool { return v < floor })
	}
	return MustProgram(name, ops...)
}

// TestExecutorMatchesModel runs random programs sequentially through the
// executor and the reference interpreter; states and read values must
// agree at every step.
func TestExecutorMatchesModel(t *testing.T) {
	prop := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		init := map[storage.Key]metric.Value{"k0": 50, "k1": 50, "k2": 50}
		store := storage.NewFrom(init)
		exec := NewExec(store, lock.NewManager(), nil)
		model := map[storage.Key]metric.Value{"k0": 50, "k1": 50, "k2": 50}

		for i := 0; i < int(steps%25)+1; i++ {
			p := randomProgram(rng, "p")
			wantState, wantReads, wantCommit := modelRun(model, p)
			out, err := exec.Run(context.Background(), exec.Locks().Locker(lock.Owner(i+1)), p, Resolve(p, store, exec.Locks()))
			if wantCommit {
				if err != nil {
					t.Logf("seed %d step %d: unexpected err %v", seed, i, err)
					return false
				}
				if len(out.Reads) != len(wantReads) {
					return false
				}
				for j, r := range out.Reads {
					if r.Value != wantReads[j] {
						return false
					}
				}
			} else {
				if !errors.Is(err, ErrRollback) {
					t.Logf("seed %d step %d: want rollback, got %v", seed, i, err)
					return false
				}
			}
			model = wantState
			for k, v := range model {
				if store.Get(k) != v {
					t.Logf("seed %d step %d: %s = %d, model %d", seed, i, k, store.Get(k), v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
