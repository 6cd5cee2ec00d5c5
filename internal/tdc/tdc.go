// Package tdc implements timestamp-ordering divergence control — the
// third DC family described in the paper's reference [12] (Wu, Yu, Pu),
// alongside the lock-based (package dc) and optimistic (package rdc)
// engines.
//
// Classic timestamp ordering assigns every transaction a start timestamp
// and rejects operations that would contradict timestamp order. The ESR
// twist relaxes the read rules for query ETs:
//
//   - An update ET obeys strict TO against other updates: reading a key
//     whose update-write timestamp is newer, or writing a key whose
//     update read/write timestamp is newer, aborts the transaction,
//     which retries with a fresh (larger) timestamp. Update ETs thus
//     stay serializable among themselves.
//   - A query ET may read a key even though writes with larger
//     timestamps already committed ("reading the past out of order") —
//     importing the sum of those writes' declared bounds, checked
//     against its import limit.
//   - An update ET may write a key that a later-timestamped query
//     already read ("writing under a read") — exporting its declared
//     bound, checked against its export limit.
//
// Writes are buffered and installed at commit after revalidation, so
// aborts have no effects and there are no dirty reads.
package tdc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// ErrTimestamp is the system abort for timestamp-order violations; the
// caller retries with a fresh timestamp.
var ErrTimestamp = errors.New("tdc: timestamp order violated")

// Retryable reports whether err is a timestamp abort worth retrying.
func (e *Engine) Retryable(err error) bool { return errors.Is(err, ErrTimestamp) }

// recentWrite records one committed update write for pricing stale reads.
type recentWrite struct {
	ts    int64
	bound metric.Limit
}

// keyState is the per-key timestamp bookkeeping.
type keyState struct {
	updateRTS int64 // max read timestamp among update ETs
	updateWTS int64 // max committed write timestamp
	queryRTS  int64 // max read timestamp among query ETs
	// recent holds committed writes newer than the oldest active
	// transaction, pricing out-of-order query reads.
	recent []recentWrite
}

// Stats counts engine events.
type Stats struct {
	Commits  uint64
	Aborts   uint64 // timestamp violations
	Absorbed uint64 // ε-absorbed out-of-order operations
}

// Engine is the timestamp-ordering divergence-control executor.
type Engine struct {
	store   *storage.Store
	obs     txn.Observer
	opDelay time.Duration
	step    txn.StepHook

	mu     sync.Mutex
	clock  int64
	keys   map[storage.Key]*keyState
	active map[lock.Owner]int64
	stats  Stats
}

// NewEngine builds an engine over store; obs may be nil.
func NewEngine(store *storage.Store, obs txn.Observer) *Engine {
	return &Engine{
		store:  store,
		obs:    obs,
		keys:   make(map[storage.Key]*keyState),
		active: make(map[lock.Owner]int64),
	}
}

// SetOpDelay simulates per-operation work outside the critical sections.
func (e *Engine) SetOpDelay(d time.Duration) { e.opDelay = d }

// SetStepHook installs a step hook consulted before every operation's
// timestamp admission and before the install critical section. Nil (the
// default) disables gating.
func (e *Engine) SetStepHook(h txn.StepHook) { e.step = h }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// key returns (creating) the state for k; callers hold e.mu.
func (e *Engine) key(k storage.Key) *keyState {
	ks := e.keys[k]
	if ks == nil {
		ks = &keyState{}
		e.keys[k] = ks
	}
	return ks
}

// gcLocked trims recent-write lists below the oldest active timestamp.
func (e *Engine) gcLocked() {
	min := e.clock
	for _, ts := range e.active {
		if ts < min {
			min = ts
		}
	}
	for k, ks := range e.keys {
		keep := ks.recent[:0]
		for _, rw := range ks.recent {
			if rw.ts > min {
				keep = append(keep, rw)
			}
		}
		ks.recent = keep
		if len(ks.recent) == 0 && ks.updateRTS == 0 && ks.updateWTS == 0 && ks.queryRTS == 0 {
			delete(e.keys, k)
		}
	}
}

// Run executes p once under the given ε-spec and class, returning the
// outcome plus imported fuzziness. ErrTimestamp aborts are retryable;
// rollback statements return txn.ErrRollback.
func (e *Engine) Run(
	ctx context.Context,
	owner lock.Owner,
	p *txn.Program,
	spec metric.Spec,
	class txn.Class,
) (*txn.Outcome, metric.Fuzz, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if e.obs != nil {
		e.obs.Begin(owner, p.Name, class)
	}
	e.mu.Lock()
	e.clock++
	ts := e.clock
	e.active[owner] = ts
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.active, owner)
		e.gcLocked()
		e.mu.Unlock()
	}()

	out := &txn.Outcome{Owner: owner}
	var (
		imported metric.Fuzz
		exported metric.Fuzz
		writes   []txn.Op
		// exportedAt[i] reports whether writes[i] already exported its
		// bound at admission for writing under a later query read.
		exportedAt []bool
		values     = make(map[storage.Key]metric.Value) // buffered writes
	)
	abort := func(format string, args ...any) (*txn.Outcome, metric.Fuzz, error) {
		e.mu.Lock()
		e.stats.Aborts++
		e.mu.Unlock()
		if e.obs != nil {
			e.obs.Abort(owner, ErrTimestamp)
		}
		return out, 0, fmt.Errorf(format+": %w", append(args, ErrTimestamp)...)
	}

	for i, op := range p.Ops {
		if e.step != nil {
			e.step.OnStep(txn.Step{
				Owner: owner, Program: p.Name, Op: i, Kind: txn.StepApply,
				Key: op.Key, Write: op.Kind == txn.OpWrite,
			})
		}
		if e.opDelay > 0 {
			txn.SimWork(e.opDelay)
		}
		// Timestamp admission per op, then the read of the current value
		// (own buffered write wins) in the same critical section, so no
		// install lands between the check and the value it admitted.
		e.mu.Lock()
		ks := e.key(op.Key)
		priced := false
		switch {
		case op.Kind == txn.OpRead && class == txn.Query, op.Kind == txn.OpWrite && class == txn.Query:
			// Query read (queries have no writes in our environment, but
			// a query-classed piece could carry bounded writes; treat any
			// query access as a read for TO purposes).
			var charge metric.Fuzz
			unpriceable := false
			for _, rw := range ks.recent {
				if rw.ts > ts {
					if rw.bound.IsInfinite() {
						unpriceable = true
						break
					}
					charge = charge.Add(rw.bound.Bound())
				}
			}
			if unpriceable || !spec.Import.Allows(imported.Add(charge)) {
				e.mu.Unlock()
				return abort("tdc: stale read of %q too expensive", op.Key)
			}
			if charge > 0 {
				imported = imported.Add(charge)
				e.stats.Absorbed++
			}
			if ts > ks.queryRTS {
				ks.queryRTS = ts
			}
		case op.Kind == txn.OpRead:
			// Update-class read: strict TO against committed writes.
			if ts < ks.updateWTS {
				e.mu.Unlock()
				return abort("tdc: late read of %q", op.Key)
			}
			if ts > ks.updateRTS {
				ks.updateRTS = ts
			}
		case op.Kind == txn.OpWrite:
			// Update write: strict TO against update reads/writes.
			if ts < ks.updateRTS || ts < ks.updateWTS {
				e.mu.Unlock()
				return abort("tdc: late write of %q", op.Key)
			}
			// Writing under a later query read exports fuzziness.
			if ts < ks.queryRTS {
				if op.Bound.IsInfinite() || !spec.Export.Allows(exported.Add(op.Bound.Bound())) {
					e.mu.Unlock()
					return abort("tdc: write under query read of %q too expensive", op.Key)
				}
				exported = exported.Add(op.Bound.Bound())
				e.stats.Absorbed++
				priced = true
			}
		}
		cur, buffered := values[op.Key]
		if !buffered {
			cur = e.store.Get(op.Key)
		}
		// The read is recorded under e.mu, so the history orders it against
		// the installs exactly as the value it saw; a rollback below marks
		// the transaction aborted.
		if op.Kind == txn.OpRead && e.obs != nil {
			e.obs.Read(owner, op.Key, cur)
		}
		e.mu.Unlock()

		if op.AbortIf != nil && op.AbortIf(cur) {
			if e.obs != nil {
				e.obs.Abort(owner, txn.ErrRollback)
			}
			return out, 0, fmt.Errorf("op on %q: %w", op.Key, txn.ErrRollback)
		}
		switch op.Kind {
		case txn.OpRead:
			out.Reads = append(out.Reads, txn.ReadRec{Key: op.Key, Value: cur})
		case txn.OpWrite:
			values[op.Key] = op.Update(cur)
			writes = append(writes, op)
			exportedAt = append(exportedAt, priced)
		}
	}

	// Install: revalidate write timestamps, then apply atomically. A
	// query with a later timestamp may have read a key since its write was
	// admitted; that read missed this write, so the write exports its
	// bound now, as it would have at admission.
	if e.step != nil {
		e.step.OnStep(txn.Step{Owner: owner, Program: p.Name, Op: -1, Kind: txn.StepCommit})
	}
	e.mu.Lock()
	for i, op := range writes {
		ks := e.key(op.Key)
		conflict := ts < ks.updateRTS || ts < ks.updateWTS
		if !conflict && ts < ks.queryRTS && !exportedAt[i] {
			if op.Bound.IsInfinite() || !spec.Export.Allows(exported.Add(op.Bound.Bound())) {
				conflict = true
			} else {
				exported = exported.Add(op.Bound.Bound())
				e.stats.Absorbed++
			}
		}
		if conflict {
			e.stats.Aborts++
			e.mu.Unlock()
			if e.obs != nil {
				e.obs.Abort(owner, ErrTimestamp)
			}
			return out, 0, fmt.Errorf("tdc: install conflict on %q: %w", op.Key, ErrTimestamp)
		}
	}
	batch := make([]storage.Write, 0, len(values))
	for _, op := range writes {
		ks := e.key(op.Key)
		old := e.store.Get(op.Key)
		val := values[op.Key]
		if op.Commutative {
			// Re-derive increments against the committed value so that
			// concurrently committed adds compose.
			val = op.Update(old)
			values[op.Key] = val
		}
		e.store.Set(op.Key, val)
		ks.updateWTS = ts
		ks.recent = append(ks.recent, recentWrite{ts: ts, bound: op.Bound})
		if e.obs != nil {
			e.obs.Write(owner, op.Key, old, val, op.Commutative)
		}
	}
	for k, v := range values {
		batch = append(batch, storage.Write{Key: k, Value: v})
	}
	if err := e.store.Apply(batch); err != nil {
		e.mu.Unlock()
		return out, 0, err
	}
	e.stats.Commits++
	e.mu.Unlock()

	out.Writes = batch
	out.Committed = true
	if e.obs != nil {
		e.obs.Commit(owner)
	}
	return out, imported, nil
}
