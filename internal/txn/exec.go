package txn

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/storage"
)

// ErrRollback is the business rollback: a rollback statement fired. Unlike
// system aborts (deadlock, divergence refusal) a business rollback must
// not be retried.
var ErrRollback = errors.New("txn: rollback statement fired")

// IDGen hands out unique transaction owners.
type IDGen struct {
	next atomic.Int64
}

// Next returns a fresh owner ID (positive, dense).
func (g *IDGen) Next() lock.Owner {
	return lock.Owner(g.next.Add(1))
}

// SetBase makes subsequent IDs mint from base+1 upward. A process
// hosting several generators that feed one shared consumer (the ε
// ledger, trace spans) gives each a disjoint base so their IDs never
// collide. Call before the generator is first used.
func (g *IDGen) SetBase(base int64) {
	g.next.Store(base)
}

// ReadRec is one read observed by a transaction, in execution order.
type ReadRec struct {
	Key   storage.Key
	Value metric.Value
}

// Outcome describes one finished execution attempt.
type Outcome struct {
	// Owner is the transaction identity used for locks and history.
	Owner lock.Owner
	// Committed reports whether the attempt committed.
	Committed bool
	// Reads are the values observed, in order.
	Reads []ReadRec
	// Writes are the final values written (one per key, last-writer-wins),
	// empty when the attempt aborted.
	Writes []storage.Write
}

// ReadValue returns the last value this execution read for key.
func (o *Outcome) ReadValue(key storage.Key) (metric.Value, bool) {
	for i := len(o.Reads) - 1; i >= 0; i-- {
		if o.Reads[i].Key == key {
			return o.Reads[i].Value, true
		}
	}
	return 0, false
}

// SumReads totals every read (the audit transactions' result).
func (o *Outcome) SumReads() metric.Value {
	var total metric.Value
	for _, r := range o.Reads {
		total += r.Value
	}
	return total
}

// Observer receives execution events; the history recorder implements it.
// A nil Observer is valid and observes nothing. Write carries the op's
// commutativity so the serializability checker can apply the same
// conflict model as the chopper (commuting increments do not conflict).
type Observer interface {
	Begin(owner lock.Owner, name string, class Class)
	Read(owner lock.Owner, key storage.Key, value metric.Value)
	Write(owner lock.Owner, key storage.Key, old, new metric.Value, commutative bool)
	Commit(owner lock.Owner)
	Abort(owner lock.Owner, reason error)
}

// Exec runs programs as atomic transactions under strict two-phase locking
// against one store. Plugging a divergence-control arbiter into the lock
// manager turns the same executor into a divergence-controlled one.
type Exec struct {
	store   *storage.Store
	locks   *lock.Manager
	obs     Observer
	opDelay time.Duration
	step    StepHook
}

// NewExec builds an executor. obs may be nil.
func NewExec(store *storage.Store, locks *lock.Manager, obs Observer) *Exec {
	return &Exec{store: store, locks: locks, obs: obs}
}

// SetOpDelay makes every operation take d of simulated work while its
// lock is held. Zero (the default) disables it. Benchmarks use it to
// model the paper's environment, where operations take real time and
// blocking on locks is what limits throughput. Sub-millisecond delays
// busy-spin instead of sleeping (see SimWork) so the simulated work is
// actually d, not d plus kernel timer slack.
func (e *Exec) SetOpDelay(d time.Duration) { e.opDelay = d }

// SetStepHook installs a step hook consulted before every lock request,
// operation effect, and commit. Nil (the default) disables gating; the
// schedule explorer uses it to serialize execution deterministically.
func (e *Exec) SetStepHook(h StepHook) { e.step = h }

// stepTo gates one scheduling point when a hook is installed.
func (e *Exec) stepTo(owner lock.Owner, p *Program, op int, kind StepKind, key storage.Key, write bool) {
	if e.step != nil {
		e.step.OnStep(Step{Owner: owner, Program: p.Name, Op: op, Kind: kind, Key: key, Write: write})
	}
}

// Store returns the backing store.
func (e *Exec) Store() *storage.Store { return e.store }

// Locks returns the lock manager.
func (e *Exec) Locks() *lock.Manager { return e.locks }

// writeRec tracks one written key: its cell, its before-image (first
// write) and its latest value. A small slice with linear lookup beats
// two maps for the handful of keys a piece writes, and doubles as the
// commit batch.
type writeRec struct {
	cell       *storage.Cell
	key        storage.Key
	old, final metric.Value
}

// findWrite returns the index of c's write in recs, or -1.
func findWrite(recs []writeRec, c *storage.Cell) int {
	for i := range recs {
		if recs[i].cell == c {
			return i
		}
	}
	return -1
}

// Plan holds a program's keys resolved once (Resolve), in op order:
// Cells[i] is op i's cell of the store, Rows[i] its row of the lock
// table. Stamps are written into the attempt's commit batch after its
// own writes.
type Plan struct {
	Cells  []*storage.Cell
	Rows   []*lock.Row
	Stamps []Stamp
}

// Resolve resolves p's keys, in op order, to cells of store and, when
// locks is non-nil, to rows of its lock table. Both stay valid for the
// life of the store and the manager (see storage.Cell and lock.Row).
func Resolve(p *Program, store *storage.Store, locks *lock.Manager) Plan {
	plan := Plan{Cells: make([]*storage.Cell, len(p.Ops))}
	if locks != nil {
		plan.Rows = make([]*lock.Row, len(p.Ops))
	}
	for i, op := range p.Ops {
		plan.Cells[i] = store.Cell(op.Key)
		if locks != nil {
			plan.Rows[i] = locks.Row(op.Key)
		}
	}
	return plan
}

// Stamp is a write an attempt's commit batch carries that is no op of
// its program: the caller's bookkeeping, committed atomically with the
// program's writes. It takes no lock and is not observed, so its cell
// must have one writer at a time (a site worker's apply log) and no
// program may touch its key.
type Stamp struct {
	Cell  *storage.Cell
	Key   storage.Key
	Value metric.Value
}

// Run executes p atomically as l's owner: Hold, then Commit. On failure
// all effects are undone and the error tells the caller whether to
// retry: lock.ErrDeadlock and context errors are system aborts
// (retryable); ErrRollback is a business rollback (final). l and plan
// are as for Hold.
func (e *Exec) Run(ctx context.Context, l *lock.Locker, p *Program, plan Plan) (*Outcome, error) {
	h, err := e.Hold(ctx, l, p, plan)
	if err != nil {
		return h.Out, err
	}
	return h.Commit(nil)
}

// Held is an attempt stopped at its commit point: its writes are in the
// store, uncommitted, and it holds every lock it took until Commit or
// Abort.
type Held struct {
	Out    *Outcome // the reads so far
	e      *Exec
	p      *Program
	l      *lock.Locker
	writes []writeRec
	stamps []Stamp
}

// Hold runs p as l's owner under strict two-phase locking up to its
// commit point, taking its locks through l (a Locker of e's lock
// manager, holding nothing). On error the attempt is already undone and
// l's locks released, and the error classifies as for Run. plan is p's
// keys resolved by Resolve with e's lock manager: every lock request
// goes through its rows and every read, write and undo through its
// cells.
func (e *Exec) Hold(ctx context.Context, l *lock.Locker, p *Program, plan Plan) (Held, error) {
	if err := p.Validate(); err != nil {
		return Held{}, err
	}
	owner := l.Owner()
	if e.obs != nil {
		e.obs.Begin(owner, p.Name, p.Class())
	}
	out := &Outcome{Owner: owner}
	var writes []writeRec // Held is built when the attempt stops: the loop stays in locals
	for i, op := range p.Ops {
		mode := lock.Shared
		if op.Kind == OpWrite {
			mode = lock.Exclusive
		}
		e.stepTo(owner, p, i, StepAcquire, op.Key, op.Kind == OpWrite)
		if err := l.Acquire(ctx, plan.Rows[i], mode); err != nil {
			h := Held{Out: out, e: e, p: p, l: l, writes: writes}
			h.Abort(err)
			return h, fmt.Errorf("op %d on %q: %w", i, op.Key, err)
		}
		e.stepTo(owner, p, i, StepApply, op.Key, op.Kind == OpWrite)
		if e.opDelay > 0 {
			SimWork(e.opDelay)
		}
		c := plan.Cells[i]
		old, _ := c.Load()
		if op.AbortIf != nil && op.AbortIf(old) {
			h := Held{Out: out, e: e, p: p, l: l, writes: writes}
			h.Abort(ErrRollback)
			return h, fmt.Errorf("op %d on %q: %w", i, op.Key, ErrRollback)
		}
		switch op.Kind {
		case OpRead:
			if out.Reads == nil {
				out.Reads = make([]ReadRec, 0, len(p.Ops)-i)
			}
			out.Reads = append(out.Reads, ReadRec{Key: op.Key, Value: old})
			if e.obs != nil {
				e.obs.Read(owner, op.Key, old)
			}
		case OpWrite:
			// Allocated on the first write: read-only attempts stay light.
			if writes == nil {
				writes = make([]writeRec, 0, len(p.Ops)-i)
			}
			val := op.Update(old)
			c.Set(val)
			if j := findWrite(writes, c); j >= 0 {
				writes[j].final = val // keep the first before-image
			} else {
				writes = append(writes, writeRec{cell: c, key: op.Key, old: old, final: val})
			}
			if e.obs != nil {
				e.obs.Write(owner, op.Key, old, val, op.Commutative)
			}
		}
	}
	return Held{Out: out, e: e, p: p, l: l, writes: writes, stamps: plan.Stamps}, nil
}

// Commit commits the held writes as one store batch (their cells already
// hold the final values, so the store only logs it), calls durable when
// non-nil, then releases the locks. A failed commit aborts the attempt;
// a durable error is returned with the attempt committed.
func (h *Held) Commit(durable func() error) (*Outcome, error) {
	e, owner := h.e, h.Out.Owner
	e.stepTo(owner, h.p, -1, StepCommit, "", false)
	var batch []storage.Write
	if n := len(h.writes) + len(h.stamps); n > 0 {
		batch = make([]storage.Write, len(h.writes), n)
		for i, w := range h.writes {
			batch[i] = storage.Write{Key: w.key, Value: w.final}
		}
		for _, st := range h.stamps {
			st.Cell.Set(st.Value)
			batch = append(batch, storage.Write{Key: st.Key, Value: st.Value})
		}
	}
	if err := e.store.ApplyWritten(batch); err != nil {
		h.Abort(err)
		return h.Out, fmt.Errorf("commit %q: %w", h.p.Name, err)
	}
	var err error
	if durable != nil {
		err = durable()
	}
	h.Out.Writes = batch[:len(h.writes)]
	h.Out.Committed = true
	h.l.ReleaseAll()
	if e.obs != nil {
		e.obs.Commit(owner)
	}
	return h.Out, err
}

// Abort undoes the held writes (last before-images win in reverse),
// releases the locks, and reports the abort.
func (h *Held) Abort(reason error) {
	e, owner := h.e, h.Out.Owner
	for i := len(h.writes) - 1; i >= 0; i-- {
		h.writes[i].cell.Set(h.writes[i].old)
	}
	h.l.ReleaseAll()
	if e.obs != nil {
		e.obs.Abort(owner, reason)
	}
}

// Retryable reports whether an execution error is a system abort worth
// retrying (deadlock or divergence refusal), as opposed to a business
// rollback or context end.
func Retryable(err error) bool {
	return errors.Is(err, lock.ErrDeadlock)
}
