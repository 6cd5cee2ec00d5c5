package core

import (
	"context"
	"errors"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"asynctp/internal/dc"
	"asynctp/internal/history"
	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/rdc"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// Engine runs piece attempts against one store: every attempt a Runner
// submits, a site worker takes off a recoverable queue, or a 2PC
// participant prepares. The caller mints the owner, opens and settles
// its spans, and decides what to do with the outcome.
//
// The engine resolves a registered program's keys once (Register): to
// store cells, and on the locking engine to lock-table rows. An attempt
// of it then locks, reads, validates and installs through those handles
// without hashing a key. A locking attempt takes one lock.Locker, which
// holds its locks and its divergence-control account.
type Engine struct {
	store *storage.Store
	locks *lock.Manager
	ctl   *dc.Controller // the lock arbiter: locking engine under DC only
	exec  *txn.Exec      // nil for the rdc engines
	rdc   *rdc.Engine    // nil for the locking engine
	dc    bool

	// plans maps each registered program to its resolved keys.
	// Register replaces the map (under planMu); Plan reads it without a
	// lock.
	plans  atomic.Pointer[map[*txn.Program]txn.Plan]
	planMu sync.Mutex
}

// NewEngine builds the lock manager, the divergence controller as its
// arbiter, the executor and the rdc engine for cfg's engine fields
// (Engine, Store, LockStripes, OpDelay, StepHook, WaitObserver,
// VerifyRepairs, Obs), with their observers wired to cfg.Obs and rec
// (nil records nothing). With useDC every attempt runs under divergence
// control within the budget it passes: the locking engine puts a
// dc.Controller behind its lock manager as the arbiter, the rdc engines
// absorb stale reads; without it they validate strictly.
func NewEngine(cfg Config, useDC bool, rec *history.Recorder) *Engine {
	e := &Engine{store: cfg.Store, dc: useDC}
	var lockOpts []lock.Option
	if wo := obs.TeeWaitObserver(cfg.WaitObserver, cfg.Obs.WaitObserver()); wo != nil {
		lockOpts = append(lockOpts, lock.WithWaitObserver(wo))
	}
	if cfg.LockStripes > 0 {
		lockOpts = append(lockOpts, lock.WithStripes(cfg.LockStripes))
	}
	if cfg.Engine == EngineLocking && useDC {
		e.ctl = dc.NewController()
		if dcObs := cfg.Obs.DCObserver(); dcObs != nil {
			e.ctl.SetObserver(dcObs)
		}
		lockOpts = append(lockOpts, lock.WithArbiter(e.ctl))
	}
	e.locks = lock.NewManager(lockOpts...) // idle under rdc: LockStats read zero
	// A nil *Recorder must not become a non-nil Observer interface, and
	// the tee collapses back to nil when neither the recorder nor the
	// plane is live, so engines keep their nil fast paths.
	var recObs txn.Observer
	if rec != nil {
		recObs = rec
	}
	txnObs := obs.TeeTxnObserver(recObs, cfg.Obs.ExecObserver())
	if policy, ok := rdcPolicies[cfg.Engine]; ok {
		e.rdc = rdc.NewEngine(cfg.Store, txnObs, policy)
		e.rdc.SetVerify(cfg.VerifyRepairs)
		// Absorbed conflicts are charged like DC absorptions: through the
		// plane's DC-event observer into the ledger and metrics.
		e.rdc.SetDCObserver(cfg.Obs.DCObserver())
		if cfg.Obs.SpansOn() {
			e.rdc.SetRepairObserver(func(owner lock.Owner, d time.Duration) {
				cfg.Obs.SpanRepair(int64(owner), d)
			})
		}
		e.rdc.SetOpDelay(cfg.OpDelay)
		e.rdc.SetStepHook(cfg.StepHook)
		return e
	}
	e.exec = txn.NewExec(cfg.Store, e.locks, txnObs)
	e.exec.SetOpDelay(cfg.OpDelay)
	e.exec.SetStepHook(cfg.StepHook)
	return e
}

// Register resolves p's keys (txn.Resolve) to cells of the engine's
// store and, on the locking engine, to rows of its lock table,
// remembers them for Plan and returns them.
func (e *Engine) Register(p *txn.Program) txn.Plan {
	var locks *lock.Manager
	if e.exec != nil {
		locks = e.locks
	}
	plan := txn.Resolve(p, e.store, locks)
	e.planMu.Lock()
	defer e.planMu.Unlock()
	plans := map[*txn.Program]txn.Plan{}
	if old := e.plans.Load(); old != nil {
		plans = maps.Clone(*old)
	}
	plans[p] = plan
	e.plans.Store(&plans)
	return plan
}

// Plan returns what Register resolved p's keys to, or the zero Plan
// when p was never registered with this engine.
func (e *Engine) Plan(p *txn.Program) txn.Plan {
	if plans := e.plans.Load(); plans != nil {
		return (*plans)[p]
	}
	return txn.Plan{}
}

// Locker returns a Locker of the engine's lock table for a caller that
// runs attempts one after another (an instance's pieces) to pass to
// each Attempt, or nil on the rdc engines, which take no locks. The
// caller frees it (lock.Locker.Free) when done.
func (e *Engine) Locker() *lock.Locker {
	if e.exec == nil {
		return nil
	}
	return e.locks.Locker(0)
}

// open opens the divergence-control account of l's attempt with budget
// spec.
func (e *Engine) open(l *lock.Locker, p *txn.Program, spec metric.Spec, class txn.Class) error {
	if e.ctl == nil {
		return nil
	}
	return e.ctl.Open(l, dc.Info{Class: class, Import: spec.Import, Export: spec.Export, Program: p})
}

// close closes l's account, after its locks are released, and returns
// the fuzziness the attempt took.
func (e *Engine) close(l *lock.Locker) (imported, exported metric.Fuzz) {
	if e.ctl == nil {
		return 0, 0
	}
	return e.ctl.Close(l)
}

// Attempt runs p once as owner, with spec as its ε budget under DC, and
// returns the outcome with the fuzziness the attempt imported and
// exported. An error is either Retryable (a system abort: resubmit
// under a fresh owner) or final (txn.ErrRollback, a context end).
//
// On the locking engine the attempt holds its locks and its account
// through l, a Locker from the engine's Locker holding nothing (it
// holds nothing again when Attempt returns); with nil it takes one
// from the lock table's pool. The rdc engines ignore l.
//
// plan is p's keys resolved by Register.
func (e *Engine) Attempt(ctx context.Context, l *lock.Locker, owner lock.Owner, p *txn.Program, plan txn.Plan,
	spec metric.Spec, class txn.Class) (out *txn.Outcome, imported, exported metric.Fuzz, err error) {
	if e.rdc != nil {
		// CC runs validate strictly: plain OCC.
		if !e.dc {
			spec = metric.Strict
		}
		out, imported, err = e.rdc.Run(ctx, owner, p, plan.Cells, spec, class)
		return out, imported, 0, err
	}
	if l == nil {
		l = e.locks.Locker(owner)
		defer l.Free()
	} else {
		l.Reset(owner)
	}
	if err := e.open(l, p, spec, class); err != nil {
		return nil, 0, 0, err
	}
	out, err = e.exec.Run(ctx, l, p, plan)
	imported, exported = e.close(l)
	return out, imported, exported, err
}

// Prepared is a locking-engine attempt held at its commit point, a 2PC
// participant's prepared state: it keeps its uncommitted writes, locks
// and divergence-control account until Commit or Abort.
type Prepared struct {
	Owner lock.Owner
	Out   *txn.Outcome // the reads so far
	e     *Engine
	l     *lock.Locker
	held  txn.Held
}

// Prepare runs p as owner up to its commit point, on the plan Register
// resolved, as Attempt does. On error the attempt is already undone and
// its account closed.
func (e *Engine) Prepare(ctx context.Context, owner lock.Owner, p *txn.Program, plan txn.Plan,
	spec metric.Spec, class txn.Class) (*Prepared, error) {
	if e.exec == nil {
		return nil, errors.New("core: only the locking engine can prepare")
	}
	l := e.locks.Locker(owner)
	if err := e.open(l, p, spec, class); err != nil {
		l.Free()
		return nil, err
	}
	held, err := e.exec.Hold(ctx, l, p, plan)
	if err != nil {
		e.close(l)
		l.Free()
		return nil, err
	}
	return &Prepared{Owner: owner, Out: held.Out, e: e, l: l, held: held}, nil
}

// Commit commits the attempt as txn.Held.Commit does (durable runs
// between the store commit and the lock release), closes its account and
// returns the fuzziness it took.
func (pr *Prepared) Commit(durable func() error) (imported, exported metric.Fuzz, err error) {
	_, err = pr.held.Commit(durable)
	imported, exported = pr.e.close(pr.l)
	pr.l.Free()
	return imported, exported, err
}

// Abort rolls the prepared attempt back, closes its account and returns
// the fuzziness it took.
func (pr *Prepared) Abort(reason error) (imported, exported metric.Fuzz) {
	pr.held.Abort(reason)
	imported, exported = pr.e.close(pr.l)
	pr.l.Free()
	return imported, exported
}

// Retryable reports whether an attempt's error is a system abort worth
// resubmitting: a deadlock or divergence refusal on the locking engine,
// a validation failure on the rdc engines.
func (e *Engine) Retryable(err error) bool {
	if e.rdc != nil {
		return e.rdc.Retryable(err)
	}
	return txn.Retryable(err)
}

// Locks returns the lock manager.
func (e *Engine) Locks() *lock.Manager { return e.locks }
