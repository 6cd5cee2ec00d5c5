package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"asynctp/internal/chop"
	"asynctp/internal/dc"
	"asynctp/internal/history"
	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/rdc"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// Config configures a Runner.
type Config struct {
	// Method is the off-line × on-line combination to run.
	Method Method
	// Distribution is the ε-spec distribution policy (DC methods only;
	// defaults to Static).
	Distribution Distribution
	// Store is the backing store.
	Store *storage.Store
	// Programs is the declared job stream: every transaction type that
	// will run. Chopping assumes this knowledge.
	Programs []*txn.Program
	// Counts declares how many instances of each program the job stream
	// contains (defaults to 1 each). Inter-sibling fuzziness — and hence
	// how finely ESR-chopping may cut — scales with these counts, so a
	// workload that will submit N transfers must declare N.
	Counts []int
	// Record attaches a history recorder for correctness checking.
	Record bool
	// LockStripes overrides the lock manager's stripe count (the number
	// of independently-locked lock-table shards). Zero uses
	// lock.DefaultStripes; 1 degenerates to a single-mutex table, which
	// the conformance explorer uses to cross-check that striping does
	// not change behaviour. Ignored by the non-locking engines.
	LockStripes int
	// OpDelay simulates per-operation work while locks are held (see
	// txn.Exec.SetOpDelay); zero disables it.
	OpDelay time.Duration
	// Engine selects the on-line engine family: locking (default), or one
	// of rdc's three policies — optimistic (abort: plain OCC for CC
	// methods, ε absorption for DC methods) and transaction repair, with
	// or without ε-skip.
	Engine EngineKind
	// StepHook, when non-nil, gates every engine scheduling point (lock
	// request, operation effect, commit). The conformance explorer uses
	// it to serialize execution deterministically.
	StepHook txn.StepHook
	// WaitObserver, when non-nil, observes lock-wait transitions on the
	// locking engine's lock manager (see lock.WaitObserver). The
	// conformance explorer uses it to keep its one-runner-at-a-time
	// invariant across blocking lock acquisitions.
	WaitObserver lock.WaitObserver
	// IDBase offsets every owner and group ID the runner mints (they
	// start at IDBase+1). A process hosting many runners that share one
	// observability plane — the tenant partition layer — gives each
	// runner a disjoint base (like site.Config.InstanceBase) so ledger
	// accounts and trace spans never collide across runners. Zero keeps
	// the dense 1,2,3,… sequence.
	IDBase int64
	// Obs, when non-nil, attaches the observability plane: trace spans,
	// ε-provenance ledger pages, and metrics for every transaction,
	// piece, lock wait, and DC debit the runner executes. The shims tee
	// with StepHook/WaitObserver/Record, so the conformance explorer can
	// trace its own runs. Nil keeps every engine fast path nil.
	Obs *obs.Plane
	// VerifyRepairs is a TEST-ONLY knob for the rdc engines: every install
	// that absorbed nothing re-executes the whole program from scratch and
	// must match the provenance-repaired result exactly (see
	// rdc.Engine.SetVerify and Runner.RepairVerifyFailure). It must
	// never be set in production paths — the check serializes work the
	// repair exists to avoid.
	VerifyRepairs bool
	// BudgetScale is a TEST-ONLY knob that multiplies every DC ε budget
	// by the given factor after the off-line distribution (0 or 1 leaves
	// budgets intact). The conformance harness uses it to mis-budget a
	// run on purpose and assert the serial-replay oracle catches the
	// resulting ESR violation. It must never be set in production paths.
	BudgetScale int
}

// EngineKind selects the on-line engine family.
type EngineKind int

// Engine kinds.
const (
	// EngineLocking is two-phase locking (+ lock-arbiter DC). Default.
	EngineLocking EngineKind = iota
	// EngineOptimistic is backward-validation OCC (+ ε absorption):
	// rdc with the abort policy, a validation failure retries the piece.
	EngineOptimistic
	// EngineRepair is provenance-based transaction repair (rdc): on
	// validation failure only the stale ops re-execute, instead of
	// aborting the whole piece.
	EngineRepair
	// EngineRepairSkip is EngineRepair with ε-skip: query repairs whose
	// value delta fits the remaining import budget are charged to the
	// ledger instead of executed.
	EngineRepairSkip
)

// String renders the engine kind.
func (k EngineKind) String() string {
	switch k {
	case EngineLocking:
		return "locking"
	case EngineOptimistic:
		return "optimistic"
	case EngineRepair:
		return "repair"
	case EngineRepairSkip:
		return "repair-skip"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// rdcPolicies maps the engine kinds rdc serves to its policies.
var rdcPolicies = map[EngineKind]rdc.Policy{
	EngineOptimistic: rdc.Abort,
	EngineRepair:     rdc.Repair,
	EngineRepairSkip: rdc.RepairSkip,
}

// InstanceResult describes one submitted transaction instance.
type InstanceResult struct {
	// Program is the original program name.
	Program string
	// Committed reports whether every piece committed.
	Committed bool
	// RolledBack reports a business rollback in the first piece.
	RolledBack bool
	// Outcomes holds each piece's final outcome, indexed by piece.
	Outcomes []*txn.Outcome
	// Retries counts system-abort resubmissions across all pieces.
	Retries int
	// Imported and Exported are the instance's total fuzziness: by
	// Lemma 1, the sum over its pieces (DC methods only).
	Imported, Exported metric.Fuzz
}

// SumReads totals all values read by all pieces (the audit result).
func (ir *InstanceResult) SumReads() metric.Value {
	var total metric.Value
	for _, o := range ir.Outcomes {
		if o != nil {
			total += o.SumReads()
		}
	}
	return total
}

// Runner executes a declared job stream under one method.
type Runner struct {
	cfg     Config
	sa      *chop.StreamAnalysis
	set     *chop.Set       // runtime set: one instance of each type
	assign  [][]metric.Spec // static per-(type, piece) specs (DC methods)
	dcSpecs []metric.Spec   // per-type spec used by DC (Method 3 shrinks it)
	engine  *Engine
	rec     *history.Recorder

	// children[ti][pi] lists the dependency-tree children of piece pi of
	// type ti, precomputed because Submit is the hot path and
	// DependencyChildren allocates per call.
	children [][][]int
	// plans[ti][pi] is piece pi of type ti's keys resolved to store
	// cells and lock rows, registered with the engine once.
	plans [][]txn.Plan

	mu      sync.Mutex
	groupOf map[lock.Owner]history.Group

	// The padding keeps the ID counters, which every Submit writes, off
	// the cache lines of the read-only fields above.
	_         [64]byte
	gen       txn.IDGen
	nextGroup atomic.Int64
}

// NewRunner prepares the chopping for cfg.Programs and builds the
// execution stack.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Store == nil {
		return nil, errors.New("core: config needs a store")
	}
	if len(cfg.Programs) == 0 {
		return nil, errors.New("core: config needs programs")
	}
	if cfg.Distribution == 0 {
		cfg.Distribution = Static
	}
	if len(cfg.Counts) != 0 && len(cfg.Counts) != len(cfg.Programs) {
		return nil, fmt.Errorf("core: %d counts for %d programs", len(cfg.Counts), len(cfg.Programs))
	}
	r := &Runner{cfg: cfg, groupOf: make(map[lock.Owner]history.Group)}
	if cfg.IDBase != 0 {
		r.gen.SetBase(cfg.IDBase)
		r.nextGroup.Store(cfg.IDBase)
	}

	stream := make(chop.Stream, len(cfg.Programs))
	for i, p := range cfg.Programs {
		count := 1
		if len(cfg.Counts) > 0 {
			count = cfg.Counts[i]
		}
		stream[i] = chop.StreamItem{Program: p, Count: count}
	}
	var err error
	switch {
	case !cfg.Method.UsesChopping():
		chopped := make([]*chop.Chopped, len(cfg.Programs))
		for i, p := range cfg.Programs {
			chopped[i] = chop.Whole(p)
		}
		r.sa, err = chop.AnalyzeStream(stream, chopped)
	case cfg.Method.usesESRChopping():
		r.sa, err = chop.FindESRStream(stream)
	default:
		r.sa, err = chop.FindSRStream(stream)
	}
	if err != nil {
		return nil, err
	}
	// Runtime set: one instance of each type with the chosen chopping;
	// piece programs come from here.
	r.set, err = chop.NewSet(r.sa.Choppings...)
	if err != nil {
		return nil, err
	}
	r.children = make([][][]int, r.set.NumTxns())
	for ti := range r.children {
		r.children[ti] = r.set.Chopping(ti).DependencyChildren()
	}
	if cfg.Method.UsesDC() {
		// Per-transaction budget the engine works with: Method 3 reserves
		// the inter-sibling fuzziness (Equation 6); others use the full
		// ε-spec.
		r.dcSpecs = make([]metric.Spec, r.set.NumTxns())
		r.assign = make([][]metric.Spec, r.set.NumTxns())
		for ti := range r.dcSpecs {
			if cfg.Method == Method3ESRChopDC {
				r.dcSpecs[ti] = r.sa.DCLimit(ti)
			} else {
				r.dcSpecs[ti] = r.set.Original(ti).Spec
			}
			switch cfg.Distribution {
			case Naive:
				r.assign[ti] = r.sa.NaivePieceSpecs(ti, r.dcSpecs[ti])
			case Proportional:
				r.assign[ti] = r.sa.ProportionalPieceSpecs(ti, r.dcSpecs[ti])
			default:
				// Static assignment also seeds Dynamic's unrestricted ∞.
				r.assign[ti] = r.sa.PieceSpecs(ti, r.dcSpecs[ti])
			}
		}
		if cfg.BudgetScale > 1 {
			// TEST-ONLY: inflate every DC budget so divergence control
			// absorbs more than the declared ε-spec permits. The
			// conformance oracle must catch the resulting violation.
			for ti := range r.dcSpecs {
				r.dcSpecs[ti] = scaleSpec(r.dcSpecs[ti], cfg.BudgetScale)
				for pi := range r.assign[ti] {
					r.assign[ti][pi] = scaleSpec(r.assign[ti][pi], cfg.BudgetScale)
				}
			}
		}
	}
	if cfg.Record {
		r.rec = history.NewRecorder()
	}
	r.engine = NewEngine(cfg, cfg.Method.UsesDC(), r.rec)
	r.plans = make([][]txn.Plan, len(r.children))
	for ti := range r.plans {
		r.plans[ti] = make([]txn.Plan, len(r.children[ti]))
		for pi := range r.plans[ti] {
			r.plans[ti][pi] = r.engine.Register(r.set.Piece(r.set.Vertex(ti, pi)).Program)
		}
	}
	return r, nil
}

// scaleSpec multiplies both components of an ε-spec (BudgetScale knob).
func scaleSpec(s metric.Spec, n int) metric.Spec {
	return metric.Spec{Import: s.Import.Mul(n), Export: s.Export.Mul(n)}
}

// RDCStats returns the optimistic and repair engines' counters (zero
// otherwise).
func (r *Runner) RDCStats() rdc.Stats {
	if r.engine.rdc == nil {
		return rdc.Stats{}
	}
	return r.engine.rdc.Stats()
}

// RepairVerifyFailure returns the rdc engine's first self-check
// mismatch ("" when clean or not an rdc engine); see
// Config.VerifyRepairs.
func (r *Runner) RepairVerifyFailure() string {
	if r.engine.rdc == nil {
		return ""
	}
	return r.engine.rdc.VerifyFailure()
}

// Set returns the prepared chopping (one instance per program type).
func (r *Runner) Set() *chop.Set { return r.set }

// StreamAnalysis returns the multiplicity-aware chopping analysis.
func (r *Runner) StreamAnalysis() *chop.StreamAnalysis { return r.sa }

// Analysis returns the chopping-graph analysis of the expanded stream.
func (r *Runner) Analysis() *chop.Analysis { return r.sa.Analysis }

// Recorder returns the history recorder, nil unless Config.Record.
func (r *Runner) Recorder() *history.Recorder { return r.rec }

// LockStats returns the lock manager counters.
func (r *Runner) LockStats() lock.Stats { return r.engine.locks.Stats() }

// DCStats returns divergence-control counters (zero for CC methods).
func (r *Runner) DCStats() dc.Stats {
	if r.engine.ctl == nil {
		return dc.Stats{}
	}
	return r.engine.ctl.Stats()
}

// GroupOf returns the owner→original-transaction grouping for grouped
// history checks.
func (r *Runner) GroupOf() map[lock.Owner]history.Group {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[lock.Owner]history.Group, len(r.groupOf))
	for k, v := range r.groupOf {
		out[k] = v
	}
	return out
}

// enqueueKey carries an upstream admission timestamp through ctx so
// the span hooks can attribute pre-runner queueing (tenant mailbox wait)
// to the admit phase of the instance it becomes.
type enqueueKey struct{}

// WithEnqueueTime annotates ctx with the instant the request entered
// an upstream queue; Submit turns the gap until pickup into an admit
// span on the instance's trace.
func WithEnqueueTime(ctx context.Context, t time.Time) context.Context {
	return context.WithValue(ctx, enqueueKey{}, t)
}

// Submit executes one instance of program ti (index into
// Config.Programs) and blocks until every piece finishes. Instances may
// be submitted concurrently from many goroutines; each one's pieces run
// one at a time on its submitting goroutine.
//
// ctx bounds the first piece only. Once p1 commits the instance is
// bound to finish (the paper resubmits every later piece until it
// commits), so the later pieces run under context.WithoutCancel(ctx):
// they keep ctx's values and ignore its cancellation and deadline.
func (r *Runner) Submit(ctx context.Context, ti int) (*InstanceResult, error) {
	if ti < 0 || ti >= r.set.NumTxns() {
		return nil, fmt.Errorf("core: program index %d out of range", ti)
	}
	group := history.Group(r.nextGroup.Add(1))
	orig := r.set.Original(ti)
	inst := instance{
		runner: r,
		ti:     ti,
		group:  group,
		result: &InstanceResult{
			Program:  orig.Name,
			Outcomes: make([]*txn.Outcome, len(r.children[ti])),
		},
		// The pieces run one after another: one Locker serves them all.
		locker: r.engine.Locker(),
	}
	if inst.locker != nil {
		defer inst.locker.Free()
	}
	if r.cfg.Obs != nil {
		r.cfg.Obs.TxnBegin(int64(group), orig.Name)
		// Ledger pages carry the ORIGINAL declared ε budget, not the
		// (possibly BudgetScale-inflated) spec DC runs with — that gap is
		// exactly what reconciliation must expose.
		r.cfg.Obs.BindBudget(int64(group), orig.Name, orig.Class().String(),
			r.cfg.Distribution.String(), orig.Spec.Import)
		if enq, ok := ctx.Value(enqueueKey{}).(time.Time); ok {
			r.cfg.Obs.SpanAdmit(uint64(group), enq.UnixNano(), time.Now().UnixNano())
		}
	}
	if err := inst.run(ctx); err != nil {
		r.cfg.Obs.TxnEnd(int64(group), false)
		return inst.result, err
	}
	r.cfg.Obs.TxnEnd(int64(group), inst.result.Committed)
	return inst.result, nil
}

// instance tracks one in-flight submission. Only its submitting
// goroutine touches it.
type instance struct {
	runner *Runner
	ti     int
	group  history.Group
	result *InstanceResult
	locker *lock.Locker // every attempt's, on the locking engine
}

// run executes the instance: the first piece (business rollbacks abort
// the whole instance), then the rest of the dependency tree, each piece
// retried on system aborts until it commits.
func (inst *instance) run(ctx context.Context) error {
	r := inst.runner

	// The whole-transaction budget enters at the root (Figure 2:
	// DynamicExecution assigns Limit_t to p1's schedule).
	rootSpec := metric.Unbounded
	if r.cfg.Method.UsesDC() {
		rootSpec = r.dcSpecs[inst.ti]
	}
	out, spent, err := inst.runPiece(ctx, 0, rootSpec)
	inst.result.Outcomes[0] = out
	if err != nil {
		if errors.Is(err, txn.ErrRollback) {
			inst.result.RolledBack = true
			return nil // rollback is a defined outcome, not a failure
		}
		return err
	}
	if len(r.children[inst.ti]) > 1 { // unchopped programs skip the context allocation
		if err := inst.walk(context.WithoutCancel(ctx), 0, spent); err != nil {
			return err
		}
	}
	inst.result.Committed = true
	return nil
}

// walk runs the dependency-tree children of committed piece pi,
// depth-first in pre-order: a kid, then the kid's subtree, then the next
// kid. Figure 2: the kids split pi's leftover evenly.
func (inst *instance) walk(ctx context.Context, pi int, leftover metric.Spec) error {
	kids := inst.runner.children[inst.ti][pi]
	if len(kids) == 0 {
		return nil
	}
	share := metric.Spec{
		Import: leftover.Import.Div(len(kids)),
		Export: leftover.Export.Div(len(kids)),
	}
	for _, kid := range kids {
		out, spent, err := inst.runPiece(ctx, kid, share)
		inst.result.Outcomes[kid] = out
		if err != nil {
			return fmt.Errorf("piece %d: %w", kid, err)
		}
		if err := inst.walk(ctx, kid, spent); err != nil {
			return err
		}
	}
	return nil
}

// runPiece executes piece pi with the given available budget, retrying
// system aborts, and returns the outcome plus the leftover budget
// (Figure 2's LO_p). Unrestricted pieces run with ∞ and pass their
// incoming budget through untouched.
func (inst *instance) runPiece(ctx context.Context, pi int, budget metric.Spec) (*txn.Outcome, metric.Spec, error) {
	r := inst.runner
	v := r.set.Vertex(inst.ti, pi)
	piece := r.set.Piece(v)
	prog := piece.Program

	useDC := r.cfg.Method.UsesDC()
	unrestricted := useDC && !r.sa.Restricted(inst.ti, pi)
	runSpec := budget
	switch {
	case !useDC, unrestricted:
		runSpec = metric.Unbounded
	case r.cfg.Distribution != Dynamic:
		// Static and naive policies ignore the propagated budget and use
		// the off-line assignment.
		runSpec = r.assign[inst.ti][pi]
	}

	class := txn.Query
	if piece.UpdatePiece {
		class = txn.Update
	}
	for {
		owner := r.gen.Next()
		if r.cfg.Obs != nil {
			// Single-process pieces hang directly off the root span.
			r.cfg.Obs.PieceBegin(int64(owner), int64(inst.group), pi, "", prog.Name,
				obs.PieceSpanID(uint64(inst.group), pi, false), obs.RootSpanID(uint64(inst.group)), "")
		}
		if r.rec != nil {
			// The owner→group map exists only for grouped history checks;
			// without a recorder there is no history to group, and the
			// global-mutex map insert would be pure hot-path overhead.
			r.mu.Lock()
			r.groupOf[owner] = inst.group
			r.mu.Unlock()
		}

		out, imported, exported, err := r.engine.Attempt(ctx, inst.locker, owner, prog, r.plans[inst.ti][pi], runSpec, class)
		if r.cfg.Obs != nil {
			// Settle every attempt (aborted ones included) so ledger
			// piece binds never leak; canonical exports drop aborted
			// owners' events anyway.
			r.cfg.Obs.PieceSettle(int64(owner), imported, exported)
		}
		if err == nil {
			if useDC {
				// Lemma 1: the instance's fuzziness is the sum over its pieces.
				inst.result.Imported = inst.result.Imported.Add(imported)
				inst.result.Exported = inst.result.Exported.Add(exported)
			}
			leftover := metric.Spec{
				Import: runSpec.Import.Sub(imported),
				Export: runSpec.Export.Sub(exported),
			}
			if unrestricted {
				// Unrestricted pieces consume no quota: pass through what
				// came in (Figure 2's else branch).
				leftover = budget
			}
			return out, leftover, nil
		}
		if !r.engine.Retryable(err) || ctx.Err() != nil {
			return out, budget, err
		}
		inst.result.Retries++
	}
}
