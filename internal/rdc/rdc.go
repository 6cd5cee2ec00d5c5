// Package rdc is the optimistic (validation-based) divergence-control
// engine: one read/validate/install core whose Policy decides what a
// validation failure costs. It covers the optimistic family of the
// paper's reference [12] (Wu, Yu, Pu) and the transaction-repair idea
// (Veldhuizen, "Transaction Repair: Full Serializability Without
// Locks"): instead of aborting on a validation failure and redoing the
// whole piece, re-execute only the operations whose inputs changed.
// Abort-retry is the degenerate repair — a zero budget.
//
// Execution is optimistic with fine-grained provenance:
//
//   - Read phase: every operation records where its input value came
//     from — a committed version of its key (the version the store keeps
//     in the key's cell, read together with the value) or an earlier
//     operation of the same program (reads of own buffered writes thread
//     through the local workspace). Writes are buffered; reads never
//     block.
//   - Validation (critical section): an op is stale when its committed
//     input's version moved, and dirtiness propagates down the local
//     dependency chain. No stale ops → install as-is. A pure commutative
//     increment nobody consumed is never stale: the install re-applies
//     it against the current value, so concurrent adds compose. A short
//     dirty suffix is *repaired* inside the critical section: only the
//     dirty ops re-execute against the now-frozen committed state,
//     rollback predicates are re-evaluated on the fresh inputs (a
//     flipped decision surfaces as txn.ErrRollback, exactly as a fresh
//     run would decide), and the result is installed — full
//     serializability, no work thrown away. A long dirty suffix is
//     re-executed outside the lock and re-validated, a bounded number
//     of rounds, before falling back to a retryable abort.
//   - ε absorption (the ESR twist, queries only): when every stale op
//     is a plain read, committing the stale values as-is can be priced
//     against the query's import budget and each writer's export
//     account. If it fits, nothing is repaired or aborted and the
//     charges go through the DC-event observer into the ε-provenance
//     ledger.
//
// The three policies:
//
//   - Abort: zero repair budget, so any stale op that is not absorbed
//     is a retryable abort — classic backward validation. The snapshot
//     point is the begin sequence (a key committed to since begin is
//     stale even if the read came later), a query's stale read is
//     priced at every such writer's declared bound, and reads are
//     reported to the observer as they happen, because they are final.
//   - Repair: the repair budget above, no absorption.
//   - RepairSkip: Repair, plus absorption priced by the exact distance
//     between the stale value and the committed one (the "ε-skip").
//
// Validation reads versions from the store cells alone. Only the two
// policies that absorb keep a validation window (per-key chains of the
// committed writes, their records, the active set) to price it; Repair
// keeps none.
//
// Under the repair policies observer events (reads, writes) are emitted
// inside the install critical section with the final post-repair
// values, so the recorded history — and hence the serial-replay oracle
// — judges what actually committed, not the read-phase snapshots.
package rdc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"asynctp/internal/dc"
	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// ErrValidation is the retryable abort returned when stale inputs can
// be neither absorbed nor repaired within the policy's budget; the
// caller re-runs the piece from scratch.
var ErrValidation = errors.New("rdc: validation failed")

// Policy selects what validation does with a stale input; it is fixed
// at construction.
type Policy int

// Policies, in order of how much they salvage from a stale execution.
const (
	// Abort retries the piece, unless a query can absorb the conflicts
	// at the writers' declared bounds.
	Abort Policy = iota
	// Repair re-executes only the stale ops.
	Repair
	// RepairSkip is Repair, except that a query whose stale reads fit its
	// remaining ε budget by exact distance commits them unrepaired.
	RepairSkip
)

// Repair bounds of the repair policies: at most repairInline dirty ops
// re-execute inside the critical section (each paying the simulated op
// cost while every other commit waits); larger repairs run outside the
// lock for at most repairRounds rounds before falling back to a full
// re-run. The abort policy is the same mechanism with both at zero.
//
// "Short" is a wall-clock judgment, not just an op count:
// inlineWorkBudget caps the simulated work a repair may perform while
// holding e.mu. With per-op delays at I/O scale even a one-op repair
// would convoy every other committer behind the lock, so such repairs
// take the out-of-lock rounds path instead.
const (
	repairInline     = 4
	repairRounds     = 3
	inlineWorkBudget = 100 * time.Microsecond
)

// opRec is one operation's provenance record: where its input came
// from and the values the execution computed from it.
type opRec struct {
	op *txn.Op // in the program, which outlives the record
	// cell is op.Key's store cell, resolved at registration or by Run.
	cell *storage.Cell
	// local is the index of the program op whose buffered write produced
	// this op's input (reads of own writes), or -1 when the input came
	// from the committed store.
	local int
	// ver is the cell's version read together with in (local < 0 only):
	// the seq of the commit that installed the value, 0 for a value no
	// commit of an engine stamped, or a negative store restore epoch.
	ver int64
	// in and out are the input value used and the value produced (the
	// written value, or the input itself for reads).
	in, out metric.Value
	// dirty marks a stale op during validation; slot is a write's index in
	// the install batch (a rewrite shares its key's first write's slot);
	// reapply caches reappliable(recs, i).
	dirty, reapply bool
	slot           int
}

// recBuf is a Repair attempt's recycled provenance records.
type recBuf struct{ recs []opRec }

// window is the validation window of a policy that prices absorptions:
// each cell's chain of the committed writes still in it, their records
// in seq order, and the active transactions' start seqs for GC.
type window struct {
	index  map[*storage.Cell][]verEntry
	recs   []*commitRec
	active map[lock.Owner]int64
}

// commitRec is one committed transaction's validation-window record; the
// per-key index points into it for export accounting.
type commitRec struct {
	seq         int64
	owner       lock.Owner
	recs        []opRec // its provenance records: the keys and bounds written
	exported    metric.Fuzz
	exportLimit metric.Limit
}

// boundOf returns the bound c's last write of cell declared.
func (c *commitRec) boundOf(cell *storage.Cell) metric.Limit {
	for i := len(c.recs) - 1; i >= 0; i-- {
		if rec := &c.recs[i]; rec.op.Kind == txn.OpWrite && rec.cell == cell {
			return rec.op.Bound
		}
	}
	panic("rdc: version chain names a writer that did not write the key")
}

// verEntry is one committed write in a key's version chain.
type verEntry struct {
	seq int64
	rec *commitRec
}

// Stats counts engine events.
type Stats struct {
	Commits uint64
	// Aborts counts validation failures returned as retryable aborts.
	Aborts uint64
	// Repairs counts commits that re-executed at least one op instead of
	// aborting; RepairedOps counts the ops re-executed.
	Repairs     uint64
	RepairedOps uint64
	// RepairRounds counts out-of-lock repair rounds (dirty suffix too
	// long for the critical section).
	RepairRounds uint64
	// Absorbed counts conflicts charged to ε accounts instead of aborted
	// or repaired (one per stale read and charged writer); Skips counts
	// the commits that kept stale reads that way and SkippedFuzz the
	// total fuzziness they imported.
	Absorbed    uint64
	Skips       uint64
	SkippedFuzz metric.Fuzz
	// ReApplied counts stale commutative increments refreshed at install
	// instead of repaired: a pure unobserved increment's effect is
	// independent of its input, so staleness needs no repair round.
	ReApplied uint64
	// VerifyFailures counts self-check mismatches (verify mode only):
	// repaired outcomes that differ from a fresh full re-execution.
	VerifyFailures uint64
	// GCRetained is the current validation-window size; always 0 under
	// Repair, which validates against the store cells alone.
	GCRetained int
}

// Engine is the optimistic divergence-control executor for one store.
type Engine struct {
	// The fields up to the padding are set by NewEngine and the Set*
	// methods before use and read without e.mu.
	store   *storage.Store
	obs     txn.Observer
	policy  Policy
	opDelay time.Duration
	step    txn.StepHook
	dcObs   func(dc.Event)
	repObs  func(owner lock.Owner, d time.Duration)
	verify  bool
	inline  int
	rounds  int
	// win is nil under Repair: its one reader is absorbLocked. What it
	// points to is guarded by e.mu.
	win *window
	// recBufs recycles provenance records under Repair, where no window
	// keeps them past their attempt.
	recBufs sync.Pool
	// The padding keeps what an install writes under e.mu off the cache
	// lines the other cores' read phases read.
	_ [64]byte

	mu sync.Mutex
	// seq is the last commit's sequence number; an install stamps its
	// writes in the store with it, so the store's cells are the per-key
	// version index validation reads.
	seq int64
	// cells is the install's scratch: the batch's cells, in batch order.
	cells     []*storage.Cell
	stats     Stats
	verifyMsg string
}

// NewEngine builds an engine over store under policy; obs may be nil.
// Its sequence starts past every version already in the store.
func NewEngine(store *storage.Store, obs txn.Observer, policy Policy) *Engine {
	e := &Engine{store: store, obs: obs, policy: policy, seq: store.MaxVersion()}
	if policy != Abort {
		e.inline, e.rounds = repairInline, repairRounds
	}
	if policy != Repair {
		e.win = &window{index: make(map[*storage.Cell][]verEntry), active: make(map[lock.Owner]int64)}
	}
	return e
}

// SetOpDelay makes every operation take d of simulated work — during
// the read phase, and again for every op a repair re-executes (repaired
// work is not free; that is the point of repairing less of it).
func (e *Engine) SetOpDelay(d time.Duration) { e.opDelay = d }

// SetStepHook installs a step hook consulted before every read-phase
// operation and before the validate-and-install critical section.
func (e *Engine) SetStepHook(h txn.StepHook) { e.step = h }

// SetDCObserver installs the divergence-control event observer: every
// absorbed conflict emits one dc.Event so the obs plane's ledger and
// metrics see the charge.
func (e *Engine) SetDCObserver(f func(dc.Event)) { e.dcObs = f }

// SetRepairObserver installs a callback timing each repair pass (both
// inline and out-of-lock rounds); the obs plane turns these into
// repair spans on the owning transaction's critical path.
func (e *Engine) SetRepairObserver(f func(owner lock.Owner, d time.Duration)) { e.repObs = f }

// SetVerify enables the install self-check (TEST-ONLY): before every
// install that absorbed nothing, the whole program is re-executed from
// scratch against the current committed state and the result must match
// the provenance records exactly. Mismatches count in
// Stats.VerifyFailures and the first is kept for VerifyFailure.
func (e *Engine) SetVerify(enabled bool) { e.verify = enabled }

// VerifyFailure returns the first self-check mismatch ("" when clean).
func (e *Engine) VerifyFailure() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.verifyMsg
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	if e.win != nil {
		st.GCRetained = len(e.win.recs)
	}
	return st
}

// Run executes p once under the given ε-spec and class, returning the
// outcome plus the fuzziness imported (absorbed conflicts only;
// repaired commits are fully serializable and import nothing).
// ErrValidation aborts are retryable; rollback statements return
// txn.ErrRollback. cells holds p's keys resolved to cells of the
// engine's store, in op order (txn.Resolve): every read, validation,
// repair and install goes through them.
func (e *Engine) Run(
	ctx context.Context,
	owner lock.Owner,
	p *txn.Program,
	cells []*storage.Cell,
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
	// start is the abort policy's snapshot point, and while owner is
	// active the window keeps every commit since it. Repair keeps no
	// window, so an attempt takes e.mu only to validate and install.
	var start int64
	if e.win != nil {
		e.mu.Lock()
		start, e.win.active[owner] = e.seq, e.seq
		e.mu.Unlock()
		defer e.end(owner)
	}

	// The abort policy never repairs, so a read is final the moment it
	// is made and is reported there: the recorded history then places the
	// transaction at its snapshot, where an absorbed stale read is exact.
	var readObs txn.Observer
	if e.policy == Abort {
		readObs = e.obs
	}
	out := &txn.Outcome{Owner: owner}
	var recs []opRec
	if e.win == nil {
		buf, _ := e.recBufs.Get().(*recBuf)
		if buf == nil {
			buf = new(recBuf)
		}
		if cap(buf.recs) < len(p.Ops) {
			buf.recs = make([]opRec, len(p.Ops))
		}
		recs = buf.recs[:len(p.Ops)]
		defer e.recBufs.Put(buf)
	} else {
		recs = make([]opRec, len(p.Ops)) // the window keeps them
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		if e.step != nil {
			e.step.OnStep(txn.Step{
				Owner: owner, Program: p.Name, Op: i, Kind: txn.StepApply,
				Key: op.Key, Write: op.Kind == txn.OpWrite,
			})
		}
		if e.opDelay > 0 {
			txn.SimWork(e.opDelay)
		}
		rec := &recs[i]
		*rec = opRec{op: op, cell: cells[i], local: -1}
		// A read of an own buffered write records a local dependency on
		// the latest earlier write of the cell, not a version.
		rec.local = lastWrite(recs[:i], rec.cell)
		if rec.local >= 0 {
			rec.in = recs[rec.local].out
		} else {
			rec.in, rec.ver = rec.cell.Load()
		}
		if op.AbortIf != nil && op.AbortIf(rec.in) {
			if e.obs != nil {
				e.obs.Abort(owner, txn.ErrRollback)
			}
			return out, 0, fmt.Errorf("op on %q: %w", op.Key, txn.ErrRollback)
		}
		rec.out = rec.in
		if op.Kind == txn.OpWrite {
			rec.out = op.Update(rec.in)
		} else if readObs != nil {
			readObs.Read(owner, op.Key, rec.in)
		}
	}

	if e.step != nil {
		e.step.OnStep(txn.Step{Owner: owner, Program: p.Name, Op: -1, Kind: txn.StepCommit})
	}
	batch := prepareInstall(recs)
	imported, err := e.commit(owner, spec, class, start, recs, batch)
	if err != nil {
		if e.obs != nil {
			e.obs.Abort(owner, err)
		}
		return out, 0, err
	}
	out.Reads = committedReads(recs)
	out.Writes = batch
	out.Committed = true
	if e.obs != nil {
		e.obs.Commit(owner)
	}
	return out, imported, nil
}

// lastWrite returns the index of the last write of cell in recs, or -1.
func lastWrite(recs []opRec, cell *storage.Cell) int {
	for j := len(recs) - 1; j >= 0; j-- {
		if recs[j].cell == cell && recs[j].op.Kind == txn.OpWrite {
			return j
		}
	}
	return -1
}

// prepareInstall builds the install batch outside the critical
// section, which then only validates and writes: each written key once,
// in first-write order, its value filled in at install. A write's slot
// is its key's index in the batch; a rewrite's local names the key's
// previous write, whose slot it shares.
func prepareInstall(recs []opRec) []storage.Write {
	keys := 0
	for i := range recs {
		rec := &recs[i]
		rec.reapply = reappliable(recs, i)
		switch {
		case rec.op.Kind != txn.OpWrite:
		case rec.local >= 0:
			rec.slot = recs[rec.local].slot
		default:
			rec.slot = keys
			keys++
		}
	}
	batch := make([]storage.Write, keys)
	for i := range recs {
		if rec := &recs[i]; rec.op.Kind == txn.OpWrite && rec.local < 0 {
			batch[rec.slot].Key = rec.op.Key
		}
	}
	return batch
}

// committedReads returns the values a committed attempt read, final
// after repair, in program order.
func committedReads(recs []opRec) []txn.ReadRec {
	n := 0
	for i := range recs {
		if recs[i].op.Kind == txn.OpRead {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	reads := make([]txn.ReadRec, 0, n)
	for i := range recs {
		if rec := &recs[i]; rec.op.Kind == txn.OpRead {
			reads = append(reads, txn.ReadRec{Key: rec.op.Key, Value: rec.out})
		}
	}
	return reads
}

// end unregisters and garbage-collects the validation window: committed
// records no active transaction can conflict with are dropped, and the
// per-cell version chains are pruned alongside.
func (e *Engine) end(owner lock.Owner) {
	e.mu.Lock()
	defer e.mu.Unlock()
	win := e.win
	delete(win.active, owner)
	min := e.seq
	for _, s := range win.active {
		if s < min {
			min = s
		}
	}
	// recs is sorted by seq: when even the oldest record is still
	// needed, skip the rebuild so a pinned window costs O(1) per end.
	if len(win.recs) == 0 || win.recs[0].seq > min {
		return
	}
	keep := win.recs[:0]
	for _, c := range win.recs {
		if c.seq > min {
			keep = append(keep, c)
			continue
		}
		// Chains are in seq order too, so c's entry heads the chain of each
		// key it wrote (a key's first write has no local producer).
		for i := range c.recs {
			op := c.recs[i].op
			if op.Kind != txn.OpWrite || c.recs[i].local >= 0 {
				continue
			}
			cell := c.recs[i].cell
			if ent := win.index[cell]; len(ent) > 1 {
				ent[0] = verEntry{}
				win.index[cell] = ent[1:]
			} else {
				delete(win.index, cell)
			}
		}
	}
	win.recs = keep
}

// commit validates, absorbs or repairs as the policy allows, and
// installs batch.
func (e *Engine) commit(
	owner lock.Owner,
	spec metric.Spec,
	class txn.Class,
	start int64,
	recs []opRec,
	batch []storage.Write,
) (metric.Fuzz, error) {
	var repairedOps uint64
	for round := 0; ; round++ {
		e.mu.Lock()
		nDirty := 0
		for i := range recs {
			rec := &recs[i]
			if rec.local >= 0 {
				// A repaired producer changes its output, so consumers of
				// the local workspace inherit its dirtiness.
				rec.dirty = recs[rec.local].dirty
			} else {
				_, ver := rec.cell.Load()
				moved := ver != rec.ver
				if e.policy == Abort {
					// Snapshot at begin: a commit since then conflicts even
					// if this op happened to read after it.
					moved = moved || ver > start
				}
				rec.dirty = moved && !rec.reapply
			}
			if rec.dirty {
				nDirty++
			}
		}
		if nDirty == 0 {
			err := e.installLocked(owner, spec, recs, batch, repairedOps, false)
			e.mu.Unlock()
			return 0, err
		}
		if e.policy != Repair && class == txn.Query {
			if imported, ok := e.absorbLocked(owner, spec, start, recs); ok {
				// Commit the stale values as-is; the conflicts are charged.
				err := e.installLocked(owner, spec, recs, batch, repairedOps, true)
				e.mu.Unlock()
				return imported, err
			}
		}
		if nDirty <= e.inline && time.Duration(nDirty)*e.opDelay <= inlineWorkBudget {
			// Short repair inside the critical section: the committed
			// state is frozen by e.mu, so one pass settles it.
			n, err := e.repairPass(owner, recs)
			repairedOps += n
			if err != nil {
				e.stats.RepairedOps += repairedOps
				e.mu.Unlock()
				return 0, err
			}
			err = e.installLocked(owner, spec, recs, batch, repairedOps, false)
			e.mu.Unlock()
			return 0, err
		}
		if round >= e.rounds {
			e.stats.RepairedOps += repairedOps
			e.stats.Aborts++
			e.mu.Unlock()
			return 0, fmt.Errorf("rdc: %d stale ops after %d repair rounds: %w", nDirty, e.rounds, ErrValidation)
		}
		e.stats.RepairRounds++
		e.mu.Unlock()
		// Long repair outside the lock: re-execute the dirty ops against
		// a racing store, then loop to re-validate what we produced.
		n, err := e.repairPass(owner, recs)
		repairedOps += n
		if err != nil {
			e.mu.Lock()
			e.stats.RepairedOps += repairedOps
			e.mu.Unlock()
			return 0, err
		}
	}
}

// reappliable reports whether recs[i] can take install-time
// re-application instead of repair: a committed-input commutative write
// with no rollback predicate whose workspace value no later op consumes.
// Its effect (the increment) is independent of its input, so the install
// refreshes it against the current value, costing no repair round and no
// simulated work.
func reappliable(recs []opRec, i int) bool {
	rec := &recs[i]
	if rec.local >= 0 || rec.op.Kind != txn.OpWrite || !rec.op.Commutative || rec.op.AbortIf != nil {
		return false
	}
	for j := i + 1; j < len(recs); j++ {
		if recs[j].local == i {
			return false
		}
	}
	return true
}

// repairPass re-executes every dirty op in program order: committed
// inputs are re-read with their versions, local inputs come from the
// already-repaired producer, and rollback predicates are re-evaluated
// on the fresh input — a flipped decision returns txn.ErrRollback. Each
// re-executed op pays the simulated op cost. Returns the number of ops
// repaired. The pass is timed for the repair observer, if one is
// installed, so the untraced path reads no clock.
func (e *Engine) repairPass(owner lock.Owner, recs []opRec) (uint64, error) {
	if e.repObs != nil {
		defer func(t0 time.Time) { e.repObs(owner, time.Since(t0)) }(time.Now())
	}
	var n uint64
	for i := range recs {
		rec := &recs[i]
		if !rec.dirty {
			continue
		}
		if rec.local >= 0 {
			rec.in = recs[rec.local].out
		} else {
			rec.in, rec.ver = rec.cell.Load()
		}
		if e.opDelay > 0 {
			txn.SimWork(e.opDelay)
		}
		n++
		if rec.op.AbortIf != nil && rec.op.AbortIf(rec.in) {
			return n, fmt.Errorf("repair of op on %q: %w", rec.op.Key, txn.ErrRollback)
		}
		rec.out = rec.in
		if rec.op.Kind == txn.OpWrite {
			rec.out = rec.op.Update(rec.in)
		}
	}
	return n, nil
}

// charge is one priced conflict: committing a stale read of cell as-is
// makes writer export cost to the reading query.
type charge struct {
	key    storage.Key
	cell   *storage.Cell
	writer *commitRec
	cost   metric.Fuzz
}

// priceLocked appends what committing rec's stale read as-is costs, or
// reports that no price exists. The abort policy charges every writer
// since the snapshot its declared bound (an unbounded write cannot be
// priced), once per key however many ops read it; the skip policy charges the last writer the exact distance
// between the committed value and the stale one (a writer that outran
// the window cannot be charged). Caller holds e.mu.
func (e *Engine) priceLocked(rec *opRec, start int64, charges []charge) ([]charge, bool) {
	cell := rec.cell
	ent := e.win.index[cell]
	if e.policy == Abort {
		for _, ch := range charges {
			if ch.cell == cell {
				return charges, true // priced by an earlier read of this key
			}
		}
		first := sort.Search(len(ent), func(i int) bool { return ent[i].seq > start })
		for _, w := range ent[first:] {
			bound := w.rec.boundOf(cell)
			if bound.IsInfinite() {
				return nil, false
			}
			charges = append(charges, charge{key: rec.op.Key, cell: cell, writer: w.rec, cost: bound.Bound()})
		}
		return charges, true
	}
	if len(ent) == 0 {
		return nil, false
	}
	committed, _ := cell.Load()
	cost := metric.Distance(committed, rec.in)
	return append(charges, charge{key: rec.op.Key, cell: cell, writer: ent[len(ent)-1].rec, cost: cost}), true
}

// absorbLocked is the one ε charge routine: it prices committing the
// stale values as-is without mutating any account, checks the query's
// import limit and each charged writer's export limit, and only then
// commits the charges and emits their dc.Events. Absorbable only when
// every dirty op is a plain committed read (no write derives from a
// stale input, no rollback predicate decided on one). Caller holds e.mu.
func (e *Engine) absorbLocked(
	owner lock.Owner,
	spec metric.Spec,
	start int64,
	recs []opRec,
) (metric.Fuzz, bool) {
	var charges []charge
	for i := range recs {
		rec := &recs[i]
		if !rec.dirty {
			continue
		}
		if rec.op.Kind != txn.OpRead || rec.op.AbortIf != nil || rec.local >= 0 {
			return 0, false
		}
		var ok bool
		if charges, ok = e.priceLocked(rec, start, charges); !ok {
			return 0, false
		}
	}
	var total metric.Fuzz
	pending := make(map[*commitRec]metric.Fuzz, len(charges))
	for _, ch := range charges {
		total = total.Add(ch.cost)
		pending[ch.writer] = pending[ch.writer].Add(ch.cost)
	}
	if !spec.Import.Allows(total) {
		return 0, false
	}
	for w, cost := range pending {
		if !w.exportLimit.Allows(w.exported.Add(cost)) {
			return 0, false
		}
	}
	for _, ch := range charges {
		ch.writer.exported = ch.writer.exported.Add(ch.cost)
		if e.dcObs != nil {
			e.dcObs(dc.Event{
				Key:       ch.key,
				Requester: owner,
				Absorbed:  true,
				Cost:      ch.cost,
				Pairs:     []dc.Pair{{Query: owner, Update: ch.writer.owner, Cost: ch.cost}},
			})
		}
	}
	e.stats.Absorbed += uint64(len(charges))
	e.stats.Skips++
	e.stats.SkippedFuzz = e.stats.SkippedFuzz.Add(total)
	return total, true
}

// installLocked emits the observer events with the final values,
// writes them into batch (prepared by prepareInstall) and installs it
// through the cells, stamped with the commit's seq, and records the
// commit in the validation window, if the policy keeps one. Caller
// holds e.mu.
func (e *Engine) installLocked(
	owner lock.Owner,
	spec metric.Spec,
	recs []opRec,
	batch []storage.Write,
	repairedOps uint64,
	absorbed bool,
) error {
	for i := range recs {
		rec := &recs[i]
		if !rec.reapply {
			continue
		}
		if in, ver := rec.cell.Load(); ver != rec.ver {
			rec.in, rec.ver = in, ver
			rec.out = rec.op.Update(in)
			e.stats.ReApplied++
		}
	}
	if e.verify && !absorbed {
		if msg := e.verifyLocked(recs); msg != "" {
			e.stats.VerifyFailures++
			if e.verifyMsg == "" {
				e.verifyMsg = msg
			}
		}
	}
	e.cells = e.cells[:0]
	for i := range recs {
		rec := &recs[i]
		switch rec.op.Kind {
		case txn.OpRead:
			if e.obs != nil && e.policy != Abort {
				e.obs.Read(owner, rec.op.Key, rec.out)
			}
		case txn.OpWrite:
			if e.obs != nil {
				// No write has been installed yet, so the cell still
				// holds the pre-transaction committed value.
				old, _ := rec.cell.Load()
				e.obs.Write(owner, rec.op.Key, old, rec.out, rec.op.Commutative)
			}
			batch[rec.slot].Value = rec.out
			if rec.local < 0 {
				e.cells = append(e.cells, rec.cell)
			}
		}
	}
	// The seq is spent even if Apply fails: its cells may already carry it.
	e.seq++
	if err := e.store.ApplyStamped(e.cells, batch, e.seq); err != nil {
		return err
	}
	if e.win != nil && len(batch) > 0 {
		c := &commitRec{seq: e.seq, owner: owner, recs: recs, exportLimit: spec.Export}
		for _, cell := range e.cells {
			e.win.index[cell] = append(e.win.index[cell], verEntry{seq: e.seq, rec: c})
		}
		e.win.recs = append(e.win.recs, c)
	}
	e.stats.Commits++
	e.stats.RepairedOps += repairedOps
	if repairedOps > 0 {
		e.stats.Repairs++
	}
	return nil
}

// verifyLocked re-executes the whole program from scratch against the
// current committed state and demands the result match the provenance-
// repaired records exactly — "byte-identical to a fresh full
// re-execution". Caller holds e.mu.
func (e *Engine) verifyLocked(recs []opRec) string {
	fresh := make([]metric.Value, len(recs)) // each op's fresh output
	for i := range recs {
		rec := &recs[i]
		in, _ := rec.cell.Load()
		if j := lastWrite(recs[:i], rec.cell); j >= 0 {
			in = fresh[j]
		}
		if in != rec.in {
			return fmt.Sprintf("op %d on %q: committed input %d, fresh run reads %d",
				i, rec.op.Key, rec.in, in)
		}
		if rec.op.AbortIf != nil && rec.op.AbortIf(in) {
			return fmt.Sprintf("op %d on %q: fresh run rolls back, repaired run committed",
				i, rec.op.Key)
		}
		out := in
		if rec.op.Kind == txn.OpWrite {
			out = rec.op.Update(in)
		}
		fresh[i] = out
		if out != rec.out {
			return fmt.Sprintf("op %d on %q: committed output %d, fresh run computes %d",
				i, rec.op.Key, rec.out, out)
		}
	}
	return ""
}

// Retryable reports whether err is a validation abort worth retrying.
func (e *Engine) Retryable(err error) bool { return errors.Is(err, ErrValidation) }
