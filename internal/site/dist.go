package site

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"asynctp/internal/chop"
	"asynctp/internal/commit"
	"asynctp/internal/dc"
	"asynctp/internal/fault"
	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/tracectx"
	"asynctp/internal/txn"
)

// Message kinds of the chopped-queue protocol.
const (
	// KindPieceDone notifies the origin site that one piece committed.
	// (Retained for routing compatibility; reports now ride the
	// recoverable queues so they survive message loss.)
	KindPieceDone = "piece.done"
	// pieceQueue is the recoverable queue carrying piece activations.
	pieceQueue = "pieces"
	// doneQueue is the recoverable queue carrying settlement reports
	// back to the origin site.
	doneQueue = "done"
)

// subTxn is the 2PC prepare payload: one site's slice of a distributed
// transaction.
type subTxn struct {
	Ops   []txn.Op
	Class txn.Class
	Spec  metric.Spec // site share of the ε-spec (split evenly)
	Name  string
	Inst  uint64 // distributed transaction identity (history group)
	Piece int    // stable per-site ordinal (trace piece index)
}

// subResult is the 2PC prepare result.
type subResult struct {
	Reads []txn.ReadRec
}

// activation rides a recoverable queue to start a dependent piece (or,
// with Compensate set, the inverse of an already-committed piece).
type activation struct {
	Inst       uint64
	Origin     simnet.SiteID
	TxType     int
	Piece      int
	Compensate bool
}

// doneBatch coalesces the settlement reports one worker produced for a
// single origin while draining one activation batch: one done-queue
// message (and so one wire payload) instead of one per piece.
type doneBatch struct {
	Reports []pieceDone
}

// pieceDone reports progress back to the origin: a committed piece, a
// committed compensation (Comp), or a business rollback at piece
// RolledAt (> 0) that triggered compensation of its predecessors.
type pieceDone struct {
	Inst     uint64
	Piece    int
	Comp     bool
	RolledAt int // 0 means "not a rollback report"
	Reads    []txn.ReadRec
	Imported metric.Fuzz
	Exported metric.Fuzz
	// Ctx carries the reporter's trace context (parent = the reporting
	// piece's span) so the origin can record the report-wire and ack
	// spans of the merged trace. Reports coalesce into doneBatch
	// messages spanning many instances, so the context rides each
	// report rather than the queue message. Zero when tracing is off.
	Ctx tracectx.Ctx
}

// Result describes one distributed submission.
type Result struct {
	// Committed reports full settlement (every piece / all sites).
	Committed bool
	// RolledBack reports a business rollback (first piece / any vote NO,
	// or a compensated later piece).
	RolledBack bool
	// Compensated reports that committed predecessor pieces were undone
	// by inverse pieces after a later rollback.
	Compensated bool
	// Initiation is the latency until the caller could proceed: the 2PC
	// decision, or the first piece's local commit under chopping.
	Initiation time.Duration
	// Settlement is the latency until every piece committed (equals
	// Initiation under 2PC).
	Settlement time.Duration
	// Reads are all values observed across sites/pieces.
	Reads []txn.ReadRec
	// Imported is the total fuzziness imported (DC runs).
	Imported metric.Fuzz
}

// SumReads totals the observed values.
func (r *Result) SumReads() metric.Value {
	var total metric.Value
	for _, rec := range r.Reads {
		total += rec.Value
	}
	return total
}

// distProgram is a registered distributed transaction type.
type distProgram struct {
	program *txn.Program
	// compensable marks programs with rollback statements beyond the
	// first piece, executed under the compensation protocol.
	compensable bool
	// chopped is the site-boundary chopping (ChoppedQueues strategy).
	chopped *chop.Chopped
	// pieceSite is each piece's owning site.
	pieceSite []simnet.SiteID
	// pieceSpecs is each piece's ε-spec share.
	pieceSpecs []metric.Spec
	// children lists dependent pieces per piece (dependency tree).
	children [][]int
}

// tracker follows one chopped instance to settlement at its origin.
// Progress is kept per piece index, not as counters: settlement reports
// ride at-least-once queues and are re-sent after crash redeliveries, so
// duplicates must collapse instead of inflating the count.
type tracker struct {
	total     int
	pieces    map[int]bool // committed pieces, by index
	comps     map[int]bool // committed compensations, by index
	rolledAt  int          // -1 until a rollback report arrives
	completed bool
	reads     []txn.ReadRec
	imported  metric.Fuzz
	done      chan struct{}
}

// newTracker builds a tracker for an instance with n pieces.
func newTracker(n int) *tracker {
	return &tracker{
		total:    n,
		pieces:   make(map[int]bool),
		comps:    make(map[int]bool),
		rolledAt: -1,
		done:     make(chan struct{}),
	}
}

// settled reports whether the instance reached its terminal state:
// either every piece committed, or the rollback piece's predecessors all
// committed and then compensated.
func (tr *tracker) settled() bool {
	if tr.rolledAt >= 0 {
		for pi := 0; pi < tr.rolledAt; pi++ {
			if !tr.pieces[pi] || !tr.comps[pi] {
				return false
			}
		}
		return true
	}
	return len(tr.pieces) == tr.total
}

// distState is the cluster's distributed-execution state.
type distState struct {
	mu       sync.Mutex
	programs []*distProgram
	trackers map[uint64]*tracker
	// registered is closed by the first successful RegisterPrograms,
	// after its whole table is appended. Piece workers wait for it:
	// NewCluster starts them over the queue image restored from storage,
	// and an activation recovered from that image (or retransmitted by a
	// peer's) names a program type the table must hold before the piece
	// can run. A registration that returns an error leaves it open, so
	// the workers stay idle and the queue image untouched until a later
	// registration succeeds.
	registered   chan struct{}
	registerOnce sync.Once
}

// RegisterPrograms declares the distributed job stream. For the
// ChoppedQueues strategy each program is chopped at site boundaries
// (consecutive ops on the same site form a piece) — the paper's "each
// piece resides at only one site" assumption — and each piece gets an
// even share of the transaction's ε-spec, as in the Section 4.1 example
// ($10,000 split $5,000 + $5,000 across two branch pieces). Programs
// with rollback statements outside the first piece are rejected
// (rollback-safety).
func (c *Cluster) RegisterPrograms(programs []*txn.Program) error {
	for _, p := range programs {
		if err := p.Validate(); err != nil {
			return err
		}
		dp := &distProgram{program: p}
		// Cut at site boundaries.
		var cuts []int
		for i := 1; i < len(p.Ops); i++ {
			if c.placement(p.Ops[i].Key) != c.placement(p.Ops[i-1].Key) {
				cuts = append(cuts, i)
			}
		}
		chopped, err := chop.FromCuts(p, cuts)
		if err != nil {
			if !c.compensate {
				return fmt.Errorf("site: %q cannot be chopped at site boundaries: %w", p.Name, err)
			}
			// Compensation mode: accept the rollback-unsafe chopping if
			// every write is an invertible commutative delta.
			chopped, err = chop.FromCutsCompensable(p, cuts)
			if err != nil {
				return fmt.Errorf("site: %q: %w", p.Name, err)
			}
			for _, op := range p.Ops {
				if op.Kind == txn.OpWrite && !op.Commutative {
					return fmt.Errorf(
						"site: %q needs compensation but write to %q is not an invertible delta",
						p.Name, op.Key)
				}
			}
			dp.compensable = true
		}
		dp.chopped = chopped
		for pi := 0; pi < chopped.NumPieces(); pi++ {
			ops := chopped.PieceOps(pi)
			siteID := c.placement(ops[0].Key)
			for _, op := range ops {
				if c.placement(op.Key) != siteID {
					return fmt.Errorf("site: %q piece %d spans sites", p.Name, pi)
				}
			}
			dp.pieceSite = append(dp.pieceSite, siteID)
		}
		n := chopped.NumPieces()
		dp.pieceSpecs = make([]metric.Spec, n)
		for pi := range dp.pieceSpecs {
			dp.pieceSpecs[pi] = metric.Spec{
				Import: p.Spec.Import.Div(n),
				Export: p.Spec.Export.Div(n),
			}
		}
		// Dependency tree (Figure 2): parent = latest conflicting earlier
		// sibling, else the first piece. Compensable programs run as a
		// strict chain so that a rollback at piece k implies exactly
		// pieces 0..k-1 committed.
		parents := make([]int, n)
		parents[0] = -1
		dp.children = make([][]int, n)
		if dp.compensable {
			for q := 1; q < n; q++ {
				parents[q] = q - 1
				dp.children[q-1] = append(dp.children[q-1], q)
			}
		} else {
			for q := 1; q < n; q++ {
				parent := 0
				for pi := q - 1; pi >= 1; pi-- {
					if opsConflictAcross(chopped.PieceOps(pi), chopped.PieceOps(q)) {
						parent = pi
						break
					}
				}
				parents[q] = parent
				dp.children[parent] = append(dp.children[parent], q)
			}
		}
		c.dist.mu.Lock()
		c.dist.programs = append(c.dist.programs, dp)
		c.dist.mu.Unlock()
	}
	c.dist.registerOnce.Do(func() { close(c.dist.registered) })
	// A process restarted against a durable disk image may hold origin
	// markers from its previous incarnation; now that the program table
	// exists, re-stage their successors (no-op on fresh stores).
	if c.Strategy == ChoppedQueues {
		for _, s := range c.sites {
			if err := s.restageOrigins(); err != nil {
				return fmt.Errorf("site: %s re-staging recovered origins: %w", s.ID, err)
			}
		}
	}
	return nil
}

// inverseOps builds the compensating operations for a committed piece:
// each commutative delta write is re-applied with the opposite delta
// (reads and rollback predicates are dropped). Registration guarantees
// every write in a compensable program is a pure commutative delta, so
// Update(0) recovers the delta.
func inverseOps(ops []txn.Op) []txn.Op {
	var out []txn.Op
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		if op.Kind != txn.OpWrite {
			continue
		}
		delta := op.Update(0)
		out = append(out, txn.AddOp(op.Key, -delta))
	}
	return out
}

// opsConflictAcross reports whether any op pair conflicts.
func opsConflictAcross(a, b []txn.Op) bool {
	for _, x := range a {
		for _, y := range b {
			if txn.OpsConflict(x, y) {
				return true
			}
		}
	}
	return false
}

// Submit runs one instance of registered program ti and waits for
// settlement (or ctx end). Under 2PC, initiation == settlement; under
// chopped queues, initiation is the first piece's commit.
func (c *Cluster) Submit(ctx context.Context, ti int) (*Result, error) {
	c.dist.mu.Lock()
	if ti < 0 || ti >= len(c.dist.programs) {
		c.dist.mu.Unlock()
		return nil, fmt.Errorf("site: program index %d out of range", ti)
	}
	dp := c.dist.programs[ti]
	c.dist.mu.Unlock()
	switch c.Strategy {
	case ChoppedQueues:
		return c.submitChopped(ctx, ti, dp)
	default:
		return c.submit2PC(ctx, dp)
	}
}

// ---------------------------------------------------------------------
// 2PC strategy
// ---------------------------------------------------------------------

// submit2PC runs the whole transaction as subtransactions under 2PC,
// coordinated from the first op's site.
func (c *Cluster) submit2PC(ctx context.Context, dp *distProgram) (*Result, error) {
	start := time.Now()
	// Split ops by site, preserving op order within each site.
	bySite := make(map[simnet.SiteID][]txn.Op)
	for _, op := range dp.program.Ops {
		siteID := c.placement(op.Key)
		bySite[siteID] = append(bySite[siteID], op)
	}
	spec := metric.Spec{
		Import: dp.program.Spec.Import.Div(len(bySite)),
		Export: dp.program.Spec.Export.Div(len(bySite)),
	}
	// Stable per-site piece ordinals for trace identity.
	siteIDs := make([]simnet.SiteID, 0, len(bySite))
	for siteID := range bySite {
		siteIDs = append(siteIDs, siteID)
	}
	sort.Slice(siteIDs, func(a, b int) bool { return siteIDs[a] < siteIDs[b] })
	ordinal := make(map[simnet.SiteID]int, len(siteIDs))
	for i, siteID := range siteIDs {
		ordinal[siteID] = i
	}
	payloads := make(map[simnet.SiteID]any, len(bySite))
	for siteID, ops := range bySite {
		payloads[siteID] = subTxn{
			Ops:   ops,
			Class: dp.program.Class(),
			Spec:  spec,
			Name:  dp.program.Name,
			Piece: ordinal[siteID],
		}
	}
	inst := c.nextInstID()
	for siteID, payload := range payloads {
		st := payload.(subTxn)
		st.Inst = inst
		payloads[siteID] = st
	}
	origin := c.sites[c.placement(dp.program.Ops[0].Key)]
	if origin == nil {
		return nil, fmt.Errorf("site: program %q originates at remote site %s",
			dp.program.Name, c.placement(dp.program.Ops[0].Key))
	}
	txid := fmt.Sprintf("%s-%d", dp.program.Name, inst)
	c.obs.TxnBegin(int64(inst), dp.program.Name)
	c.obs.BindBudget(int64(inst), dp.program.Name, dp.program.Class().String(),
		c.Strategy.String(), dp.program.Spec.Import)

	for {
		results, err := origin.node.Execute(ctx, txid, payloads)
		elapsed := time.Since(start)
		res := &Result{Initiation: elapsed, Settlement: elapsed}
		switch {
		case err == nil:
			res.Committed = true
			for _, r := range results {
				if sr, ok := r.(subResult); ok {
					res.Reads = append(res.Reads, sr.Reads...)
				}
			}
			c.obs.TxnEnd(int64(inst), true)
			return res, nil
		case errors.Is(err, commit.ErrAborted):
			res.RolledBack = true
			c.obs.TxnEnd(int64(inst), false)
			return res, nil
		case errors.Is(err, commit.ErrSystemAbort) && ctx.Err() == nil:
			// Distributed deadlock or divergence refusal: retry with a
			// fresh transaction id.
			txid = fmt.Sprintf("%s-%d", dp.program.Name, c.nextInstID())
			continue
		default:
			c.obs.TxnEnd(int64(inst), false)
			return res, err
		}
	}
}

// prepare2PC is the participant hook: execute the subtransaction, keep
// its locks, vote.
func (s *Site) prepare2PC(ctx context.Context, txid string, payload any) (any, error) {
	st, ok := payload.(subTxn)
	if !ok {
		return nil, errors.New("site: bad prepare payload")
	}
	s.mu.Lock()
	locks := s.locks
	store := s.Store
	ctl := s.ctl
	s.mu.Unlock()

	// Bound lock waits: distributed deadlocks are invisible to per-site
	// detectors; a timeout converts them into retryable system votes.
	ctx, cancel := context.WithTimeout(ctx, s.lockTimeout)
	defer cancel()
	owner := s.cluster.gen.Next()
	s.cluster.recordGroup(owner, st.Inst)
	var recObs txn.Observer
	if s.cluster.rec != nil {
		recObs = s.cluster.rec
	}
	rec := obs.TeeTxnObserver(recObs, s.cluster.obs.ExecObserver())
	s.cluster.obs.PieceBegin(int64(owner), int64(st.Inst), st.Piece,
		string(s.ID), st.Name+"@"+string(s.ID), st.Class,
		obs.PieceSpanID(st.Inst, st.Piece, false), obs.RootSpanID(st.Inst), "")
	if rec != nil {
		rec.Begin(owner, st.Name+"@"+string(s.ID), st.Class)
	}
	if ctl != nil {
		prog := &txn.Program{Name: st.Name + "@" + string(s.ID), Ops: st.Ops, Spec: st.Spec}
		if err := ctl.Register(owner, dc.Info{
			Class:   st.Class,
			Import:  st.Spec.Import,
			Export:  st.Spec.Export,
			Program: prog,
		}); err != nil {
			return nil, err
		}
	}
	pt := &preparedTxn{owner: owner, undo: make(map[storage.Key]metric.Value)}
	var reads []txn.ReadRec
	fail := func(err error) (any, error) {
		for k, v := range pt.undo {
			store.Set(k, v)
		}
		locks.ReleaseAll(owner)
		if ctl != nil {
			ctl.Unregister(owner)
		}
		if rec != nil {
			rec.Abort(owner, err)
		}
		return nil, err
	}
	for _, op := range st.Ops {
		mode := lock.Shared
		if op.Kind == txn.OpWrite {
			mode = lock.Exclusive
		}
		if err := locks.Acquire(ctx, owner, op.Key, mode); err != nil {
			return fail(err)
		}
		if s.opDelay > 0 {
			txn.SimWork(s.opDelay)
		}
		old := store.Get(op.Key)
		if op.AbortIf != nil && op.AbortIf(old) {
			return fail(fmt.Errorf("site: rollback statement: %w", commit.ErrBusinessVote))
		}
		switch op.Kind {
		case txn.OpRead:
			reads = append(reads, txn.ReadRec{Key: op.Key, Value: old})
			if rec != nil {
				rec.Read(owner, op.Key, old)
			}
		case txn.OpWrite:
			if _, seen := pt.undo[op.Key]; !seen {
				pt.undo[op.Key] = old
			}
			val := op.Update(old)
			store.Set(op.Key, val)
			if rec != nil {
				rec.Write(owner, op.Key, old, val, op.Commutative)
			}
		}
	}
	finals := make(map[storage.Key]metric.Value)
	for k := range pt.undo {
		finals[k] = store.Get(k)
	}
	for k, v := range finals {
		pt.batch = append(pt.batch, storage.Write{Key: k, Value: v})
	}
	s.mu.Lock()
	s.prepared[txid] = pt
	s.mu.Unlock()
	return subResult{Reads: reads}, nil
}

// commit2PC finalizes a prepared subtransaction.
func (s *Site) commit2PC(txid string) {
	s.mu.Lock()
	pt := s.prepared[txid]
	delete(s.prepared, txid)
	locks := s.locks
	ctl := s.ctl
	s.mu.Unlock()
	if pt == nil {
		return
	}
	// The writes are already in place; commit them as a batch and
	// wait for them to be durable before the decision is acknowledged: no
	// queue image follows a 2PC commit. A store that can do neither has
	// crashed.
	err := s.Store.Apply(pt.batch)
	if err == nil {
		err = s.Store.Sync()
	}
	if err != nil {
		s.crashFromWorker()
	}
	locks.ReleaseAll(pt.owner)
	var imported, exported metric.Fuzz
	if ctl != nil {
		imported, exported = ctl.Unregister(pt.owner)
	}
	s.cluster.obs.PieceSettle(int64(pt.owner), imported, exported)
	if s.cluster.rec != nil {
		s.cluster.rec.Commit(pt.owner)
	}
	if eo := s.cluster.obs.ExecObserver(); eo != nil {
		eo.Commit(pt.owner)
	}
}

// abort2PC rolls back a prepared subtransaction.
func (s *Site) abort2PC(txid string) {
	s.mu.Lock()
	pt := s.prepared[txid]
	delete(s.prepared, txid)
	locks := s.locks
	ctl := s.ctl
	s.mu.Unlock()
	if pt == nil {
		return
	}
	for k, v := range pt.undo {
		s.Store.Set(k, v)
	}
	locks.ReleaseAll(pt.owner)
	var imported, exported metric.Fuzz
	if ctl != nil {
		imported, exported = ctl.Unregister(pt.owner)
	}
	s.cluster.obs.PieceSettle(int64(pt.owner), imported, exported)
	if s.cluster.rec != nil {
		s.cluster.rec.Abort(pt.owner, commit.ErrAborted)
	}
	if eo := s.cluster.obs.ExecObserver(); eo != nil {
		eo.Abort(pt.owner, commit.ErrAborted)
	}
}

// ---------------------------------------------------------------------
// Chopped-queues strategy
// ---------------------------------------------------------------------

// submitChopped runs the first piece at its site, activates dependents
// through recoverable queues, and waits for settlement.
func (c *Cluster) submitChopped(ctx context.Context, ti int, dp *distProgram) (*Result, error) {
	start := time.Now()
	origin := c.sites[dp.pieceSite[0]]
	if origin == nil {
		// Multi-process deployments submit each transaction at the process
		// owning its first piece; remote-origin programs are someone
		// else's to initiate.
		return nil, fmt.Errorf("site: program %q originates at remote site %s",
			dp.program.Name, dp.pieceSite[0])
	}
	inst := c.nextInstID()
	c.obs.TxnBegin(int64(inst), dp.program.Name)
	c.obs.BindBudget(int64(inst), dp.program.Name, dp.program.Class().String(),
		c.Strategy.String(), dp.program.Spec.Import)
	tr := newTracker(dp.chopped.NumPieces())
	c.dist.mu.Lock()
	c.dist.trackers[inst] = tr
	c.dist.mu.Unlock()
	defer func() {
		c.dist.mu.Lock()
		delete(c.dist.trackers, inst)
		c.dist.mu.Unlock()
	}()

	done, err := origin.runPiece(ctx, activation{
		Inst: inst, Origin: origin.ID, TxType: ti, Piece: 0,
	}, dp)
	if err != nil {
		c.obs.TxnEnd(int64(inst), false)
		if errors.Is(err, txn.ErrRollback) {
			return &Result{
				RolledBack: true,
				Initiation: time.Since(start),
				Settlement: time.Since(start),
			}, nil
		}
		return nil, err
	}
	// The piece's batch, and the children it staged, are durable before
	// the caller hears of the commit: one image persist, which also lets
	// the children onto the wire, or a store sync for a piece that staged
	// nothing.
	wait := origin.queues.Persist
	if len(dp.children[0]) == 0 {
		wait = origin.Store.Sync
	}
	if err := origin.makeDurable(wait, done); err != nil {
		c.obs.TxnEnd(int64(inst), false)
		return nil, err
	}
	initiation := time.Since(start)
	c.recordDone(done)

	select {
	case <-tr.done:
	case <-ctx.Done():
		c.obs.TxnEnd(int64(inst), false)
		return nil, ctx.Err()
	}
	c.dist.mu.Lock()
	res := &Result{
		Committed:   tr.rolledAt < 0,
		RolledBack:  tr.rolledAt >= 0,
		Compensated: tr.rolledAt >= 0,
		Initiation:  initiation,
		Settlement:  time.Since(start),
		Reads:       append([]txn.ReadRec(nil), tr.reads...),
		Imported:    tr.imported,
	}
	c.dist.mu.Unlock()
	c.obs.TxnEnd(int64(inst), res.Committed)
	return res, nil
}

// nextInstID hands out instance IDs.
func (c *Cluster) nextInstID() uint64 {
	c.nextInst.Lock()
	defer c.nextInst.Unlock()
	c.instSeq++
	return c.instSeq
}

// errInjectedCrash is the sentinel a fault hook raises out of runPiece:
// the piece committed but the site fail-stops before staging its
// successors and report (fault.PointPreReport).
var errInjectedCrash = errors.New("site: fault-injected crash")

// stageChildren commits the dependent activations of a committed piece
// to the queue, where they wait for the site's next persist (durable).
// Safe to repeat: receivers dedup application on (inst, piece) and the
// origin's tracker dedups reports.
func (s *Site) stageChildren(act activation, dp *distProgram) {
	buf := s.queues.Buffer()
	obsP := s.cluster.obs
	for _, child := range dp.children[act.Piece] {
		// The child's trace context names this committed piece's span
		// as the remote parent (zero ctx when tracing is off).
		ctx := obsP.SpanCtx(act.Inst, obs.PieceSpanID(act.Inst, act.Piece, false))
		buf.EnqueueCtx(dp.pieceSite[child], pieceQueue, activation{
			Inst: act.Inst, Origin: act.Origin, TxType: act.TxType, Piece: child,
		}, ctx)
	}
	if buf.Len() > 0 {
		s.queues.CommitSend(buf)
	}
}

// makeDurable waits for the pieces reported in done, committed here just
// before, to be durable together with everything they staged: wait is
// the queue's persist barrier, which also lets their staged messages
// onto the wire, or a store sync where no image needs writing. The wait
// is each piece's fsync phase. A failed wait fail-stops the site: the
// log refuses every write after an error, so nothing the pieces
// committed or staged can become durable, and their messages stay held.
func (s *Site) makeDurable(wait func() error, done ...pieceDone) error {
	obsP := s.cluster.obs
	var t0 int64
	if obsP.SpansOn() {
		t0 = time.Now().UnixNano()
	}
	if err := wait(); err != nil {
		s.crashFromWorker()
		return err
	}
	if t0 > 0 {
		t1 := time.Now().UnixNano()
		for _, d := range done {
			obsP.SpanFsync(d.Inst, obs.PieceSpanID(d.Inst, d.Piece, d.Comp), d.Piece, d.Comp, t0, t1)
		}
	}
	return nil
}

// restageOrigins re-stages the successor activations of every origin
// (piece 0) commit recorded in the durable store. Non-origin pieces
// ride recoverable queues, so their lost stagings are resurrected by
// redelivery; piece 0 runs directly under Submit and has no queue
// behind it — after a crash (or a process restart against a disk
// image) the `__applied/<inst>/0` marker is the only witness that its
// children were owed. The marker value carries the program type, and
// staging is idempotent: downstream dedup collapses re-activations,
// and trackers of long-settled instances simply ignore the reports.
// One persist covers every re-staged activation; its error is returned
// with the site fail-stopped.
func (s *Site) restageOrigins() error {
	s.cluster.dist.mu.Lock()
	programs := append([]*distProgram(nil), s.cluster.dist.programs...)
	s.cluster.dist.mu.Unlock()
	if len(programs) == 0 {
		return nil
	}
	staged := false
	for _, key := range s.Store.Keys() {
		name := string(key)
		rest, ok := strings.CutPrefix(name, "__applied/")
		if !ok {
			continue
		}
		instStr, pieceStr, ok := strings.Cut(rest, "/")
		if !ok || pieceStr != "0" {
			continue
		}
		inst, err := strconv.ParseUint(instStr, 10, 64)
		if err != nil {
			continue
		}
		ti := int(s.Store.Get(key)) - 1
		if ti < 0 || ti >= len(programs) {
			continue
		}
		s.stageChildren(activation{Inst: inst, Origin: s.ID, TxType: ti, Piece: 0}, programs[ti])
		staged = true
	}
	if !staged {
		return nil
	}
	return s.makeDurable(s.queues.Persist)
}

// runPiece executes piece act.Piece of dp at site s, retrying system
// aborts until commit (resubmission of rollback-safe pieces), then
// stages the dependent activations through the recoverable queue in the
// same commit scope. It returns the pieceDone report. The caller makes
// the commit durable (see makeDurable) before anyone hears of it.
func (s *Site) runPiece(ctx context.Context, act activation, dp *distProgram) (pieceDone, error) {
	// Exactly-once application: redelivered activations (crash between a
	// piece's commit and its queue ack) must not re-apply the writes. The
	// dedup table answers from memory or from the durable marker key that
	// the piece's own commit batch wrote — "piece applied" and "marker
	// present" are atomic in every committed batch.
	key := pieceKey{inst: act.Inst, piece: act.Piece, comp: act.Compensate}
	if s.applied.applied(key) {
		// Redelivered after a crash in the commit→ack window. The piece's
		// effects are durable, but the crash may have eaten its successor
		// activations, so re-stage them; duplicates collapse downstream.
		if !act.Compensate {
			s.stageChildren(act, dp)
		}
		return pieceDone{Inst: act.Inst, Piece: act.Piece, Comp: act.Compensate}, nil
	}
	marker := key.marker()
	var body []txn.Op
	name := fmt.Sprintf("%s/p%d", dp.program.Name, act.Piece+1)
	if act.Compensate {
		body = inverseOps(dp.chopped.PieceOps(act.Piece))
		name = fmt.Sprintf("%s/p%d~undo", dp.program.Name, act.Piece+1)
	} else {
		body = append(body, dp.chopped.PieceOps(act.Piece)...)
	}
	// The marker value encodes the program type (TxType+1, so it is
	// never zero): recovery can read it back and re-stage an origin
	// piece's successors without any volatile context.
	ops := append(append([]txn.Op(nil), body...), txn.SetOp(marker, metric.Value(act.TxType+1)))
	prog := &txn.Program{
		Name: name,
		Ops:  ops,
		Spec: dp.pieceSpecs[act.Piece],
	}
	class := dp.program.Class()
	// The piece span's tree edge: origin pieces hang off the root span
	// (opened in this process by submitChopped); activation-delivered
	// pieces hang off the mailbox span the worker recorded when it
	// picked the activation up.
	pieceSpan := obs.PieceSpanID(act.Inst, act.Piece, act.Compensate)
	parentSpan := obs.RootSpanID(act.Inst)
	if act.Piece != 0 || act.Compensate {
		parentSpan = obs.MailboxSpanID(act.Inst, act.Piece, act.Compensate)
	}
	for {
		s.mu.Lock()
		exec := s.exec
		ctl := s.ctl
		s.mu.Unlock()
		owner := s.cluster.gen.Next()
		s.cluster.recordGroup(owner, act.Inst)
		s.cluster.obs.PieceBegin(int64(owner), int64(act.Inst), act.Piece,
			string(s.ID), prog.Name, class, pieceSpan, parentSpan, "")
		if ctl != nil {
			if err := ctl.Register(owner, dc.Info{
				Class:   class,
				Import:  prog.Spec.Import,
				Export:  prog.Spec.Export,
				Program: prog,
			}); err != nil {
				return pieceDone{}, err
			}
		}
		out, err := exec.Run(ctx, owner, prog)
		var imported, exported metric.Fuzz
		if ctl != nil {
			imported, exported = ctl.Unregister(owner)
		}
		s.cluster.obs.PieceSettle(int64(owner), imported, exported)
		if err == nil {
			s.applied.record(key)
			// Injection point: the piece has committed (marker and all)
			// but nothing has been staged yet — a crash here loses the
			// successor activations and the report, and only the
			// redelivered, dedup'd activation can resurrect them.
			if h := s.cluster.faultHook; h != nil &&
				h.ShouldCrash(fault.PointPreReport, s.ID, act.Inst, act.Piece, act.Compensate) {
				return pieceDone{}, errInjectedCrash
			}
			// Stage successor activations now that the piece has
			// committed; the caller's persist makes them durable and
			// sends them. Compensation pieces have no successors.
			if !act.Compensate {
				s.stageChildren(act, dp)
			}
			return pieceDone{
				Inst:     act.Inst,
				Piece:    act.Piece,
				Comp:     act.Compensate,
				Reads:    out.Reads,
				Imported: imported,
				Exported: exported,
			}, nil
		}
		if !txn.Retryable(err) || ctx.Err() != nil {
			return pieceDone{}, err
		}
	}
}

// startWorkers launches the piece-consuming worker pool (sized by
// WithWorkers) and the settlement report consumer.
func (s *Site) startWorkers() {
	s.mu.Lock()
	s.stopWorkers = make(chan struct{})
	stop := s.stopWorkers
	s.mu.Unlock()
	for i := 0; i < s.workers; i++ {
		s.workerWG.Add(1)
		go s.workerLoop(stop)
	}
	s.workerWG.Add(1)
	go s.doneLoop(stop)
}

// doneLoop consumes settlement reports addressed to this site's
// submissions, draining them in batches (reports arrive both singly and
// as coalesced doneBatch payloads).
func (s *Site) doneLoop(stop <-chan struct{}) {
	defer s.workerWG.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	for {
		batch, err := s.queues.DequeueBatch(ctx, doneQueue, defaultActivationBatch)
		if err != nil {
			return
		}
		for _, d := range batch.Deliveries {
			switch p := d.Msg.Payload.(type) {
			case pieceDone:
				s.recordReportHop(p, d.Msg.ArrivedAt)
				s.cluster.recordDone(p)
			case doneBatch:
				for _, done := range p.Reports {
					s.recordReportHop(done, d.Msg.ArrivedAt)
					s.cluster.recordDone(done)
				}
			}
		}
		batch.Ack()
	}
}

// recordReportHop records the report-wire and ack spans for one
// settlement report arriving over the done queue. Rollback reports
// (RolledAt > 0) key their hop spans on the rolled piece so they never
// collide with piece 0's own report.
func (s *Site) recordReportHop(done pieceDone, arrivedNS int64) {
	piece := done.Piece
	if done.RolledAt > 0 {
		piece = done.RolledAt
	}
	s.cluster.obs.SpanReportHop(done.Inst, piece, done.Comp, done.Ctx, arrivedNS)
}

// stopWorkersAndWait signals the workers and waits for them.
func (s *Site) stopWorkersAndWait() {
	s.mu.Lock()
	if s.stopWorkers != nil {
		select {
		case <-s.stopWorkers:
		default:
			close(s.stopWorkers)
		}
	}
	s.mu.Unlock()
	s.workerWG.Wait()
}

// actStatus is the outcome of processing one activation from a batch.
type actStatus int

const (
	// actDone: the activation's effects and reports are staged; its
	// delivery may be acknowledged.
	actDone actStatus = iota
	// actCrashed: a fault hook fail-stopped the site mid-activation
	// (fault.PointPreReport); nothing after it was staged and no
	// delivery in the batch may be acknowledged.
	actCrashed
	// actFailed: the piece could not run (worker stopped / crash-stop);
	// the activation must be redelivered.
	actFailed
)

// workerLoop consumes piece activations until stopped, draining them in
// batches of up to defaultActivationBatch to amortize wakeups,
// settlement reports (one coalesced done-queue message per origin per
// batch), and the persist: one image per batch, written after its
// children and reports are committed and its deliveries acked, makes
// the batch's pieces durable and releases everything they staged onto
// the wire.
func (s *Site) workerLoop(stop <-chan struct{}) {
	defer s.workerWG.Done()
	select {
	case <-s.cluster.dist.registered:
	case <-stop:
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	for {
		batch, err := s.queues.DequeueBatch(ctx, pieceQueue, defaultActivationBatch)
		if err != nil {
			return // stopped
		}
		reports := make(map[simnet.SiteID][]pieceDone)
		processed := 0
		status := actDone
		for _, d := range batch.Deliveries {
			act, ok := d.Msg.Payload.(activation)
			if !ok {
				processed++
				continue
			}
			// Record the hop: wire span (sender commit-send → local
			// admission) and mailbox span (admission → now). No-op when
			// tracing is off or the sender stamped no context.
			s.cluster.obs.SpanActivationHop(act.Inst, act.Piece, act.Compensate,
				d.Msg.Ctx, d.Msg.ArrivedAt)
			if status = s.processActivation(ctx, act, reports); status != actDone {
				break
			}
			processed++
		}
		if status == actCrashed {
			// PointPreReport: the faulted piece committed but nothing was
			// staged for it — and the reports accumulated for earlier
			// activations in this batch die with the site too. Every
			// unacked delivery is redelivered after Recover; the dedup
			// table turns the re-executions into report resends.
			s.crashFromWorker()
			return
		}
		// Stage the settlement reports BEFORE acking the deliveries: a
		// crash between the two redelivers the activations, and dedup
		// turns the re-executions into report resends — at-least-once
		// reports, collapsed at the origin's per-piece tracker.
		local := s.flushReports(reports)
		for i := 0; i < processed; i++ {
			d := batch.Deliveries[i]
			if act, ok := d.Msg.Payload.(activation); ok && s.preAckCrash(act) {
				// Fail-stop before this ack: everything from here on in the
				// batch (acked or not) is recovered from the durable
				// snapshot; redeliveries dedup.
				return
			}
			d.Ack()
		}
		if status == actFailed {
			// Worker stopped or crash-stop mid-piece: return the
			// unprocessed tail (failed activation included) to the queue
			// front for redelivery after recovery.
			for i := len(batch.Deliveries) - 1; i >= processed; i-- {
				batch.Deliveries[i].Nack()
			}
		}
		var committed []pieceDone
		if s.cluster.obs.SpansOn() {
			for _, list := range reports {
				for _, done := range list {
					if done.RolledAt == 0 {
						committed = append(committed, done)
					}
				}
			}
		}
		if s.makeDurable(s.queues.Persist, committed...) != nil {
			return
		}
		// A local report settles its tracker, so it waits for the persist
		// that made its piece durable.
		for _, done := range local {
			s.cluster.recordDone(done)
		}
		if status == actFailed {
			return
		}
	}
}

// processActivation runs one activation, appending any settlement
// reports it produces to the per-origin accumulator (flushed once per
// batch by flushReports).
func (s *Site) processActivation(ctx context.Context, act activation, reports map[simnet.SiteID][]pieceDone) actStatus {
	s.cluster.dist.mu.Lock()
	var dp *distProgram
	if act.TxType >= 0 && act.TxType < len(s.cluster.dist.programs) {
		dp = s.cluster.dist.programs[act.TxType]
	}
	s.cluster.dist.mu.Unlock()
	if dp == nil {
		// A type the table does not hold, e.g. a process restarted with
		// a shorter table than the one its queue image was written under.
		// The delivery goes back unacked and this worker stops: nothing is
		// dropped or applied, and a restart with the full table runs it.
		return actFailed
	}
	// A durably recorded rollback decision from a previous delivery:
	// re-stage the compensations and report without re-running the
	// piece (compensation itself may have flipped its predicate).
	if !act.Compensate && s.Store.Has(rolledMarker(act.Inst, act.Piece)) {
		s.stageRollback(act, dp, reports)
		return actDone
	}
	endAct := s.cluster.obs.ActivationBegin(int64(act.Inst), act.Piece, string(s.ID))
	defer endAct()
	done, err := s.runPiece(ctx, act, dp)
	if err == nil {
		reports[act.Origin] = append(reports[act.Origin], done)
		return actDone
	}
	if errors.Is(err, errInjectedCrash) {
		// PointPreReport: the piece committed but nothing was staged —
		// only the redelivery after Recover resurrects the lost staging.
		return actCrashed
	}
	if errors.Is(err, txn.ErrRollback) && dp.compensable && !act.Compensate {
		// A later piece hit its rollback statement: record the decision
		// durably, then compensate every committed predecessor (the
		// chain guarantees they are exactly pieces 0..Piece-1) and
		// report the rollback.
		_ = s.Store.Apply([]storage.Write{{Key: rolledMarker(act.Inst, act.Piece), Value: 1}})
		s.stageRollback(act, dp, reports)
		return actDone
	}
	return actFailed
}

// rolledMarker is the durable record of a business-rollback decision at
// (inst, piece): written the moment the rollback is first observed, it
// makes redeliveries re-stage compensations instead of re-evaluating a
// predicate that the compensations themselves may since have flipped.
func rolledMarker(inst uint64, piece int) storage.Key {
	return storage.Key(fmt.Sprintf("__rolled/%d/%d", inst, piece))
}

// stageRollback stages the compensating activations for the committed
// predecessors of a rolled-back piece, plus the rollback report to the
// origin; the worker's batch persist makes them durable. Safe to repeat
// after a redelivery: compensation application dedups on (inst, piece,
// comp) and the tracker collapses duplicate reports.
func (s *Site) stageRollback(act activation, dp *distProgram, reports map[simnet.SiteID][]pieceDone) {
	buf := s.queues.Buffer()
	// Compensations and the rollback report hang off the rolled
	// activation's mailbox span — the last span this process recorded
	// for the chain (the rolled piece itself aborted and left none).
	rbCtx := s.cluster.obs.SpanCtx(act.Inst, obs.MailboxSpanID(act.Inst, act.Piece, false))
	for pi := 0; pi < act.Piece; pi++ {
		buf.EnqueueCtx(dp.pieceSite[pi], pieceQueue, activation{
			Inst: act.Inst, Origin: act.Origin, TxType: act.TxType,
			Piece: pi, Compensate: true,
		}, rbCtx)
	}
	if buf.Len() > 0 {
		s.queues.CommitSend(buf)
	}
	reports[act.Origin] = append(reports[act.Origin], pieceDone{Inst: act.Inst, RolledAt: act.Piece, Ctx: rbCtx})
}

// flushReports stages the settlement reports a worker accumulated while
// draining one batch and returns the local ones, which the worker folds
// into their trackers after the batch's persist. Remote origins each
// get ONE done-queue message — a bare pieceDone for a single report, a
// doneBatch for several — so a drained batch costs one wire payload per
// origin instead of one per piece. Reports ride the recoverable queue
// (at-least-once) and the origin's tracker collapses duplicates.
func (s *Site) flushReports(reports map[simnet.SiteID][]pieceDone) (local []pieceDone) {
	if len(reports) == 0 {
		return nil
	}
	buf := s.queues.Buffer()
	for origin, list := range reports {
		if origin == s.ID {
			local = append(local, list...)
			continue
		}
		if s.cluster.obs.SpansOn() {
			// Stamp each remote report with its trace context so the
			// origin can record the report-wire hop. Rollback reports
			// were stamped at the decision point (stageRollback).
			for i := range list {
				if list[i].Ctx.Valid() {
					continue
				}
				list[i].Ctx = s.cluster.obs.SpanCtx(list[i].Inst,
					obs.PieceSpanID(list[i].Inst, list[i].Piece, list[i].Comp))
			}
		}
		if len(list) == 1 {
			buf.Enqueue(origin, doneQueue, list[0])
		} else {
			buf.Enqueue(origin, doneQueue, doneBatch{Reports: append([]pieceDone(nil), list...)})
		}
	}
	if buf.Len() > 0 {
		s.queues.CommitSend(buf)
	}
	return local
}

// preAckCrash consults the fault hook at PointPreAck — the piece is
// committed and everything is staged; only the queue ack remains — and
// fail-stops the site when it fires. True means the worker must exit
// without acking, leaving the delivery to be redelivered after Recover.
func (s *Site) preAckCrash(act activation) bool {
	h := s.cluster.faultHook
	if h == nil || !h.ShouldCrash(fault.PointPreAck, s.ID, act.Inst, act.Piece, act.Compensate) {
		return false
	}
	s.crashFromWorker()
	return true
}

// recordDone folds a progress report into its instance tracker.
func (c *Cluster) recordDone(done pieceDone) {
	c.dist.mu.Lock()
	defer c.dist.mu.Unlock()
	tr := c.dist.trackers[done.Inst]
	if tr == nil {
		return // settled after the submitter gave up; nothing to track
	}
	switch {
	case done.RolledAt > 0:
		tr.rolledAt = done.RolledAt
	case done.Comp:
		tr.comps[done.Piece] = true
	default:
		if !tr.pieces[done.Piece] {
			tr.pieces[done.Piece] = true
			tr.reads = append(tr.reads, done.Reads...)
			tr.imported = tr.imported.Add(done.Imported)
		}
	}
	if !tr.completed && tr.settled() {
		tr.completed = true
		close(tr.done)
	}
}

// handleDone routes a piece.done message (called from dispatch).
func (c *Cluster) handleDone(msg simnet.Message) {
	if done, ok := msg.Payload.(pieceDone); ok {
		c.recordDone(done)
	}
}
