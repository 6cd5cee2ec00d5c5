// Package obs is the observability plane of the chopped-transaction
// pipeline: a distributed span store that records each transaction as
// its tree of pieces and hops (root → piece → wire → mailbox → report →
// ack), merged across processes and read by the critical-path
// analyzer; an ε-provenance ledger that accounts every fuzziness debit
// back to its source conflict; and a lightweight metrics registry with
// Prometheus text exposition.
//
// The package sits ABOVE the engine packages in the import graph: it
// implements their observer seams (txn.StepHook, txn.Observer,
// lock.WaitObserver, the dc observer callback, queue.Observer,
// commit.Observer) but none of them import obs — when no Plane is
// configured, the engines keep their nil-observer fast paths and the
// whole subsystem costs nothing (proved by AllocsPerRun pins).
package obs

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asynctp/internal/commit"
	"asynctp/internal/dc"
	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/storage/driver"
	"asynctp/internal/tracectx"
	"asynctp/internal/txn"
)

// Plane bundles the observability consumers — ε-ledger, metrics
// registry, span store — behind the hook shims the engine packages
// expose. Any of them may be nil; a nil *Plane disables everything, and
// the engines keep their nil-observer fast paths because the wiring
// layers (core, site, the bench CLIs) only install the shims when a
// plane exists.
type Plane struct {
	Ledger  *Ledger
	Metrics *Registry

	// Spans is the process-local distributed-span store, nil unless
	// EnableSpans ran. Every span hook below checks it first, so the
	// disabled path stays branch-only and allocation-free.
	Spans *SpanStore

	m planeMetrics

	// waitMu/waitAt time lock waits for the wait-duration histogram.
	waitMu sync.Mutex
	waitAt map[int64]time.Time

	// spanMu guards the open-interval state the span hooks assemble
	// spans from: roots open between TxnBegin/TxnEnd, piece attempts
	// open between PieceBegin and the exec observer's Commit/Abort.
	spanMu     sync.Mutex
	openRoots  map[uint64]*openRoot
	openPieces map[int64]*openPiece

	flight *FlightRecorder

	// idBases counts the ID ranges IDBase has handed out.
	idBases atomic.Int64
}

// openRoot is an unsettled transaction's root span under assembly.
type openRoot struct {
	start int64
	name  string
	mode  string
}

// openPiece is a piece execution attempt under assembly, keyed by
// owner (each attempt has a fresh owner, and one goroutine runs it).
type openPiece struct {
	span       uint64
	parent     uint64
	parentProc string
	trace      uint64
	piece      int32
	comp       bool
	site       string
	name       string
	start      int64
}

// planeMetrics holds the pre-registered hot-path metric handles. All
// handles are nil (no-op) when the registry is nil.
type planeMetrics struct {
	txnBegun     *Counter
	txnCommitted *Counter
	txnAborted   *Counter

	pieceCommits       *Counter
	pieceAbortDeadlock *Counter
	pieceAbortRollback *Counter
	pieceAbortOther    *Counter

	lockWaits   *Counter
	lockWaitDur *Histogram

	dcAbsorbed *Counter
	dcRefused  *Counter
	dcCharged  *Counter
	dcImported *Counter
	dcExported *Counter

	queueSent        *Counter
	queueDelivered   *Counter
	queueRetransmits *Counter
	queueFlushes     *Counter
	queueBatchSize   *Histogram

	activations   *Counter
	activationDur *Histogram

	commitRoundVote *Histogram
	commitRoundAck  *Histogram
	commitCommits   *Counter
	commitAborts    *Counter

	walFsyncs       *Counter
	walSyncedRecs   *Counter
	walCohortSize   *Histogram
	storRecoveries  *Counter
	storReplayed    *Counter
	storTornBytes   *Counter
	storCheckpoints *Counter
	storPruned      *Counter

	tenantAdmitted *CounterVec
	tenantDegraded *CounterVec
	tenantShed     *CounterVec
	tenantEps      *CounterVec
}

// NewPlane assembles a plane from its (individually optional) parts.
func NewPlane(lg *Ledger, reg *Registry) *Plane {
	p := &Plane{Ledger: lg, Metrics: reg, waitAt: make(map[int64]time.Time)}
	if reg != nil {
		batchBuckets := []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
		p.m = planeMetrics{
			txnBegun:     reg.Counter("asynctp_txn_begun_total", "Transaction instances submitted."),
			txnCommitted: reg.Counter("asynctp_txn_settled_total", "Transaction instances settled.", "outcome", "committed"),
			txnAborted:   reg.Counter("asynctp_txn_settled_total", "Transaction instances settled.", "outcome", "aborted"),

			pieceCommits:       reg.Counter("asynctp_piece_commits_total", "Piece attempts committed."),
			pieceAbortDeadlock: reg.Counter("asynctp_piece_aborts_total", "Piece attempts aborted.", "reason", "deadlock"),
			pieceAbortRollback: reg.Counter("asynctp_piece_aborts_total", "Piece attempts aborted.", "reason", "rollback"),
			pieceAbortOther:    reg.Counter("asynctp_piece_aborts_total", "Piece attempts aborted.", "reason", "other"),

			lockWaits:   reg.Counter("asynctp_lock_waits_total", "Lock requests that blocked."),
			lockWaitDur: reg.Histogram("asynctp_lock_wait_seconds", "Lock wait durations.", nil),

			dcAbsorbed: reg.Counter("asynctp_dc_absorbed_total", "Read-write conflicts absorbed by divergence control."),
			dcRefused:  reg.Counter("asynctp_dc_refused_total", "Conflicts refused (fell back to blocking)."),
			dcCharged:  reg.Counter("asynctp_dc_charged_fuzz_total", "Total fuzziness charged across absorbed conflicts."),
			dcImported: reg.Counter("asynctp_dc_imported_fuzz_total", "Fuzziness imported, settled at piece unregister."),
			dcExported: reg.Counter("asynctp_dc_exported_fuzz_total", "Fuzziness exported, settled at piece unregister."),

			queueSent:        reg.Counter("asynctp_queue_sent_total", "Messages committed to durable outboxes."),
			queueDelivered:   reg.Counter("asynctp_queue_delivered_total", "Messages first-delivered (post-dedup)."),
			queueRetransmits: reg.Counter("asynctp_queue_retransmitted_total", "Messages retransmitted."),
			queueFlushes:     reg.Counter("asynctp_queue_flushes_total", "Batch flushes."),
			queueBatchSize:   reg.Histogram("asynctp_queue_batch_size", "Messages coalesced per flushed batch.", batchBuckets),

			activations:   reg.Counter("asynctp_site_activations_total", "Piece activations processed by site workers."),
			activationDur: reg.Histogram("asynctp_site_activation_seconds", "Activation processing durations (worker busy time).", nil),

			commitRoundVote: reg.Histogram("asynctp_2pc_round_seconds", "2PC round latencies.", nil, "round", "vote"),
			commitRoundAck:  reg.Histogram("asynctp_2pc_round_seconds", "2PC round latencies.", nil, "round", "ack"),
			commitCommits:   reg.Counter("asynctp_2pc_decisions_total", "Logged 2PC decisions.", "decision", "commit"),
			commitAborts:    reg.Counter("asynctp_2pc_decisions_total", "Logged 2PC decisions.", "decision", "abort"),

			walFsyncs:       reg.Counter("asynctp_wal_fsyncs_total", "WAL fsync batches (group commits)."),
			walSyncedRecs:   reg.Counter("asynctp_wal_synced_records_total", "WAL records made durable across all fsyncs."),
			walCohortSize:   reg.Histogram("asynctp_wal_cohort_size", "Records covered per fsync (group-commit batch size).", batchBuckets),
			storRecoveries:  reg.Counter("asynctp_storage_recoveries_total", "Site stores rebuilt from the durable image."),
			storReplayed:    reg.Counter("asynctp_storage_replayed_entries_total", "WAL entries replayed over snapshots during recovery."),
			storTornBytes:   reg.Counter("asynctp_storage_torn_bytes_total", "Torn-tail bytes discarded during recovery."),
			storCheckpoints: reg.Counter("asynctp_storage_checkpoints_total", "Snapshot+truncation checkpoint passes."),
			storPruned:      reg.Counter("asynctp_storage_pruned_segments_total", "WAL segment files deleted by checkpoints."),

			tenantAdmitted: reg.CounterVec("asynctp_tenant_admitted_total", "Requests admitted to a tenant's partition queue.", "tenant"),
			tenantDegraded: reg.CounterVec("asynctp_tenant_degraded_total", "Queries served via the ε-spending stale-read fast path.", "tenant"),
			tenantShed:     reg.CounterVec("asynctp_tenant_shed_total", "Requests shed after the degrade path was exhausted.", "tenant"),
			tenantEps:      reg.CounterVec("asynctp_tenant_epsilon_spent_fuzz_total", "Fuzziness charged for degraded (stale-read) serves.", "tenant"),
		}
		if lg != nil {
			reg.GaugeFunc("asynctp_epsilon_charged_fuzz", "Ledger: total import fuzziness charged across accounts.",
				func() float64 {
					var total metric.Fuzz
					for _, a := range lg.Accounts() {
						total = total.Add(a.Charged)
					}
					return float64(total)
				})
			reg.GaugeFunc("asynctp_epsilon_remaining_fuzz", "Ledger: total unspent budget across bounded accounts.",
				func() float64 {
					var total float64
					for _, a := range lg.Accounts() {
						if a.Name == "" || a.Budget.IsInfinite() {
							continue
						}
						if rem := a.Budget.Bound() - a.Charged; rem > 0 {
							total += float64(rem)
						}
					}
					return total
				})
		}
	}
	return p
}

// EnableSpans attaches a distributed span store identified as proc
// (the merge-level process name; must be unique per OS process in a
// multi-process run) bounded to limit spans (DefaultSpanLimit when
// <= 0). Returns the store for export. Safe to call once, before the
// plane is shared.
func (p *Plane) EnableSpans(proc string, limit int) *SpanStore {
	if p == nil {
		return nil
	}
	p.Spans = NewSpanStore(proc, limit)
	p.openRoots = make(map[uint64]*openRoot)
	p.openPieces = make(map[int64]*openPiece)
	return p.Spans
}

// EnableFlightRecorder arms the anomaly dump over the span store: on
// TriggerFlight (or the stall watchdog) the most recent `recent` spans
// are written to path ("-"/"" = stderr), once. Requires EnableSpans.
func (p *Plane) EnableFlightRecorder(path string, recent int) {
	if p == nil || p.Spans == nil {
		return
	}
	p.flight = NewFlightRecorder(p.Spans, path, recent)
}

// TriggerFlight fires the flight recorder (e.g. chaosbench calls it on
// an invariant violation). Returns true when this call produced the
// dump. Nil-safe.
func (p *Plane) TriggerFlight(reason string) bool {
	if p == nil {
		return false
	}
	return p.flight.Trigger(reason)
}

// Flight returns the recorder (nil when disarmed). Nil-safe.
func (p *Plane) Flight() *FlightRecorder {
	if p == nil {
		return nil
	}
	return p.flight
}

// SpansOn reports whether distributed span recording is enabled
// (nil-safe), so call sites can gate span-only work like timing the
// persistence path.
func (p *Plane) SpansOn() bool { return p != nil && p.Spans != nil }

// IDBase hands out a fresh base for the owner and group (instance) IDs
// of one runner or cluster that records into the plane: each numbers its
// transactions from base+1, and groups are trace IDs, so runners that
// share a plane without disjoint bases fold their traces into each
// other's. Ranges are 2^32 IDs apart and stay below the span store's
// 2^47 trace limit for 2^15 runners. A nil plane returns 0, the dense
// default.
func (p *Plane) IDBase() int64 {
	if p == nil {
		return 0
	}
	return p.idBases.Add(1) << 32
}

// SpanCtx mints the trace context to stamp on an outgoing message:
// trace plus the parent span (a deterministic structural ID recorded
// by this process). Zero Ctx when spans are off — receivers skip it.
func (p *Plane) SpanCtx(trace, parentSpan uint64) tracectx.Ctx {
	if p == nil || p.Spans == nil {
		return tracectx.Ctx{}
	}
	return p.Spans.Ctx(trace, parentSpan, time.Now().UnixNano())
}

// SpanActivationHop records the receiver-side hop spans for one piece
// activation: the wire span (sender SentAt → local admission) and the
// mailbox span (admission → now, the moment a worker picked it up).
// Call when processing begins. No-op when spans are off or the sender
// stamped no context.
func (p *Plane) SpanActivationHop(trace uint64, piece int, comp bool, ctx tracectx.Ctx, arrivedNS int64) {
	if p == nil || p.Spans == nil || !ctx.Valid() {
		return
	}
	p.Spans.Observe(ctx.Clock)
	now := time.Now().UnixNano()
	if arrivedNS == 0 {
		arrivedNS = now
	}
	wire := WireSpanID(trace, piece, comp)
	if ctx.SentAt > 0 {
		p.Spans.Add(Span{
			Trace: trace, ID: wire, Parent: ctx.Span, ParentProc: ctx.Proc,
			Kind: SpanWire, Phase: PhaseWire, Piece: int32(piece), Comp: comp,
			Start: ctx.SentAt, End: arrivedNS,
		})
	}
	p.Spans.Add(Span{
		Trace: trace, ID: MailboxSpanID(trace, piece, comp), Parent: wire,
		Kind: SpanMailbox, Phase: PhaseMailbox, Piece: int32(piece), Comp: comp,
		Start: arrivedNS, End: now,
	})
}

// SpanReportHop records the origin-side hop spans for one settlement
// report: the report wire span (reporter SentAt → local admission) and
// the ack span (admission → now, the tracker settle). Call at
// recordDone. No-op for local reports (no context) or spans off.
func (p *Plane) SpanReportHop(trace uint64, piece int, comp bool, ctx tracectx.Ctx, arrivedNS int64) {
	if p == nil || p.Spans == nil || !ctx.Valid() {
		return
	}
	p.Spans.Observe(ctx.Clock)
	now := time.Now().UnixNano()
	if arrivedNS == 0 {
		arrivedNS = now
	}
	rw := ReportWireSpanID(trace, piece, comp)
	if ctx.SentAt > 0 {
		p.Spans.Add(Span{
			Trace: trace, ID: rw, Parent: ctx.Span, ParentProc: ctx.Proc,
			Kind: SpanReportWire, Phase: PhaseWire, Piece: int32(piece), Comp: comp,
			Start: ctx.SentAt, End: arrivedNS,
		})
	}
	p.Spans.Add(Span{
		Trace: trace, ID: AckSpanID(trace, piece, comp), Parent: rw,
		Kind: SpanAck, Phase: PhaseAck, Piece: int32(piece), Comp: comp,
		Start: arrivedNS, End: now,
	})
}

// SpanFsync records a durability wait (queue-image/WAL persistence on
// the commit path) as a child of the piece span that paid it. No-op
// when spans are off or the wait was immeasurable.
func (p *Plane) SpanFsync(trace uint64, pieceSpan uint64, piece int, comp bool, startNS, endNS int64) {
	if p == nil || p.Spans == nil || endNS <= startNS {
		return
	}
	p.Spans.Add(Span{
		Trace: trace, ID: p.Spans.NextID(), Parent: pieceSpan,
		Kind: SpanFsync, Phase: PhaseFsync, Piece: int32(piece), Comp: comp,
		Start: startNS, End: endNS,
	})
}

// SpanRepair records conflict-repair work inside the owner's open
// piece attempt (the rdc engine reports the rounds' duration at
// install time). No-op when spans are off or the owner has no open
// attempt.
func (p *Plane) SpanRepair(owner int64, d time.Duration) {
	if p == nil || p.Spans == nil || d <= 0 {
		return
	}
	p.spanMu.Lock()
	op := p.openPieces[owner]
	p.spanMu.Unlock()
	if op == nil {
		return
	}
	now := time.Now().UnixNano()
	p.Spans.Add(Span{
		Trace: op.trace, ID: p.Spans.NextID(), Parent: op.span,
		Kind: SpanRepair, Phase: PhaseRepair, Piece: op.piece, Comp: op.comp,
		Site: op.site, Start: now - int64(d), End: now,
	})
}

// SpanAdmit records admission/mailbox wait ahead of a transaction's
// first piece (the tenant serving layer measures enqueue → runner
// pickup). Parented to the root span so sweep attribution lands it in
// the admit phase. No-op when spans are off.
func (p *Plane) SpanAdmit(trace uint64, startNS, endNS int64) {
	if p == nil || p.Spans == nil || endNS <= startNS {
		return
	}
	// The mailbox wait predates TxnBegin (the runner only mints the
	// instance after pickup), so rewind the open root to cover it —
	// otherwise the sweep clamps the admit interval away.
	p.spanMu.Lock()
	if r, ok := p.openRoots[trace]; ok && startNS < r.start {
		r.start = startNS
	}
	p.spanMu.Unlock()
	p.Spans.Add(Span{
		Trace: trace, ID: p.Spans.NextID(), Parent: RootSpanID(trace),
		Kind: SpanAdmit, Phase: PhaseAdmit, Piece: -1,
		Start: startNS, End: endNS,
	})
}

// Summary renders the plane's headline counters as human lines for
// folding into bench reports. Nil-safe (nil plane returns nil).
func (p *Plane) Summary() []string {
	if p == nil {
		return nil
	}
	var out []string
	if p.Metrics != nil {
		m := &p.m
		out = append(out,
			fmt.Sprintf("txns: %d begun, %d committed, %d aborted",
				m.txnBegun.Value(), m.txnCommitted.Value(), m.txnAborted.Value()),
			fmt.Sprintf("pieces: %d commits, %d aborts (deadlock %d, rollback %d, other %d)",
				m.pieceCommits.Value(),
				m.pieceAbortDeadlock.Value()+m.pieceAbortRollback.Value()+m.pieceAbortOther.Value(),
				m.pieceAbortDeadlock.Value(), m.pieceAbortRollback.Value(), m.pieceAbortOther.Value()),
			fmt.Sprintf("locks: %d waits", m.lockWaits.Value()),
			fmt.Sprintf("dc: %d absorbed, %d refused, %d fuzz charged",
				m.dcAbsorbed.Value(), m.dcRefused.Value(), m.dcCharged.Value()),
			fmt.Sprintf("queue: %d sent, %d delivered, %d retransmitted, %d flushes",
				m.queueSent.Value(), m.queueDelivered.Value(),
				m.queueRetransmits.Value(), m.queueFlushes.Value()),
			fmt.Sprintf("2pc: %d commits, %d aborts",
				m.commitCommits.Value(), m.commitAborts.Value()),
		)
		// Durability counters only appear when a disk driver actually ran
		// (a mem-driver bench would print a row of zeros otherwise).
		if m.walFsyncs.Value() > 0 || m.storRecoveries.Value() > 0 {
			out = append(out,
				fmt.Sprintf("wal: %d fsyncs covering %d records, %d recoveries (%d entries replayed, %d torn bytes), %d checkpoints (%d segments pruned)",
					m.walFsyncs.Value(), m.walSyncedRecs.Value(),
					m.storRecoveries.Value(), m.storReplayed.Value(), m.storTornBytes.Value(),
					m.storCheckpoints.Value(), m.storPruned.Value()),
			)
		}
		// Per-tenant breakdown, present only when the tenant serving
		// layer ran (a single-workload bench stays at the headline lines).
		admitted := m.tenantAdmitted.Snapshot()
		degraded := m.tenantDegraded.Snapshot()
		shed := m.tenantShed.Snapshot()
		eps := m.tenantEps.Snapshot()
		if len(admitted) > 0 || len(degraded) > 0 || len(shed) > 0 {
			names := make(map[string]bool)
			for t := range admitted {
				names[t] = true
			}
			for t := range degraded {
				names[t] = true
			}
			for t := range shed {
				names[t] = true
			}
			sorted := make([]string, 0, len(names))
			for t := range names {
				sorted = append(sorted, t)
			}
			sort.Strings(sorted)
			for _, t := range sorted {
				out = append(out, fmt.Sprintf("tenant %s: %d admitted, %d degraded, %d shed, %d ε charged",
					t, admitted[t], degraded[t], shed[t], eps[t]))
			}
		}
	}
	if p.Spans != nil {
		out = append(out, fmt.Sprintf("spans: %d recorded, %d buffered, %d evicted (evictions orphan children in the merge)",
			p.Spans.Total(), p.Spans.Len(), p.Spans.Evicted()))
		if p.flight != nil {
			if n := p.flight.Triggers(); n > 0 {
				out = append(out, fmt.Sprintf("flight recorder: %d anomaly trigger(s), first dump written", n))
			}
		}
	}
	if p.Ledger != nil {
		accts := p.Ledger.Accounts()
		over := p.Ledger.OverBudget()
		out = append(out, fmt.Sprintf("ledger: %d accounts, %d over budget",
			len(accts), len(over)))
	}
	return out
}

// TxnBegin marks a transaction instance submission and opens the root
// span when distributed tracing is on.
func (p *Plane) TxnBegin(group int64, name string) {
	if p == nil {
		return
	}
	p.m.txnBegun.Inc()
	if p.Spans != nil {
		p.spanMu.Lock()
		p.openRoots[uint64(group)] = &openRoot{start: time.Now().UnixNano(), name: name}
		p.spanMu.Unlock()
	}
}

// TxnEnd marks an instance settlement and closes the root span. The
// root's phase is its residual bucket in the critical-path sweep:
// 2PC-wait for commit-protocol transactions, settlement-ack wait
// otherwise.
func (p *Plane) TxnEnd(group int64, committed bool) {
	if p == nil {
		return
	}
	if committed {
		p.m.txnCommitted.Inc()
	} else {
		p.m.txnAborted.Inc()
	}
	if p.Spans != nil {
		p.spanMu.Lock()
		r := p.openRoots[uint64(group)]
		delete(p.openRoots, uint64(group))
		p.spanMu.Unlock()
		if r != nil {
			ph := PhaseAck
			if r.mode == "2pc" {
				ph = Phase2PC
			}
			p.Spans.Add(Span{
				Trace: uint64(group), ID: RootSpanID(uint64(group)),
				Kind: SpanTxn, Phase: ph, Piece: -1, Name: r.name,
				Start: r.start, End: time.Now().UnixNano(), Committed: committed,
			})
		}
	}
}

// BindBudget declares an instance's identity and ORIGINAL ε budget to
// the ledger (see Ledger.BindGroup), and tags the open root span's
// mode so the analyzer picks the right residual phase.
func (p *Plane) BindBudget(group int64, name, class, mode string, budget metric.Limit) {
	if p == nil {
		return
	}
	if p.Spans != nil {
		p.spanMu.Lock()
		if r := p.openRoots[uint64(group)]; r != nil {
			r.mode = mode
		}
		p.spanMu.Unlock()
	}
	p.Ledger.BindGroup(group, name, class, mode, budget)
}

// PieceBegin marks one piece execution attempt starting and binds the
// attempt's owner to its instance for ledger attribution. When
// distributed tracing is on, span names the attempt's structural span
// ID (PieceSpanID) and parent/parentProc its tree edge — the root span
// for origin and single-process pieces, the mailbox span for
// activation-delivered ones; the span is recorded when the attempt
// commits (aborted attempts leave no span, the retry re-begins).
func (p *Plane) PieceBegin(owner int64, group int64, piece int, site, name string,
	span, parent uint64, parentProc string) {
	if p == nil {
		return
	}
	if p.Spans != nil && span != 0 {
		p.spanMu.Lock()
		p.openPieces[owner] = &openPiece{
			span: span, parent: parent, parentProc: parentProc,
			trace: uint64(group), piece: int32(piece), comp: span&(0x80<<8) != 0,
			site: site, name: name, start: time.Now().UnixNano(),
		}
		p.spanMu.Unlock()
	}
	p.Ledger.BindPiece(owner, group, int32(piece))
}

// PieceSettle marks a piece attempt's fuzziness account settling at
// unregister (the DC level of the span hierarchy).
func (p *Plane) PieceSettle(owner int64, imported, exported metric.Fuzz) {
	if p == nil {
		return
	}
	p.m.dcImported.Add(int64(imported))
	p.m.dcExported.Add(int64(exported))
	p.Ledger.Settle(owner, imported, exported)
}

// ActivationBegin marks a site worker starting a queued piece
// activation; the returned function marks it processed.
func (p *Plane) ActivationBegin() func() {
	if p == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		p.m.activations.Inc()
		p.m.activationDur.ObserveDuration(time.Since(start))
	}
}

// TenantAdmit marks one request admitted to a tenant's partition
// mailbox on the normal (engine) path. Nil-safe, zero-alloc when
// disabled.
func (p *Plane) TenantAdmit(tenant string) {
	if p == nil {
		return
	}
	p.m.tenantAdmitted.With(tenant).Inc()
}

// TenantDegrade marks one query served via the ε-spending stale-read
// fast path, with the fuzziness charged for it. Nil-safe.
func (p *Plane) TenantDegrade(tenant string, charged metric.Fuzz) {
	if p == nil {
		return
	}
	p.m.tenantDegraded.With(tenant).Inc()
	p.m.tenantEps.With(tenant).Add(int64(charged))
}

// TenantShed marks one request shed after the degrade path was
// exhausted (rate limit and mailbox full, or ε budget empty). Nil-safe.
func (p *Plane) TenantShed(tenant string) {
	if p == nil {
		return
	}
	p.m.tenantShed.With(tenant).Inc()
}

// WatchPartition registers exposition-time gauges over one serving
// partition: instantaneous mailbox depth and total served count. The
// tenant layer calls it once per partition at construction. No-op
// without a registry.
func (p *Plane) WatchPartition(partition string, depth, served func() float64) {
	if p == nil || p.Metrics == nil {
		return
	}
	if depth != nil {
		p.Metrics.GaugeFunc("asynctp_partition_queue_depth", "Queued requests in the partition mailbox.",
			depth, "partition", partition)
	}
	if served != nil {
		p.Metrics.GaugeFunc("asynctp_partition_served_total", "Requests executed by the partition runner.",
			served, "partition", partition)
	}
}

// WatchPool registers an exposition-time saturation gauge over one
// shared worker pool: the fraction of its workers currently busy.
// No-op without a registry.
func (p *Plane) WatchPool(pool string, saturation func() float64) {
	if p == nil || p.Metrics == nil || saturation == nil {
		return
	}
	p.Metrics.GaugeFunc("asynctp_pool_saturation", "Fraction of pool workers busy executing.",
		saturation, "pool", pool)
}

// WatchQueue registers exposition-time gauges over a queue endpoint
// (outbox depth, dedup sparse size toward its busiest peer is left to
// tests). No-op without a registry.
func (p *Plane) WatchQueue(site string, m *queue.Manager) {
	if p == nil || p.Metrics == nil || m == nil {
		return
	}
	p.Metrics.GaugeFunc("asynctp_queue_outbox_depth", "Committed, unacknowledged outbox messages.",
		func() float64 { return float64(m.OutboxLen()) }, "site", site)
}

// --- txn.Observer shim -------------------------------------------------

// execObserver adapts the plane to the executor's Observer seam:
// commit/abort settle the piece attempt. Per-key grants are the history
// recorder's business, not the plane's.
type execObserver struct{ p *Plane }

// ExecObserver returns the txn.Observer shim (nil when disabled, so
// callers can hand it straight to code with nil fast paths).
func (p *Plane) ExecObserver() txn.Observer {
	if p == nil {
		return nil
	}
	return execObserver{p: p}
}

func (o execObserver) Begin(owner lock.Owner, name string, class txn.Class) {}

func (o execObserver) Read(owner lock.Owner, key storage.Key, value metric.Value) {}

func (o execObserver) Write(owner lock.Owner, key storage.Key, old, new metric.Value, commutative bool) {
}

func (o execObserver) Commit(owner lock.Owner) {
	o.p.m.pieceCommits.Inc()
	if o.p.Spans != nil {
		o.p.spanMu.Lock()
		op := o.p.openPieces[int64(owner)]
		delete(o.p.openPieces, int64(owner))
		o.p.spanMu.Unlock()
		if op != nil {
			o.p.Spans.Add(Span{
				Trace: op.trace, ID: op.span, Parent: op.parent, ParentProc: op.parentProc,
				Kind: SpanPiece, Phase: PhaseExec, Piece: op.piece, Comp: op.comp,
				Site: op.site, Name: op.name,
				Start: op.start, End: time.Now().UnixNano(), Committed: true,
			})
		}
	}
}

func (o execObserver) Abort(owner lock.Owner, reason error) {
	// An aborted attempt leaves no span: the retry re-begins with a
	// fresh owner and the committed attempt is the one the merged
	// trace keeps (abort/retry time shows up as exec-phase residue
	// inside the committed chain's gaps).
	if o.p.Spans != nil {
		o.p.spanMu.Lock()
		delete(o.p.openPieces, int64(owner))
		o.p.spanMu.Unlock()
	}
	// An aborted attempt's fuzziness never committed: void its pending
	// ledger receipts so retries don't over-charge the account.
	o.p.Ledger.Void(int64(owner))
	switch {
	case errors.Is(reason, lock.ErrDeadlock):
		o.p.m.pieceAbortDeadlock.Inc()
	case errors.Is(reason, txn.ErrRollback):
		o.p.m.pieceAbortRollback.Inc()
	default:
		o.p.m.pieceAbortOther.Inc()
	}
}

// --- lock.WaitObserver shim --------------------------------------------

type waitObserver struct{ p *Plane }

// WaitObserver returns the lock.WaitObserver shim (nil when disabled).
func (p *Plane) WaitObserver() lock.WaitObserver {
	if p == nil {
		return nil
	}
	return waitObserver{p: p}
}

func (o waitObserver) Blocked(owner lock.Owner, key storage.Key) {
	o.p.m.lockWaits.Inc()
	o.p.waitMu.Lock()
	o.p.waitAt[int64(owner)] = time.Now()
	o.p.waitMu.Unlock()
}

func (o waitObserver) Woken(owner lock.Owner) {}

func (o waitObserver) Resumed(owner lock.Owner) {
	o.p.waitMu.Lock()
	start, ok := o.p.waitAt[int64(owner)]
	delete(o.p.waitAt, int64(owner))
	o.p.waitMu.Unlock()
	var d time.Duration
	if ok {
		d = time.Since(start)
		o.p.m.lockWaitDur.ObserveDuration(d)
	}
	if o.p.Spans != nil && d > 0 {
		o.p.spanMu.Lock()
		op := o.p.openPieces[int64(owner)]
		o.p.spanMu.Unlock()
		if op != nil {
			now := time.Now().UnixNano()
			o.p.Spans.Add(Span{
				Trace: op.trace, ID: o.p.Spans.NextID(), Parent: op.span,
				Kind: SpanLock, Phase: PhaseLock, Piece: op.piece, Comp: op.comp,
				Site: op.site, Start: now - int64(d), End: now,
			})
		}
	}
}

// --- dc observer shim --------------------------------------------------

// DCObserver returns the divergence-control observer shim: debits feed
// the metrics and, pair by pair, the ε-provenance ledger. Nil when
// disabled.
func (p *Plane) DCObserver() func(dc.Event) {
	if p == nil {
		return nil
	}
	return func(ev dc.Event) {
		if !ev.Absorbed {
			p.m.dcRefused.Inc()
			return
		}
		p.m.dcAbsorbed.Inc()
		p.m.dcCharged.Add(int64(ev.Cost))
		if p.Ledger != nil && len(ev.Pairs) > 0 {
			pairs := make([]DebitPair, len(ev.Pairs))
			for i, pr := range ev.Pairs {
				pairs[i] = DebitPair{Query: int64(pr.Query), Update: int64(pr.Update), Cost: pr.Cost}
			}
			p.Ledger.Debit(string(ev.Key), pairs)
		}
	}
}

// --- queue.Observer shim -----------------------------------------------

type queueObserver struct{ p *Plane }

// QueueObserver returns the transport observer shim for a site's queue
// endpoint. Nil when disabled.
func (p *Plane) QueueObserver() queue.Observer {
	if p == nil {
		return nil
	}
	return queueObserver{p: p}
}

func (o queueObserver) Sent(to simnet.SiteID, msg queue.Msg) { o.p.m.queueSent.Inc() }

func (o queueObserver) Flushed(to simnet.SiteID, msgs, acks int) {
	o.p.m.queueFlushes.Inc()
	if msgs > 0 {
		o.p.m.queueBatchSize.Observe(float64(msgs))
	}
}

func (o queueObserver) Retransmitted(to simnet.SiteID, msgs int) {
	o.p.m.queueRetransmits.Add(int64(msgs))
}

func (o queueObserver) Delivered(msg queue.Msg) { o.p.m.queueDelivered.Inc() }

// --- storage driver.Observer shim --------------------------------------

type storageObserver struct{ p *Plane }

// StorageObserver returns the durability observer shim for the storage
// driver layer: WAL fsync cohorts, recoveries from the durable image,
// and checkpoint passes. Nil when disabled.
func (p *Plane) StorageObserver() driver.Observer {
	if p == nil {
		return nil
	}
	return storageObserver{p: p}
}

func (o storageObserver) WALSynced(site string, records int) {
	o.p.m.walFsyncs.Inc()
	o.p.m.walSyncedRecs.Add(int64(records))
	if records > 0 {
		o.p.m.walCohortSize.Observe(float64(records))
	}
}

func (o storageObserver) Recovered(site string, entries int, tornBytes int64) {
	o.p.m.storRecoveries.Inc()
	o.p.m.storReplayed.Add(int64(entries))
	o.p.m.storTornBytes.Add(tornBytes)
}

func (o storageObserver) Checkpointed(site string, prunedSegments int) {
	o.p.m.storCheckpoints.Inc()
	o.p.m.storPruned.Add(int64(prunedSegments))
}

// --- commit.Observer shim ----------------------------------------------

type commitObserver struct {
	p    *Plane
	site string
}

// CommitObserver returns the 2PC protocol observer shim for one site's
// coordinator endpoint. Nil when disabled.
func (p *Plane) CommitObserver(site simnet.SiteID) commit.Observer {
	if p == nil {
		return nil
	}
	return commitObserver{p: p, site: string(site)}
}

func (o commitObserver) Round(txid, kind string, attempts int, d time.Duration) {
	if kind == "vote" {
		o.p.m.commitRoundVote.ObserveDuration(d)
	} else {
		o.p.m.commitRoundAck.ObserveDuration(d)
	}
	// 2PC round spans hang off the root: every attempt's txid ends in
	// "-inst" ("name-inst", retries "name-rN-inst"), so the trace
	// recovers from the suffix.
	if o.p.Spans != nil && d > 0 {
		if i := strings.LastIndexByte(txid, '-'); i >= 0 {
			if trace, err := strconv.ParseUint(txid[i+1:], 10, 64); err == nil && trace != 0 {
				now := time.Now().UnixNano()
				o.p.Spans.Add(Span{
					Trace: trace, ID: o.p.Spans.NextID(), Parent: RootSpanID(trace),
					Kind: Span2PC, Phase: Phase2PC, Piece: -1, Site: o.site, Name: kind,
					Start: now - int64(d), End: now,
				})
			}
		}
	}
}

func (o commitObserver) Decision(txid string, committed bool) {
	if committed {
		o.p.m.commitCommits.Inc()
	} else {
		o.p.m.commitAborts.Inc()
	}
}

// --- tee helpers -------------------------------------------------------

// TeeTxnObserver fans execution events out to every non-nil observer.
// It returns nil when none are non-nil, preserving the engines' nil
// fast paths, and the single observer unchanged when only one is.
func TeeTxnObserver(list ...txn.Observer) txn.Observer {
	var live []txn.Observer
	for _, o := range list {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return teeTxn(live)
}

type teeTxn []txn.Observer

func (t teeTxn) Begin(owner lock.Owner, name string, class txn.Class) {
	for _, o := range t {
		o.Begin(owner, name, class)
	}
}

func (t teeTxn) Read(owner lock.Owner, key storage.Key, value metric.Value) {
	for _, o := range t {
		o.Read(owner, key, value)
	}
}

func (t teeTxn) Write(owner lock.Owner, key storage.Key, old, new metric.Value, commutative bool) {
	for _, o := range t {
		o.Write(owner, key, old, new, commutative)
	}
}

func (t teeTxn) Commit(owner lock.Owner) {
	for _, o := range t {
		o.Commit(owner)
	}
}

func (t teeTxn) Abort(owner lock.Owner, reason error) {
	for _, o := range t {
		o.Abort(owner, reason)
	}
}

// TeeWaitObserver fans wait transitions out to every non-nil observer,
// with the same nil-collapsing behavior as TeeTxnObserver.
func TeeWaitObserver(list ...lock.WaitObserver) lock.WaitObserver {
	var live []lock.WaitObserver
	for _, o := range list {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return teeWait(live)
}

type teeWait []lock.WaitObserver

func (t teeWait) Blocked(owner lock.Owner, key storage.Key) {
	for _, o := range t {
		o.Blocked(owner, key)
	}
}

func (t teeWait) Woken(owner lock.Owner) {
	for _, o := range t {
		o.Woken(owner)
	}
}

func (t teeWait) Resumed(owner lock.Owner) {
	for _, o := range t {
		o.Resumed(owner)
	}
}

// TeeDCObserver fans dc arbitration events out to every non-nil
// callback, collapsing to nil / the single callback like the other
// tees.
func TeeDCObserver(list ...func(dc.Event)) func(dc.Event) {
	var live []func(dc.Event)
	for _, fn := range list {
		if fn != nil {
			live = append(live, fn)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(ev dc.Event) {
		for _, fn := range live {
			fn(ev)
		}
	}
}
