package obs

import (
	"sync"

	"asynctp/internal/tracectx"
)

// Phase is the fixed critical-path vocabulary: every nanosecond of a
// settled transaction's end-to-end latency is attributed to exactly one
// of these buckets by the analyzer in critpath.go.
type Phase uint8

const (
	// PhaseAdmit is time between submission and the first piece
	// starting: admission control, mailbox entry, scheduler pickup.
	PhaseAdmit Phase = iota
	// PhaseMailbox is time an activation sat admitted in the receiving
	// site's queue before a worker picked it up.
	PhaseMailbox
	// PhaseLock is time blocked in the lock manager.
	PhaseLock
	// PhaseExec is piece execution proper (op reads/writes, validation).
	PhaseExec
	// PhaseRepair is conflict-repair rounds re-executing stale ops.
	PhaseRepair
	// PhaseFsync is durability waits: WAL/queue-image persistence on
	// the commit path.
	PhaseFsync
	// PhaseWire is transport time: sender commit-send to receiver
	// admission, measured sender SentAt → receiver ArrivedAt (one host
	// clock in loopback runs).
	PhaseWire
	// PhaseAck is settlement-report handling at the origin: report
	// arrival to tracker settle, plus the chopped root's residual wait
	// (the tail between the last recorded span and the settle
	// notification).
	PhaseAck
	// Phase2PC is bounded-wait commit-protocol time: vote/ack rounds
	// and the coordinator's decision wait.
	Phase2PC
	// NumPhases sizes per-phase accumulation arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"admit", "mailbox", "lock", "exec", "repair", "fsync", "wire", "ack", "2pc-wait",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Span is one timed node of a distributed trace tree. Start/End are
// wall-clock UnixNano: within one process they come from one clock, and
// a loadbench -multi run's processes share the host clock, so merged
// spans are directly comparable (the analyzer still clamps children
// into their root's interval to absorb residual skew).
//
// A span's identity is (recording store, ID); Parent/ParentProc name
// the parent edge, with ParentProc == "" meaning "same store". Spans
// with structural roles (root, piece, hop) get deterministic IDs
// derived from the trace and piece ordinal — see RootSpanID — so the
// two processes on either side of a wire hop agree on the edge without
// any coordination, and so redelivered duplicates collapse in the
// merge. Timing-dependent detail spans (lock waits, repair rounds,
// fsync cohorts) get store-local counter IDs with the high bit set and
// are excluded from the canonical (deterministic) export.
type Span struct {
	Trace      uint64 `json:"t"`
	ID         uint64 `json:"i"`
	Parent     uint64 `json:"p,omitempty"`
	ParentProc string `json:"pp,omitempty"`
	Kind       string `json:"k"`
	Phase      Phase  `json:"ph"`
	Piece      int32  `json:"pc"`
	Comp       bool   `json:"c,omitempty"`
	Site       string `json:"s,omitempty"`
	Name       string `json:"n,omitempty"`
	Start      int64  `json:"a"`
	End        int64  `json:"b"`
	Clock      uint64 `json:"lc"`
	Committed  bool   `json:"ok,omitempty"`
}

// Span kind names. The kind is descriptive (export/report labels); the
// analyzer switches on Phase.
const (
	SpanTxn        = "txn"
	SpanPiece      = "piece"
	SpanWire       = "wire"
	SpanMailbox    = "mailbox"
	SpanLock       = "lock"
	SpanRepair     = "repair"
	SpanFsync      = "fsync"
	SpanReportWire = "report-wire"
	SpanAck        = "ack"
	SpanAdmit      = "admit"
	Span2PC        = "2pc"
)

// spanCounterBit marks store-local counter-minted span IDs; IDs with
// the bit clear are deterministic structural IDs.
const spanCounterBit = uint64(1) << 63

// Structural span ID tags (low byte of a deterministic ID).
const (
	spanTagRoot       = 0x01
	spanTagPiece      = 0x02
	spanTagWire       = 0x03
	spanTagMailbox    = 0x04
	spanTagReportWire = 0x05
	spanTagAck        = 0x06
)

// spanPieceBits packs a piece ordinal and compensation flag into the
// second byte of a deterministic span ID. Piece ordinals are masked to
// 7 bits; chopped transactions cut at site boundaries, so real chains
// stay far below 128 pieces.
func spanPieceBits(piece int, comp bool) uint64 {
	p := uint64(piece) & 0x7f
	if comp {
		p |= 0x80
	}
	return p
}

// RootSpanID is the deterministic span ID of a trace's root (txn)
// span. Deterministic IDs are trace<<16 | pieceBits<<8 | tag, which
// requires trace IDs below 2^47 — loadbench's per-process
// InstanceBase layout ((proc+1)<<40 | seq) stays well inside that.
func RootSpanID(trace uint64) uint64 { return trace<<16 | spanTagRoot }

// PieceSpanID is the deterministic ID of the committed execution
// attempt of one piece (forward or compensating) of a trace.
func PieceSpanID(trace uint64, piece int, comp bool) uint64 {
	return trace<<16 | spanPieceBits(piece, comp)<<8 | spanTagPiece
}

// WireSpanID / MailboxSpanID are the deterministic IDs of the hop
// spans the receiving process records for a piece activation.
func WireSpanID(trace uint64, piece int, comp bool) uint64 {
	return trace<<16 | spanPieceBits(piece, comp)<<8 | spanTagWire
}

// MailboxSpanID is the queue-wait span between activation admission
// and a worker picking it up.
func MailboxSpanID(trace uint64, piece int, comp bool) uint64 {
	return trace<<16 | spanPieceBits(piece, comp)<<8 | spanTagMailbox
}

// ReportWireSpanID / AckSpanID are the deterministic IDs of the
// settlement-report hop spans the origin process records.
func ReportWireSpanID(trace uint64, piece int, comp bool) uint64 {
	return trace<<16 | spanPieceBits(piece, comp)<<8 | spanTagReportWire
}

// AckSpanID is the report-handling span at the origin (arrival →
// tracker settle).
func AckSpanID(trace uint64, piece int, comp bool) uint64 {
	return trace<<16 | spanPieceBits(piece, comp)<<8 | spanTagAck
}

// LogicalSpan reports whether a span has a deterministic structural ID
// (and therefore belongs in the canonical export).
func LogicalSpan(sp Span) bool { return sp.ID&spanCounterBit == 0 }

// DefaultSpanLimit bounds a process's span store: a ring of this many
// recent spans (~32 MB). Spans evicted past the bound surface as
// propagation failures (orphans) in the merge report rather than
// silently vanishing.
const DefaultSpanLimit = 1 << 18

// SpanStore is one process's bounded span buffer plus the Lamport
// clock and ID counter that qualify its spans. All methods are
// nil-safe so call sites stay branch-only when tracing is off.
type SpanStore struct {
	proc  string
	limit int

	mu      sync.Mutex
	buf     []Span
	next    int // ring write index once len(buf) == limit
	total   uint64
	clock   uint64
	counter uint64
	// traces is the highest trace ID recorded (Graft's next offset).
	traces uint64
}

// NewSpanStore creates a store identified as proc (the process/shard
// name used to qualify span IDs across the merge) holding at most
// limit spans (DefaultSpanLimit when <= 0).
func NewSpanStore(proc string, limit int) *SpanStore {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &SpanStore{proc: proc, limit: limit}
}

// Proc returns the store identity ("" for a nil store).
func (s *SpanStore) Proc() string {
	if s == nil {
		return ""
	}
	return s.proc
}

// NextID mints a store-local counter span ID (high bit set).
func (s *SpanStore) NextID() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	s.counter++
	id := spanCounterBit | s.counter
	s.mu.Unlock()
	return id
}

// Tick advances the Lamport clock and returns the new value.
func (s *SpanStore) Tick() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	s.clock++
	c := s.clock
	s.mu.Unlock()
	return c
}

// Observe folds a remote Lamport clock value into the local one
// (receive rule: clock = max(local, remote) + 1).
func (s *SpanStore) Observe(remote uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if remote > s.clock {
		s.clock = remote
	}
	s.clock++
	s.mu.Unlock()
}

// Add records a span, stamping its Lamport clock, evicting the oldest
// span once the ring is full.
func (s *SpanStore) Add(sp Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.clock++
	sp.Clock = s.clock
	s.total++
	if sp.Trace > s.traces {
		s.traces = sp.Trace
	}
	if len(s.buf) < s.limit {
		s.buf = append(s.buf, sp)
	} else {
		s.buf[s.next] = sp
		s.next = (s.next + 1) % s.limit
	}
	s.mu.Unlock()
}

// Graft records spans taken from another store, moving them past
// every trace s holds: trace t becomes base+t, where base is the
// highest trace recorded so far, and structural IDs (trace<<16 |
// low16) move by base<<16 with it. Counter IDs are store-local and stay
// put; a trace never mixes two sources. A sweep of runners that each
// number their transactions from 1 grafts every run into one shared
// store so their traces stay apart. Trace IDs must stay below 2^47.
func (s *SpanStore) Graft(spans []Span) {
	if s == nil || len(spans) == 0 {
		return
	}
	s.mu.Lock()
	base := s.traces
	s.mu.Unlock()
	move := func(id uint64) uint64 {
		if id == 0 || id&spanCounterBit != 0 {
			return id
		}
		return id + base<<16
	}
	for _, sp := range spans {
		sp.Trace += base
		sp.ID, sp.Parent = move(sp.ID), move(sp.Parent)
		s.Add(sp)
	}
}

// Len returns the number of buffered spans.
func (s *SpanStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Total returns the number of spans ever recorded.
func (s *SpanStore) Total() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Evicted returns how many spans the bounded ring has dropped; every
// eviction is a potential orphaned child in the merged trace, so the
// count is reported instead of silently losing the parents.
func (s *SpanStore) Evicted() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total - uint64(len(s.buf))
}

// Spans returns a copy of the buffered spans, oldest first.
func (s *SpanStore) Spans() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Span, 0, len(s.buf))
	if len(s.buf) == s.limit {
		out = append(out, s.buf[s.next:]...)
		out = append(out, s.buf[:s.next]...)
	} else {
		out = append(out, s.buf...)
	}
	return out
}

// Dump packages the store for the cross-process merge.
func (s *SpanStore) Dump() ProcSpans {
	if s == nil {
		return ProcSpans{}
	}
	return ProcSpans{Proc: s.proc, Spans: s.Spans(), Total: s.Total(), Evicted: s.Evicted()}
}

// Ctx mints an outgoing trace context naming span (recorded in this
// store) as the remote parent. SentAt is stamped by the caller (the
// queue layer stamps arrival; the site layer stamps send) so this
// method stays clock-free and cheap. Returns the zero Ctx on a nil
// store, which receivers ignore.
func (s *SpanStore) Ctx(trace, span uint64, sentAt int64) tracectx.Ctx {
	if s == nil {
		return tracectx.Ctx{}
	}
	return tracectx.Ctx{Trace: trace, Span: span, Proc: s.proc, Clock: s.Tick(), SentAt: sentAt}
}
