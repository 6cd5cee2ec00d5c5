// Package queue implements recoverable queues: the transactional,
// durable, inter-site channels that let chopped pieces of a distributed
// transaction commit asynchronously without a commit protocol
// (Section 4, after Bernstein-Hsu-Mann).
//
// Semantics reproduced from the paper:
//
//   - Messages staged by a transaction become deliverable only when the
//     sending transaction commits (CommitSend); an aborted sender
//     delivers nothing (the buffer is simply dropped).
//   - A committed message survives site and link failures: it sits in a
//     durable outbox and is retransmitted until the destination
//     acknowledges it; receivers deduplicate by per-sender sequence
//     number.
//   - A delivered message must be consumed by a transaction that
//     eventually commits: Dequeue hands out a Delivery that the consumer
//     Acks on commit or Nacks on abort, which puts the message back.
//   - Crash recovery (Snapshot/Restore) returns in-flight deliveries to
//     the queue — at-least-once consumption, which is exactly what makes
//     resubmit-until-commit of rollback-safe pieces sound.
//
// Transport: the endpoint is batch-first. Committed sends coalesce per
// destination into a single queue.enq.batch frame; receivers
// acknowledge a whole frame with one cumulative queue.ack.batch and
// piggyback pending acks on outgoing data frames. A full batch flushes
// on the goroutine that filled it. Anything less wakes the endpoint's
// own goroutine, which yields the processor once, so that whatever else
// is runnable on the site can add its sends and acks, and then drains
// every buffer: an idle site pays a goroutine wake-up per hop, not a
// timer, and a busy one coalesces one scheduler round.
// An endpoint with a durable image (WithPersist) holds both directions
// behind one barrier: a receiver admits every frame it was handed
// together, persists one image and only then stages their acks
// (HandleAll), and a sender keeps committed messages off the wire until
// an image holding them is durable (Persist).
// Unacknowledged messages are retransmitted per-message on a deadline
// with exponential backoff (batched by destination when due), instead
// of re-sending the entire outbox every tick.
package queue

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"asynctp/internal/simnet"
	"asynctp/internal/tracectx"
)

// Msg is one queued message.
type Msg struct {
	// ID is globally unique (site- and destination-qualified); acks and
	// the outbox are keyed on it.
	ID string
	// Seq is the per-(sender, destination) sequence number, 1-based and
	// gapless in commit order. Receivers dedup on (From, Seq) with a
	// contiguous-prefix watermark, which is what lets them retire old
	// entries instead of remembering every ID forever; a message without
	// one is malformed and dropped unadmitted and unacknowledged.
	Seq uint64
	// From is the sending site.
	From simnet.SiteID
	// Queue names the destination queue at the receiving site.
	Queue string
	// Payload is the application content.
	Payload any
	// Ctx is the distributed trace context stamped by the sender at
	// stage time (zero when tracing is off). It rides the wire inside
	// the BatchFrame like any other Msg field, which is what lets span
	// trees survive the TCP hop.
	Ctx tracectx.Ctx
	// ArrivedAt is the receiver's wall clock (UnixNano) at first
	// admission, stamped locally on delivery — never by the sender.
	// With Ctx.SentAt it bounds the wire+queue time of the hop. It is
	// volatile receiver state: retransmitted copies of an admitted
	// message never overwrite it (dedup drops them first).
	ArrivedAt int64
}

// Message kinds on the wire.
const (
	// KindEnqueueBatch carries a BatchFrame: the coalesced committed
	// sends for one destination plus piggybacked acks.
	KindEnqueueBatch = "queue.enq.batch"
	// KindAckBatch carries an AckFrame: one cumulative acknowledgement
	// of many received Msg IDs.
	KindAckBatch = "queue.ack.batch"
)

// IsQueueKind reports whether a message kind belongs to the queue layer:
// site dispatch loops hand runs of these frames to Manager.HandleAll.
func IsQueueKind(kind string) bool {
	return kind == KindEnqueueBatch || kind == KindAckBatch
}

// BatchFrame is the wire payload of one batched transfer: every
// committed message coalesced for one destination since the last flush,
// plus piggybacked cumulative acks for traffic in the opposite
// direction. The network treats the frame as a unit (one loss/latency
// draw — see simnet.Frame), so a frame is lost or delivered whole.
type BatchFrame struct {
	Msgs []Msg
	// Acks acknowledges messages previously received FROM the frame's
	// destination — the piggyback path that makes steady bidirectional
	// piece traffic ack itself for free.
	Acks []string
}

// FrameLen implements simnet.Frame.
func (f BatchFrame) FrameLen() int {
	if n := len(f.Msgs); n > 0 {
		return n
	}
	return 1
}

// AckFrame is the wire payload of a standalone cumulative
// acknowledgement (sent when there is no reverse traffic to piggyback
// on).
type AckFrame struct {
	IDs []string
}

// outMsg is a committed, not-yet-acknowledged outgoing message plus its
// volatile retransmission state.
type outMsg struct {
	msg Msg
	to  simnet.SiteID
	// nextSend is the retransmission deadline: the message is re-sent
	// when it passes without an ack.
	nextSend time.Time
	// backoff is the current deadline increment; it doubles per attempt
	// up to the manager's cap, so a long-unreachable destination costs
	// O(log) retransmissions instead of one per tick.
	backoff time.Duration
	// attempts counts (re)transmissions after the first flush.
	attempts int
	// held marks a committed message waiting for the persist barrier:
	// no image holding it is durable yet, so it must not leave the site.
	held bool
}

// TxBuffer stages messages inside a transaction. It is not safe for
// concurrent use; each transaction owns one buffer.
type TxBuffer struct {
	staged []outMsg
}

// Enqueue stages payload for the named queue at site to. Nothing is
// visible until the owning transaction commits the buffer.
func (b *TxBuffer) Enqueue(to simnet.SiteID, queueName string, payload any) {
	b.staged = append(b.staged, outMsg{to: to, msg: Msg{Queue: queueName, Payload: payload}})
}

// EnqueueCtx stages payload with a distributed trace context attached.
// A zero ctx is identical to Enqueue.
func (b *TxBuffer) EnqueueCtx(to simnet.SiteID, queueName string, payload any, ctx tracectx.Ctx) {
	b.staged = append(b.staged, outMsg{to: to, msg: Msg{Queue: queueName, Payload: payload, Ctx: ctx}})
}

// Len returns the number of staged messages.
func (b *TxBuffer) Len() int { return len(b.staged) }

// seenSet is the per-sender dedup state: a contiguous-prefix watermark
// plus a sparse set for out-of-order arrivals beyond it. Because a
// sender numbers each destination's messages gaplessly and retransmits
// until acked, every gap eventually fills, the prefix advances, and the
// sparse set drains — memory stays bounded by the in-flight window, not
// by the lifetime message count.
type seenSet struct {
	prefix uint64
	sparse map[uint64]bool
}

// has reports whether seq was already delivered here.
func (s *seenSet) has(seq uint64) bool {
	return seq <= s.prefix || s.sparse[seq]
}

// add records seq, advancing the watermark over any contiguous run.
func (s *seenSet) add(seq uint64) {
	if s.has(seq) {
		return
	}
	if seq == s.prefix+1 {
		s.prefix++
		for s.sparse[s.prefix+1] {
			delete(s.sparse, s.prefix+1)
			s.prefix++
		}
		return
	}
	if s.sparse == nil {
		s.sparse = make(map[uint64]bool)
	}
	s.sparse[seq] = true
}

// Observer receives transport events from a Manager. Implementations
// must be fast and must not call back into the manager: Sent and
// Delivered run with the manager mutex held. A nil observer (the
// default) costs one nil check per event site.
type Observer interface {
	// Sent fires when a message commits into the durable outbox (its
	// sequence number and ID are final).
	Sent(to simnet.SiteID, msg Msg)
	// Flushed fires once per destination per batch flush, with the
	// number of coalesced messages and piggybacked acks.
	Flushed(to simnet.SiteID, msgs, acks int)
	// Retransmitted fires once per destination per retransmission round
	// with the number of re-sent messages.
	Retransmitted(to simnet.SiteID, msgs int)
	// Delivered fires on first (post-dedup) delivery of a message at
	// the receiving endpoint.
	Delivered(msg Msg)
}

// maxBatch caps the number of messages coalesced into one
// queue.enq.batch frame.
const maxBatch = 64

// Option tunes a Manager.
type Option func(*Manager)

// WithObserver installs a transport observer (see Observer). Nil, the
// default, disables it.
func WithObserver(o Observer) Option {
	return func(m *Manager) { m.obs = o }
}

// WithFlushDelay selects where the coalescing buffers are flushed. d <=
// 0 flushes synchronously on the committing or receiving goroutine
// (deterministic tests, single-goroutine replays): no coalescing beyond
// what one CommitSend or HandleAll carries. Any positive d selects the
// default, the endpoint's flusher (see the package comment); its value
// is not used, there is no window to size.
func WithFlushDelay(d time.Duration) Option {
	return func(m *Manager) { m.syncFlush = d <= 0 }
}

// WithMaxBackoff caps the per-message retransmission backoff (default
// 16x the retransmit interval).
func WithMaxBackoff(d time.Duration) Option {
	return func(m *Manager) {
		if d > 0 {
			m.maxBackoff = d
		}
	}
}

// WithFlushCrash installs a fault-injection hook consulted once per
// batch flush, after the flushed messages are durable in the outbox but
// before any frame reaches the network (fault.PointPreBatchFlush). A
// true answer drops the flush on the floor — the volatile coalescing
// buffers are cleared, simulating a site that fail-stopped mid-flush —
// and the caller is expected to crash the site; recovery replays the
// staged messages from the durable outbox via retransmission.
func WithFlushCrash(hook func() bool) Option {
	return func(m *Manager) { m.flushCrash = hook }
}

// Manager is the per-site recoverable-queue endpoint.
type Manager struct {
	site simnet.SiteID
	net  simnet.Sender

	interval   time.Duration // base retransmit interval
	syncFlush  bool          // WithFlushDelay(<= 0)
	maxBackoff time.Duration
	flushCrash func() bool
	persist    func(State) error // receive-side durability barrier (WithPersist)
	obs        Observer

	mu      sync.Mutex
	closed  bool
	nextSeq map[simnet.SiteID]uint64
	outbox  map[string]*outMsg // committed, unacked
	queues  map[string][]Msg   // deliverable, arrival order
	// inflight holds dequeued, not yet consumer-acked messages.
	inflight map[string]Msg
	// seen is the per-sender watermark dedup state.
	seen map[simnet.SiteID]*seenSet
	// notify holds one wakeup channel per queue with blocked Dequeue
	// waiters; closing it (and deleting the entry) wakes exactly that
	// queue's waiters, so done-queue consumers stop paying for pieces
	// traffic.
	notify map[string]chan struct{}
	// pendingOut is the per-destination coalescing buffer: IDs committed
	// to the outbox but not yet flushed into a first frame. Volatile —
	// a crash loses it and retransmission recovers from the outbox.
	pendingOut map[simnet.SiteID][]string
	// pendingAcks is the per-destination cumulative-ack buffer.
	pendingAcks map[simnet.SiteID][]string
	// held lists the committed messages waiting for the persist barrier
	// (WithPersist), in commit order. Volatile, like the coalescing
	// buffers: a crash drops them, and the outbox of the durable image
	// is all a restart knows.
	held []*outMsg
	// version numbers the snapshots taken (State.Version). dirtyAt is
	// its value when the state last changed in a way the next image must
	// capture — a message admitted, a send committed, a delivery
	// consumed, the state restored — and durable the newest version
	// persist has returned nil for. While durable > dirtyAt a durable
	// image holds everything, and a frame of duplicates may be re-acked
	// without a new one.
	version, dirtyAt, durable uint64

	// kick wakes run to flush the coalescing buffers. One slot: a kick
	// that finds one pending is already covered by the flush it asked
	// for, which has not started yet.
	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// NewManager builds the endpoint for site and starts its goroutine, the
// flusher and retransmitter. retransmitEvery is both the tick
// granularity and the initial per-message retransmission deadline.
// Close must be called to stop it.
func NewManager(site simnet.SiteID, net simnet.Sender, retransmitEvery time.Duration, opts ...Option) *Manager {
	if retransmitEvery <= 0 {
		retransmitEvery = 50 * time.Millisecond
	}
	m := &Manager{
		site:        site,
		net:         net,
		interval:    retransmitEvery,
		nextSeq:     make(map[simnet.SiteID]uint64),
		outbox:      make(map[string]*outMsg),
		queues:      make(map[string][]Msg),
		inflight:    make(map[string]Msg),
		seen:        make(map[simnet.SiteID]*seenSet),
		notify:      make(map[string]chan struct{}),
		pendingOut:  make(map[simnet.SiteID][]string),
		pendingAcks: make(map[simnet.SiteID][]string),
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.maxBackoff <= 0 {
		m.maxBackoff = 16 * m.interval
	}
	go m.run(retransmitEvery)
	return m
}

// Close stops the endpoint's goroutine and waits for it to exit. A
// flush still pending is dropped: its messages stay in the outbox.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		<-m.done
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	<-m.done
}

// run is the endpoint's goroutine. Kicked (scheduleLocked), it yields
// once before it flushes: the yield lets every goroutine already
// runnable — other committers, workers, the site's dispatch loop —
// stage its sends and acks into the same frames. Without it a saturated
// site sent twice the frames per transaction, each paying the codec.
// Every tick it re-sends the due unacked outbox messages.
func (m *Manager) run(every time.Duration) {
	defer close(m.done)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-m.kick:
			runtime.Gosched()
			m.flush()
		case <-ticker.C:
			m.retransmitDue()
		case <-m.stop:
			return
		}
	}
}

// retransmitDue re-sends exactly the outbox messages whose deadline
// passed, coalesced per destination, and pushes their deadlines out
// with exponential backoff. An n-message soak therefore costs O(due)
// per tick, not O(n) — and a crashed destination converges to one
// batched resend per maxBackoff instead of hammering every tick.
func (m *Manager) retransmitDue() {
	now := time.Now()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	byDest := make(map[simnet.SiteID][]Msg)
	for _, om := range m.outbox {
		if om.held || om.nextSend.After(now) {
			continue
		}
		om.attempts++
		om.backoff *= 2
		if om.backoff > m.maxBackoff {
			om.backoff = m.maxBackoff
		}
		om.nextSend = now.Add(om.backoff)
		byDest[om.to] = append(byDest[om.to], om.msg)
	}
	frames := make([]simnet.Message, 0, len(byDest))
	for to, msgs := range byDest {
		// Stable resend order (by sequence) keeps seeded runs reproducible
		// and helps the receiver's watermark advance contiguously.
		sort.Slice(msgs, func(i, j int) bool { return msgs[i].Seq < msgs[j].Seq })
		acks := m.pendingAcks[to]
		delete(m.pendingAcks, to)
		frames = append(frames, m.framesForLocked(to, msgs, acks)...)
	}
	obs := m.obs
	m.mu.Unlock()
	if obs != nil {
		for to, msgs := range byDest {
			obs.Retransmitted(to, len(msgs))
		}
	}
	for _, f := range frames {
		_ = m.net.Send(f)
	}
}

// framesForLocked chunks msgs (plus piggybacked acks on the first
// chunk) into wire frames for destination to. Callers hold m.mu.
func (m *Manager) framesForLocked(to simnet.SiteID, msgs []Msg, acks []string) []simnet.Message {
	var frames []simnet.Message
	for len(msgs) > 0 || len(acks) > 0 {
		if len(msgs) == 0 {
			frames = append(frames, simnet.Message{
				From: m.site, To: to, Kind: KindAckBatch, Payload: AckFrame{IDs: acks},
			})
			break
		}
		n := len(msgs)
		if n > maxBatch {
			n = maxBatch
		}
		frames = append(frames, simnet.Message{
			From: m.site, To: to, Kind: KindEnqueueBatch,
			Payload: BatchFrame{Msgs: msgs[:n:n], Acks: acks},
		})
		msgs = msgs[n:]
		acks = nil
	}
	return frames
}

// Buffer returns a fresh transactional staging buffer.
func (m *Manager) Buffer() *TxBuffer { return &TxBuffer{} }

// CommitSend makes the buffer's messages committed and deliverable: the
// moment the sending piece commits. The messages enter the outbox (they
// survive crashes once an image holding them is durable, see
// Snapshot/Restore). Under a persist barrier (WithPersist) they are
// held off the wire until Persist — or a receive barrier — has made
// such an image durable; otherwise they enter the per-destination
// coalescing buffer at once. The buffer flushes on this goroutine when a
// destination reaches the batch cap (or under WithFlushDelay(0)), else
// on the endpoint's flusher (see scheduleLocked).
func (m *Manager) CommitSend(b *TxBuffer) {
	m.mu.Lock()
	now := time.Now()
	hold := m.persist != nil
	full := false
	for _, om := range b.staged {
		m.nextSeq[om.to]++
		seq := m.nextSeq[om.to]
		om.msg.Seq = seq
		om.msg.ID = fmt.Sprintf("%s>%s-%d", m.site, om.to, seq)
		om.msg.From = m.site
		o := &outMsg{msg: om.msg, to: om.to, nextSend: now.Add(m.interval), backoff: m.interval, held: hold}
		m.outbox[o.msg.ID] = o
		if m.obs != nil {
			m.obs.Sent(om.to, o.msg)
		}
		if hold {
			m.held = append(m.held, o)
		} else {
			full = m.pendLocked(o) || full
		}
	}
	m.dirtyAt = m.version
	flushNow := !hold && m.scheduleLocked(full)
	m.mu.Unlock()
	b.staged = nil
	if flushNow {
		m.flush()
	}
}

// pendLocked puts a committed message into its destination's coalescing
// buffer and reports whether that buffer reached the batch cap. Callers
// hold m.mu.
func (m *Manager) pendLocked(o *outMsg) bool {
	m.pendingOut[o.to] = append(m.pendingOut[o.to], o.msg.ID)
	return len(m.pendingOut[o.to]) >= maxBatch
}

// scheduleLocked arranges for the coalescing buffers to go out: when a
// buffer is full or flushing is synchronous, now, which it asks of the
// caller by returning true (flush runs after m.mu is released); else it
// kicks the endpoint's flusher, once however many kicks arrive before
// that flush starts. Callers hold m.mu.
func (m *Manager) scheduleLocked(full bool) bool {
	if full || m.syncFlush {
		return true
	}
	select {
	case m.kick <- struct{}{}:
	default:
	}
	return false
}

// flush drains the coalescing buffers into wire frames and sends them.
func (m *Manager) flush() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	if m.flushCrash != nil &&
		(len(m.pendingOut) > 0 || len(m.pendingAcks) > 0) && m.flushCrash() {
		// Injected crash mid-flush: the volatile coalescing buffers die
		// with the site. The messages themselves stay durable in the
		// outbox; after Restore the retransmitter replays them.
		m.pendingOut = make(map[simnet.SiteID][]string)
		m.pendingAcks = make(map[simnet.SiteID][]string)
		m.mu.Unlock()
		return
	}
	var frames []simnet.Message
	type flushed struct {
		to         simnet.SiteID
		msgs, acks int
	}
	var report []flushed
	for to, ids := range m.pendingOut {
		msgs := make([]Msg, 0, len(ids))
		for _, id := range ids {
			if om, ok := m.outbox[id]; ok { // acked-before-flush entries skip
				msgs = append(msgs, om.msg)
			}
		}
		delete(m.pendingOut, to)
		acks := m.pendingAcks[to]
		delete(m.pendingAcks, to)
		frames = append(frames, m.framesForLocked(to, msgs, acks)...)
		if m.obs != nil {
			report = append(report, flushed{to: to, msgs: len(msgs), acks: len(acks)})
		}
	}
	for to, acks := range m.pendingAcks {
		delete(m.pendingAcks, to)
		frames = append(frames, simnet.Message{
			From: m.site, To: to, Kind: KindAckBatch, Payload: AckFrame{IDs: acks},
		})
		if m.obs != nil {
			report = append(report, flushed{to: to, msgs: 0, acks: len(acks)})
		}
	}
	obs := m.obs
	m.mu.Unlock()
	if obs != nil {
		for _, f := range report {
			obs.Flushed(f.to, f.msgs, f.acks)
		}
	}
	for _, f := range frames {
		// Errors are expected while partitioned/down; retransmit retries.
		_ = m.net.Send(f)
	}
}

// admitLocked dedups and enqueues one received message, waking that
// queue's waiters on first delivery. Callers hold m.mu and have dropped
// messages without a Seq.
func (m *Manager) admitLocked(qm Msg) {
	ss := m.seen[qm.From]
	if ss == nil {
		ss = &seenSet{}
		m.seen[qm.From] = ss
	}
	if ss.has(qm.Seq) {
		return
	}
	ss.add(qm.Seq)
	m.dirtyAt = m.version
	qm.ArrivedAt = time.Now().UnixNano()
	m.queues[qm.Queue] = append(m.queues[qm.Queue], qm)
	if m.obs != nil {
		m.obs.Delivered(qm)
	}
	m.wakeLocked(qm.Queue)
}

// Handle processes one network message addressed to this site: the
// one-frame case of HandleAll.
func (m *Manager) Handle(msg simnet.Message) {
	m.HandleAll([]simnet.Message{msg})
}

// HandleAll processes queue-layer messages that arrived together (the
// site's dispatch loop routes Kind == queue.* here, see IsQueueKind;
// other kinds are ignored). A message without a Seq is malformed: it is
// neither admitted nor acknowledged. Every frame's messages are admitted and its
// piggybacked acks applied under one lock; then ONE image passes the
// persist barrier (WithPersist, see Persist), and only after it is
// durable are the frames' acknowledgements staged, frame by frame, so
// each sender's acks keep their order. The senders delete their outbox
// copies on ack, so the admitted messages must be in the durable image
// first: on a persist error no frame of the group is acknowledged, the
// senders retransmit, and the watermark dedup absorbs the redelivery. A
// group that admits nothing new needs no new image when a durable one
// already holds everything.
func (m *Manager) HandleAll(msgs []simnet.Message) {
	// acked lists, per enqueue frame in arrival order, the IDs to
	// acknowledge — duplicates included, since the previous ack may
	// have been lost.
	type frameAck struct {
		to  simnet.SiteID
		ids []string
	}
	var acked []frameAck
	m.mu.Lock()
	for _, msg := range msgs {
		switch msg.Kind {
		case KindEnqueueBatch:
			frame, ok := msg.Payload.(BatchFrame)
			if !ok {
				continue
			}
			for _, id := range frame.Acks {
				delete(m.outbox, id)
			}
			ids := make([]string, 0, len(frame.Msgs))
			for _, qm := range frame.Msgs {
				if qm.Seq == 0 {
					continue
				}
				m.admitLocked(qm)
				ids = append(ids, qm.ID)
			}
			if len(ids) > 0 {
				acked = append(acked, frameAck{to: msg.From, ids: ids})
			}
		case KindAckBatch:
			if frame, ok := msg.Payload.(AckFrame); ok {
				for _, id := range frame.IDs {
					delete(m.outbox, id)
				}
			}
		}
	}
	if len(acked) == 0 {
		m.mu.Unlock()
		return
	}
	flushNow, err := m.barrierLocked()
	if err != nil {
		m.mu.Unlock()
		return
	}
	// A frame's cumulative ack rides the next outgoing batch to its
	// sender if one is pending at the flush, else a standalone ack frame.
	for _, a := range acked {
		m.pendingAcks[a.to] = append(m.pendingAcks[a.to], a.ids...)
	}
	if m.scheduleLocked(false) {
		flushNow = true
	}
	m.mu.Unlock()
	if flushNow {
		m.flush()
	}
}

// Persist is the send-side half of the persist barrier (WithPersist):
// it makes one image holding every committed send, admitted message and
// consumed delivery so far durable, and only then releases the sends it
// holds into the coalescing buffers. A sender that crashes before the
// image is durable therefore never had those messages on the wire, and
// its recovered outbox cannot re-mint a sequence number a receiver has
// already acknowledged. It returns the persist error; the held sends
// stay held, so a caller that cannot retry must fail-stop. Without a
// barrier installed it does nothing.
func (m *Manager) Persist() error {
	m.mu.Lock()
	flushNow, err := m.barrierLocked()
	m.mu.Unlock()
	if flushNow {
		m.flush()
	}
	return err
}

// barrierLocked is the durability barrier HandleAll and Persist share.
// When the state changed since the last durable image it snapshots it,
// persists the image with m.mu released, marks its version durable and
// releases the held sends the image holds into the coalescing buffers;
// it reports whether those must flush now (see scheduleLocked). On a
// persist error the sends stay held. Callers hold m.mu.
func (m *Manager) barrierLocked() (flushNow bool, err error) {
	if m.persist == nil || m.durable > m.dirtyAt {
		return false, nil
	}
	snap := m.snapshotLocked()
	held := m.held
	m.held = nil
	m.mu.Unlock()
	err = m.persist(snap)
	m.mu.Lock()
	if err != nil {
		m.held = append(held, m.held...)
		return false, err
	}
	if snap.Version > m.durable {
		m.durable = snap.Version
	}
	if len(held) == 0 {
		return false, nil
	}
	now := time.Now()
	full := false
	for _, o := range held {
		if m.outbox[o.msg.ID] != o {
			continue // a Restore replaced the outbox meanwhile
		}
		o.held = false
		o.nextSend = now.Add(m.interval)
		full = m.pendLocked(o) || full
	}
	return m.scheduleLocked(full), nil
}

// Delivery is one dequeued message pending consumer commit.
type Delivery struct {
	Msg Msg
	mgr *Manager
	// settled guards double Ack/Nack.
	settled bool
}

// Ack marks the message consumed: the receiving transaction committed.
// The next barrier writes a new image even if nothing else changed, so
// a consumer that persists after acking has its own commit covered.
func (d *Delivery) Ack() {
	d.mgr.mu.Lock()
	defer d.mgr.mu.Unlock()
	if d.settled {
		return
	}
	d.settled = true
	delete(d.mgr.inflight, d.Msg.ID)
	d.mgr.dirtyAt = d.mgr.version
}

// Nack returns the message to the front of its queue: the receiving
// transaction aborted and the message remains deliverable.
func (d *Delivery) Nack() {
	d.mgr.mu.Lock()
	defer d.mgr.mu.Unlock()
	if d.settled {
		return
	}
	d.settled = true
	delete(d.mgr.inflight, d.Msg.ID)
	d.mgr.queues[d.Msg.Queue] = append([]Msg{d.Msg}, d.mgr.queues[d.Msg.Queue]...)
	d.mgr.wakeLocked(d.Msg.Queue)
}

// Batch is a group of deliveries dequeued together from one queue; the
// site worker pool drains activations in batches to amortize per-wakeup
// and per-persist costs. Ack and Nack settle every delivery in the
// group (Nack restores original front-of-queue order); individual
// deliveries may also be settled one by one.
type Batch struct {
	Deliveries []*Delivery
}

// Len returns the number of deliveries in the batch.
func (b *Batch) Len() int { return len(b.Deliveries) }

// Ack acks every unsettled delivery in the batch.
func (b *Batch) Ack() {
	for _, d := range b.Deliveries {
		d.Ack()
	}
}

// Nack returns every unsettled delivery to the queue, preserving their
// original order at the front.
func (b *Batch) Nack() {
	for i := len(b.Deliveries) - 1; i >= 0; i-- {
		b.Deliveries[i].Nack()
	}
}

// wakeLocked wakes the named queue's Dequeue waiters; callers hold m.mu.
func (m *Manager) wakeLocked(queueName string) {
	if ch, ok := m.notify[queueName]; ok {
		close(ch)
		delete(m.notify, queueName)
	}
}

// wakeAllLocked wakes every waiter (Restore); callers hold m.mu.
func (m *Manager) wakeAllLocked() {
	for q, ch := range m.notify {
		close(ch)
		delete(m.notify, q)
	}
}

// waitChanLocked returns the named queue's wakeup channel, creating it
// on first use. Callers hold m.mu.
func (m *Manager) waitChanLocked(queueName string) chan struct{} {
	ch, ok := m.notify[queueName]
	if !ok {
		ch = make(chan struct{})
		m.notify[queueName] = ch
	}
	return ch
}

// Dequeue blocks until a message is available on queueName and returns
// it as an in-flight Delivery.
func (m *Manager) Dequeue(ctx context.Context, queueName string) (*Delivery, error) {
	b, err := m.DequeueBatch(ctx, queueName, 1)
	if err != nil {
		return nil, err
	}
	return b.Deliveries[0], nil
}

// DequeueBatch blocks until at least one message is available on
// queueName, then returns up to max of them (in delivery order) as a
// Batch of in-flight Deliveries.
func (m *Manager) DequeueBatch(ctx context.Context, queueName string, max int) (*Batch, error) {
	if max < 1 {
		max = 1
	}
	for {
		m.mu.Lock()
		if q := m.queues[queueName]; len(q) > 0 {
			n := len(q)
			if n > max {
				n = max
			}
			batch := &Batch{Deliveries: make([]*Delivery, 0, n)}
			for i := 0; i < n; i++ {
				m.inflight[q[i].ID] = q[i]
				batch.Deliveries = append(batch.Deliveries, &Delivery{Msg: q[i], mgr: m})
			}
			m.queues[queueName] = q[n:]
			m.mu.Unlock()
			return batch, nil
		}
		wait := m.waitChanLocked(queueName)
		m.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Depth returns the number of deliverable messages on queueName.
func (m *Manager) Depth(queueName string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queues[queueName])
}

// OutboxLen returns the number of committed, unacknowledged messages.
func (m *Manager) OutboxLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.outbox)
}

// InflightLen returns the number of delivered-but-unacknowledged
// messages (handed to a consumer, neither Acked nor Nacked yet).
func (m *Manager) InflightLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.inflight)
}

// DedupPrefix returns the contiguous-prefix watermark for sender from:
// every sequence number at or below it has been delivered and retired
// from memory.
func (m *Manager) DedupPrefix(from simnet.SiteID) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ss := m.seen[from]; ss != nil {
		return ss.prefix
	}
	return 0
}

// DedupSparseLen returns the number of out-of-order dedup entries held
// for sender from — the only part of the dedup state that costs memory
// per entry. Tests bound it to prove long soaks don't leak.
func (m *Manager) DedupSparseLen(from simnet.SiteID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ss := m.seen[from]; ss != nil {
		return len(ss.sparse)
	}
	return 0
}

// State is the durable image of a Manager for crash simulation.
// Retransmission deadlines and the coalescing buffers are volatile and
// deliberately absent: recovery marks everything due immediately.
type State struct {
	// Version orders the images of one endpoint: each snapshot takes
	// the next number under the manager's mutex, and it carries on from
	// a restored image. Storage keeps the image with the highest
	// version, not the one that arrived last — two snapshots race each
	// other to the log outside the mutex.
	Version  uint64
	NextSeq  map[simnet.SiteID]uint64
	Outbox   map[string]OutboxMsg
	Queues   map[string][]Msg
	Inflight map[string]Msg
	Seen     map[simnet.SiteID]SeenState
}

// OutboxMsg mirrors outMsg for the exported State.
type OutboxMsg struct {
	Msg Msg
	To  simnet.SiteID
}

// SeenState is the durable form of one sender's dedup watermark.
type SeenState struct {
	Prefix uint64
	Sparse []uint64
}

// Snapshot captures the durable state: committed outbox, deliverable
// queues, in-flight deliveries, and the dedup watermarks. Cost is
// proportional to live state — the watermark keeps the dedup component
// O(in-flight window) rather than O(messages ever received).
func (m *Manager) Snapshot() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked()
}

// Restore reloads a snapshot after a crash. In-flight deliveries whose
// consumers never committed return to the front of their queues
// (at-least-once); restored outbox messages are due for immediate
// retransmission on the next tick.
func (m *Manager) Restore(st State) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	if st.Version > m.version {
		m.version = st.Version
	}
	// Nothing is known about images of the restored state.
	m.dirtyAt = m.version
	m.nextSeq = make(map[simnet.SiteID]uint64, len(st.NextSeq))
	for to, seq := range st.NextSeq {
		m.nextSeq[to] = seq
	}
	m.outbox = make(map[string]*outMsg, len(st.Outbox))
	for id, om := range st.Outbox {
		m.outbox[id] = &outMsg{msg: om.Msg, to: om.To, nextSend: now, backoff: m.interval}
	}
	m.queues = make(map[string][]Msg, len(st.Queues))
	for q, msgs := range st.Queues {
		m.queues[q] = append([]Msg(nil), msgs...)
	}
	for _, msg := range st.Inflight {
		m.queues[msg.Queue] = append([]Msg{msg}, m.queues[msg.Queue]...)
	}
	m.inflight = make(map[string]Msg)
	m.seen = make(map[simnet.SiteID]*seenSet, len(st.Seen))
	for from, snap := range st.Seen {
		ss := &seenSet{prefix: snap.Prefix}
		for _, seq := range snap.Sparse {
			ss.add(seq)
		}
		m.seen[from] = ss
	}
	// The coalescing buffers and the held sends are volatile: whatever
	// was pending either made it to the wire or is replayed from the
	// outbox, and a held send is in the outbox only if its image was.
	m.pendingOut = make(map[simnet.SiteID][]string)
	m.pendingAcks = make(map[simnet.SiteID][]string)
	m.held = nil
	m.wakeAllLocked()
}
