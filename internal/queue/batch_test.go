package queue

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"asynctp/internal/simnet"
)

// startRouters wires both managers' inboxes to Handle and registers
// cleanup, mirroring newPair's plumbing for hand-built pairs.
func startRouters(t *testing.T, p *pair, nyInbox, laInbox <-chan simnet.Message) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	route := func(inbox <-chan simnet.Message, m *Manager) {
		defer p.routerWG.Done()
		for {
			select {
			case msg := <-inbox:
				m.Handle(msg)
			case <-ctx.Done():
				return
			}
		}
	}
	p.routerWG.Add(2)
	go route(nyInbox, p.ny)
	go route(laInbox, p.la)
	t.Cleanup(func() {
		p.ny.Close()
		p.la.Close()
		cancel()
		p.routerWG.Wait()
		p.net.Close()
	})
}

// newPairOpts is newPair with per-manager options (both sides get the
// same options).
func newPairOpts(t *testing.T, netOpts []simnet.Option, mgrOpts ...Option) *pair {
	t.Helper()
	net := simnet.New(netOpts...)
	nyInbox, err := net.AddSite("NY")
	if err != nil {
		t.Fatal(err)
	}
	laInbox, err := net.AddSite("LA")
	if err != nil {
		t.Fatal(err)
	}
	p := &pair{
		net: net,
		ny:  NewManager("NY", net, 20*time.Millisecond, mgrOpts...),
		la:  NewManager("LA", net, 20*time.Millisecond, mgrOpts...),
	}
	startRouters(t, p, nyInbox, laInbox)
	return p
}

// TestBatchCoalescesFrames proves the wire win: N messages committed
// together cross the network as ~N/maxBatch frames, not N — and the
// acks come back cumulatively, not one frame per message.
func TestBatchCoalescesFrames(t *testing.T) {
	const n = 64
	p := newPairOpts(t, nil, WithMaxBatch(64))
	buf := p.ny.Buffer()
	for i := 0; i < n; i++ {
		buf.Enqueue("LA", "q", i)
	}
	p.ny.CommitSend(buf)
	ctx := ctxT(t)
	got := map[int]bool{}
	for len(got) < n {
		b, err := p.la.DequeueBatch(ctx, "q", n)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range b.Deliveries {
			v := d.Msg.Payload.(int)
			if got[v] {
				t.Fatalf("payload %d delivered twice", v)
			}
			got[v] = true
		}
		b.Ack()
	}
	// Wait for the cumulative ack to drain NY's outbox.
	deadline := time.Now().Add(5 * time.Second)
	for p.ny.OutboxLen() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("outbox stuck at %d", p.ny.OutboxLen())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := p.net.Stats()
	// 64 messages + their acks in <= a handful of frames (1 data frame +
	// 1..2 ack frames + maybe a retransmission); far below the legacy
	// 64 data + 64 ack frames.
	if st.Sent > 16 {
		t.Errorf("frames sent = %d, want <= 16 for %d messages (batching broken)", st.Sent, n)
	}
	if st.Payloads < n {
		t.Errorf("payloads delivered = %d, want >= %d", st.Payloads, n)
	}
}

// TestLostBatchFrameRedeliveredExactlyOnce cuts the link so the first
// batch frame dies in flight; retransmission must redeliver every
// message exactly once after the link heals (satellite: batch-fault).
func TestLostBatchFrameRedeliveredExactlyOnce(t *testing.T) {
	p := newPairOpts(t, nil, WithFlushDelay(0))
	p.net.SetPartitioned("NY", "LA", true)
	const n = 5
	buf := p.ny.Buffer()
	for i := 0; i < n; i++ {
		buf.Enqueue("LA", "q", i)
	}
	p.ny.CommitSend(buf) // frame dropped at the partition
	if p.ny.OutboxLen() != n {
		t.Fatalf("outbox = %d, want %d durable after lost frame", p.ny.OutboxLen(), n)
	}
	time.Sleep(30 * time.Millisecond)
	p.net.SetPartitioned("NY", "LA", false)
	ctx := ctxT(t)
	got := map[int]bool{}
	for i := 0; i < n; i++ {
		d, err := p.la.Dequeue(ctx, "q")
		if err != nil {
			t.Fatal(err)
		}
		v := d.Msg.Payload.(int)
		if got[v] {
			t.Fatalf("payload %d delivered twice after retransmit", v)
		}
		got[v] = true
		d.Ack()
	}
	// No duplicates sneak in afterwards.
	time.Sleep(60 * time.Millisecond)
	if depth := p.la.Depth("q"); depth != 0 {
		t.Errorf("depth = %d after drain, want 0", depth)
	}
}

// TestPartialAckLeavesUnackedInOutbox acks a strict subset of a batch
// and checks exactly the unacked IDs stay durable for retransmission
// (satellite: batch-fault). The frames go to a capture wire, so the only
// ack NY ever sees is the test's.
func TestPartialAckLeavesUnackedInOutbox(t *testing.T) {
	ny := NewManager("NY", &capture{}, time.Hour)
	defer ny.Close()
	buf := ny.Buffer()
	for i := 0; i < 3; i++ {
		buf.Enqueue("LA", "q", i)
	}
	ny.CommitSend(buf)
	ny.mu.Lock()
	if len(ny.outbox) != 3 {
		ny.mu.Unlock()
		t.Fatalf("outbox = %d, want 3", len(ny.outbox))
	}
	var acked []string
	var kept string
	for id := range ny.outbox {
		if len(acked) < 2 {
			acked = append(acked, id)
		} else {
			kept = id
		}
	}
	ny.mu.Unlock()
	// A cumulative ack frame for two of the three.
	ny.Handle(simnet.Message{
		From: "LA", To: "NY", Kind: KindAckBatch, Payload: AckFrame{IDs: acked},
	})
	ny.mu.Lock()
	defer ny.mu.Unlock()
	if len(ny.outbox) != 1 {
		t.Fatalf("outbox = %d after partial ack, want 1", len(ny.outbox))
	}
	if _, ok := ny.outbox[kept]; !ok {
		t.Errorf("surviving outbox entry is not the unacked ID %q", kept)
	}
}

// TestWatermarkBoundsDedupMemory drives a long in-order stream and
// checks the dedup state stays a bare watermark (no per-message
// entries); an out-of-order arrival parks in the sparse set and is
// retired the moment the gap fills (satellite: bounded dedup).
func TestWatermarkBoundsDedupMemory(t *testing.T) {
	la := NewManager("LA", simnet.New(), time.Hour)
	defer la.Close()
	mk := func(seq uint64) Msg {
		return Msg{
			ID:    fmt.Sprintf("NY>LA-%d", seq),
			Seq:   seq,
			From:  "NY",
			Queue: "q",
		}
	}
	frame := func(seqs ...uint64) simnet.Message {
		var msgs []Msg
		for _, s := range seqs {
			msgs = append(msgs, mk(s))
		}
		return simnet.Message{From: "NY", To: "LA", Kind: KindEnqueueBatch, Payload: BatchFrame{Msgs: msgs}}
	}
	// 1..500 in order: watermark advances, sparse stays empty.
	for s := uint64(1); s <= 500; s++ {
		la.Handle(frame(s))
	}
	if got := la.DedupPrefix("NY"); got != 500 {
		t.Fatalf("prefix = %d, want 500", got)
	}
	if got := la.DedupSparseLen("NY"); got != 0 {
		t.Fatalf("sparse = %d after in-order stream, want 0", got)
	}
	// A gap: 502 and 503 park out of order.
	la.Handle(frame(502, 503))
	if got := la.DedupSparseLen("NY"); got != 2 {
		t.Fatalf("sparse = %d with gap open, want 2", got)
	}
	// The gap fills: watermark jumps, sparse drains.
	la.Handle(frame(501))
	if got := la.DedupPrefix("NY"); got != 503 {
		t.Errorf("prefix = %d after gap fill, want 503", got)
	}
	if got := la.DedupSparseLen("NY"); got != 0 {
		t.Errorf("sparse = %d after gap fill, want 0", got)
	}
	if got := la.Depth("q"); got != 503 {
		t.Errorf("depth = %d, want 503 exactly-once", got)
	}
}

// TestDedupSurvivesCrashRestore replays old frames against a restored
// manager: the snapshotted watermark must keep absorbing them
// (satellite: dedup across crash/restore).
func TestDedupSurvivesCrashRestore(t *testing.T) {
	net := simnet.New()
	la := NewManager("LA", net, time.Hour)
	defer la.Close()
	frame := simnet.Message{
		From: "NY", To: "LA", Kind: KindEnqueueBatch,
		Payload: BatchFrame{Msgs: []Msg{
			{ID: "NY>LA-1", Seq: 1, From: "NY", Queue: "q", Payload: "a"},
			{ID: "NY>LA-2", Seq: 2, From: "NY", Queue: "q", Payload: "b"},
		}},
	}
	la.Handle(frame)
	snap := la.Snapshot()
	if len(snap.Seen["NY"].Sparse) != 0 || snap.Seen["NY"].Prefix != 2 {
		t.Fatalf("snapshot watermark = %+v, want prefix 2 / empty sparse", snap.Seen["NY"])
	}
	// The crashed site's replacement restores the durable image, then the
	// sender (which never saw an ack) retransmits the same frame.
	la2 := NewManager("LA2", net, time.Hour)
	defer la2.Close()
	la2.Restore(snap)
	la2.Handle(frame)
	if got := la2.Depth("q"); got != 2 {
		t.Errorf("depth = %d after replayed frame, want 2 (dedup across restore)", got)
	}
	if got := la2.DedupPrefix("NY"); got != 2 {
		t.Errorf("prefix = %d, want 2", got)
	}
}

// TestAdaptiveBackoffCapsResends points a message at a partitioned
// destination and counts transmission attempts: exponential backoff
// must keep them logarithmic in the outage, not one per tick.
func TestAdaptiveBackoffCapsResends(t *testing.T) {
	p := newPairOpts(t, nil, WithFlushDelay(0))
	p.net.SetPartitioned("NY", "LA", true)
	buf := p.ny.Buffer()
	buf.Enqueue("LA", "q", "stuck")
	p.ny.CommitSend(buf)
	// 20 retransmit intervals pass; a tick-based resender would attempt
	// ~20 times. Backoff doubles 20ms→40→80→160→320 (maxBackoff), so at
	// most ~7 attempts fit in 400ms, plus slack for timing noise.
	time.Sleep(400 * time.Millisecond)
	p.ny.mu.Lock()
	attempts := 0
	for _, om := range p.ny.outbox {
		attempts = om.attempts
	}
	p.ny.mu.Unlock()
	if attempts == 0 {
		t.Fatal("no retransmission attempts at all")
	}
	if attempts > 10 {
		t.Errorf("attempts = %d over 20 intervals, want backoff-bounded (<= 10)", attempts)
	}
	// And the message still arrives after the partition heals.
	p.net.SetPartitioned("NY", "LA", false)
	d, err := p.la.Dequeue(ctxT(t), "q")
	if err != nil {
		t.Fatal(err)
	}
	d.Ack()
}

// TestRetransmitSoakNotQuadratic pushes 10k one-message commits through
// a healthy link, flushed by the endpoints' own flushers, and checks
// the wire cost stayed near-linear in frames: the legacy transport
// resent the whole outbox per CommitSend, which on this shape goes
// quadratic in payload-sends.
func TestRetransmitSoakNotQuadratic(t *testing.T) {
	const n = 10000
	p := newPairOpts(t, nil, WithMaxBatch(128))
	go func() {
		for i := 0; i < n; i++ {
			buf := p.ny.Buffer()
			buf.Enqueue("LA", "q", i)
			p.ny.CommitSend(buf)
		}
	}()
	ctx := ctxT(t)
	seen := 0
	for seen < n {
		b, err := p.la.DequeueBatch(ctx, "q", 512)
		if err != nil {
			t.Fatal(err)
		}
		seen += b.Len()
		b.Ack()
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.ny.OutboxLen() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("outbox stuck at %d", p.ny.OutboxLen())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := p.net.Stats()
	// Every payload delivered exactly once...
	if st.Payloads < n {
		t.Fatalf("payloads = %d, want >= %d", st.Payloads, n)
	}
	// ...in a near-linear number of frames. The legacy full-outbox
	// resend sends O(n * outbox-depth) payloads; this bound fails it.
	if st.Sent > 2*n {
		t.Errorf("frames = %d for %d messages, wire cost not linear", st.Sent, n)
	}
}

// TestPerQueueWakeupIsolation parks a waiter on an idle queue and
// floods a busy one: the idle waiter's wakeup channel must survive
// untouched — deliveries wake only their own queue (satellite:
// per-queue wakeups).
func TestPerQueueWakeupIsolation(t *testing.T) {
	la := NewManager("LA", simnet.New(), time.Hour)
	defer la.Close()
	ctx := ctxT(t)
	started := make(chan struct{})
	go func() {
		close(started)
		// Blocks until cancel: "idle" never gets traffic.
		_, _ = la.Dequeue(ctx, "idle")
	}()
	<-started
	// Wait until the waiter has registered its wakeup channel.
	deadline := time.Now().Add(2 * time.Second)
	for {
		la.mu.Lock()
		_, registered := la.notify["idle"]
		la.mu.Unlock()
		if registered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle waiter never registered")
		}
		time.Sleep(time.Millisecond)
	}
	la.mu.Lock()
	idleCh := la.notify["idle"]
	la.mu.Unlock()
	// Flood the busy queue.
	for s := uint64(1); s <= 100; s++ {
		la.Handle(simnet.Message{
			From: "NY", To: "LA", Kind: KindEnqueueBatch,
			Payload: BatchFrame{Msgs: []Msg{{
				ID: fmt.Sprintf("NY>LA-%d", s), Seq: s, From: "NY", Queue: "busy",
			}}},
		})
	}
	la.mu.Lock()
	stillThere := la.notify["idle"] == idleCh
	la.mu.Unlock()
	if !stillThere {
		t.Error("busy-queue traffic disturbed the idle queue's waiter (broadcast wakeup?)")
	}
	select {
	case <-idleCh:
		t.Error("idle waiter was woken by busy-queue traffic")
	default:
	}
}

// TestFlushCrashReplaysFromOutbox simulates fault.PointPreBatchFlush at
// the queue layer: the hook eats the first flush (volatile coalescing
// buffer lost), but the messages are already durable in the outbox and
// the retransmitter replays them — exactly once after dedup (satellite:
// batch-fault, crash mid-flush).
func TestFlushCrashReplaysFromOutbox(t *testing.T) {
	fired := false
	hook := func() bool {
		if fired {
			return false
		}
		fired = true
		return true
	}
	net := simnet.New()
	nyInbox, err := net.AddSite("NY")
	if err != nil {
		t.Fatal(err)
	}
	laInbox, err := net.AddSite("LA")
	if err != nil {
		t.Fatal(err)
	}
	p := &pair{
		net: net,
		ny:  NewManager("NY", net, 20*time.Millisecond, WithFlushDelay(0), WithFlushCrash(hook)),
		la:  NewManager("LA", net, 20*time.Millisecond),
	}
	startRouters(t, p, nyInbox, laInbox)

	const n = 3
	buf := p.ny.Buffer()
	for i := 0; i < n; i++ {
		buf.Enqueue("LA", "q", i)
	}
	p.ny.CommitSend(buf) // flush crashes: nothing reaches the wire
	if !fired {
		t.Fatal("flush-crash hook never consulted")
	}
	if got := p.ny.OutboxLen(); got != n {
		t.Fatalf("outbox = %d after crashed flush, want %d (durability)", got, n)
	}
	// Retransmission replays the staged batch from the durable outbox.
	ctx := ctxT(t)
	got := map[int]bool{}
	for i := 0; i < n; i++ {
		d, err := p.la.Dequeue(ctx, "q")
		if err != nil {
			t.Fatal(err)
		}
		v := d.Msg.Payload.(int)
		if got[v] {
			t.Fatalf("payload %d delivered twice", v)
		}
		got[v] = true
		d.Ack()
	}
}

// gate is a Sender that holds its first Send until release, parking the
// endpoint's flusher inside a frame, and hands every frame to sent.
type gate struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
	sent    chan simnet.Message
}

func (g *gate) Send(msg simnet.Message) error {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	g.sent <- msg
	return nil
}

// TestAckPiggybacksOnReverseTraffic checks the piggyback path: an ack
// and reverse data staged for the same peer before a flush leave as one
// BatchFrame, the ack riding the data instead of paying its own frame.
// The flusher is held inside the send of a first frame while the test
// stages both, so which flush carries them is not left to timing.
func TestAckPiggybacksOnReverseTraffic(t *testing.T) {
	wire := &gate{entered: make(chan struct{}), release: make(chan struct{}), sent: make(chan simnet.Message, 4)}
	la := NewManager("LA", wire, time.Hour)
	defer la.Close()
	send := func(payload string) {
		buf := la.Buffer()
		buf.Enqueue("NY", "q", payload)
		la.CommitSend(buf)
	}
	send("first")
	<-wire.entered

	la.Handle(simnet.Message{From: "NY", To: "LA", Kind: KindEnqueueBatch, Payload: BatchFrame{Msgs: []Msg{
		{ID: "NY>LA-1", Seq: 1, From: "NY", Queue: "q", Payload: "ping"},
	}}})
	send("pong")
	close(wire.release)

	next := func() simnet.Message {
		select {
		case f := <-wire.sent:
			return f
		case <-time.After(5 * time.Second):
			t.Fatal("no frame within 5s")
			return simnet.Message{}
		}
	}
	if f := next(); len(f.Payload.(BatchFrame).Msgs) != 1 {
		t.Fatalf("first frame = %+v, want the first message alone", f)
	}
	f := next()
	bf, ok := f.Payload.(BatchFrame)
	if !ok || f.To != "NY" {
		t.Fatalf("next frame = %+v, want one BatchFrame to NY", f)
	}
	if len(bf.Msgs) != 1 || bf.Msgs[0].Payload != "pong" || len(bf.Acks) != 1 || bf.Acks[0] != "NY>LA-1" {
		t.Errorf("next frame carries msgs %+v, acks %v; want pong with the ack of NY>LA-1", bf.Msgs, bf.Acks)
	}
}

// direct is a Sender that hands each frame to its destination endpoint
// on the sending goroutine: a wire with no latency and no goroutine of
// its own.
type direct map[simnet.SiteID]*Manager

func (d direct) Send(msg simnet.Message) error {
	d[msg.To].Handle(msg)
	return nil
}

// TestIdleHopFlushesWithoutWaiting times CommitSend → DequeueBatch hops
// over an idle pair with no persist barrier: the flusher is woken, not
// timed, so a hop costs goroutine wake-ups. A 200 µs coalescing timer
// would bound every hop from below (and an idle Go runtime rounds such
// a timer up to its 1 ms poll), so no median under 200 µs is possible
// with one. A box busy with other work can delay wake-ups too, so the
// best of three rounds is judged.
func TestIdleHopFlushesWithoutWaiting(t *testing.T) {
	const hops, rounds, limit = 50, 3, 200 * time.Microsecond
	wire := direct{}
	ny := NewManager("NY", wire, time.Hour)
	defer ny.Close()
	la := NewManager("LA", wire, time.Hour)
	defer la.Close()
	wire["NY"], wire["LA"] = ny, la
	ctx := ctxT(t)

	best := time.Duration(1<<63 - 1)
	for r := 0; r < rounds && best >= limit; r++ {
		took := make([]time.Duration, hops)
		for i := range took {
			buf := ny.Buffer()
			buf.Enqueue("LA", "q", i)
			start := time.Now()
			ny.CommitSend(buf)
			b, err := la.DequeueBatch(ctx, "q", 1)
			took[i] = time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			b.Ack()
		}
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		if took[hops/2] < best {
			best = took[hops/2]
		}
	}
	t.Logf("median idle hop %v", best)
	if best >= limit {
		t.Errorf("median idle hop = %v in the best of %d rounds, want under %v", best, rounds, limit)
	}
}

// TestDequeueBatchReturnsUpToMax checks batch dequeue caps and order.
func TestDequeueBatchReturnsUpToMax(t *testing.T) {
	p := newPairOpts(t, nil, WithFlushDelay(0))
	buf := p.ny.Buffer()
	for i := 0; i < 10; i++ {
		buf.Enqueue("LA", "q", i)
	}
	p.ny.CommitSend(buf)
	ctx := ctxT(t)
	deadline := time.Now().Add(5 * time.Second)
	for p.la.Depth("q") < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("depth = %d, want 10", p.la.Depth("q"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	b, err := p.la.DequeueBatch(ctx, "q", 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 4 {
		t.Fatalf("batch len = %d, want 4", b.Len())
	}
	for i, d := range b.Deliveries {
		if d.Msg.Payload.(int) != i {
			t.Errorf("delivery %d = %v, want %d (order)", i, d.Msg.Payload, i)
		}
	}
	// Nack restores front-of-queue order.
	b.Nack()
	b2, err := p.la.DequeueBatch(ctx, "q", 10)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Len() != 10 {
		t.Fatalf("batch len = %d, want 10 after nack", b2.Len())
	}
	for i, d := range b2.Deliveries {
		if d.Msg.Payload.(int) != i {
			t.Errorf("post-nack delivery %d = %v, want %d", i, d.Msg.Payload, i)
		}
	}
	b2.Ack()
}

// TestLegacyWireInterop checks the compatibility claim: a legacy-wire
// sender delivers to a batched receiver and vice versa (every endpoint
// accepts both dialects).
func TestLegacyWireInterop(t *testing.T) {
	net := simnet.New()
	nyInbox, err := net.AddSite("NY")
	if err != nil {
		t.Fatal(err)
	}
	laInbox, err := net.AddSite("LA")
	if err != nil {
		t.Fatal(err)
	}
	p := &pair{
		net: net,
		ny:  NewManager("NY", net, 20*time.Millisecond, WithLegacyWire()),
		la:  NewManager("LA", net, 20*time.Millisecond), // batched
	}
	startRouters(t, p, nyInbox, laInbox)
	ctx := ctxT(t)

	// legacy -> batched
	buf := p.ny.Buffer()
	buf.Enqueue("LA", "q", "old-to-new")
	p.ny.CommitSend(buf)
	d, err := p.la.Dequeue(ctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	if d.Msg.Payload.(string) != "old-to-new" {
		t.Errorf("payload = %v", d.Msg.Payload)
	}
	d.Ack()

	// batched -> legacy
	buf = p.la.Buffer()
	buf.Enqueue("NY", "q", "new-to-old")
	p.la.CommitSend(buf)
	d, err = p.ny.Dequeue(ctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	if d.Msg.Payload.(string) != "new-to-old" {
		t.Errorf("payload = %v", d.Msg.Payload)
	}
	d.Ack()

	deadline := time.Now().Add(5 * time.Second)
	for p.ny.OutboxLen()+p.la.OutboxLen() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("outboxes stuck: ny=%d la=%d", p.ny.OutboxLen(), p.la.OutboxLen())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWakeHasNoAllocWhenNoWaiter pins the cost of the per-queue wakeup
// on the hot admit path: with no waiter parked, waking is a map lookup,
// zero allocations (satellite: per-queue wakeups).
func TestWakeHasNoAllocWhenNoWaiter(t *testing.T) {
	m := NewManager("LA", simnet.New(), time.Hour)
	defer m.Close()
	allocs := testing.AllocsPerRun(1000, func() {
		m.mu.Lock()
		m.wakeLocked("nobody-waiting")
		m.mu.Unlock()
	})
	if allocs > 0 {
		t.Errorf("wakeLocked allocs = %.1f, want 0", allocs)
	}
}
