package queue

import (
	"context"
	"sync"
	"testing"
	"time"

	"asynctp/internal/simnet"
)

// pair wires two sites with queue managers and a router goroutine per
// site; cleanup tears everything down.
type pair struct {
	net      *simnet.Network
	ny, la   *Manager
	routerWG sync.WaitGroup
	cancel   context.CancelFunc
}

func newPair(t *testing.T, opts ...simnet.Option) *pair {
	t.Helper()
	net := simnet.New(opts...)
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
		ny:  NewManager("NY", net, 20*time.Millisecond),
		la:  NewManager("LA", net, 20*time.Millisecond),
	}
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
		net.Close()
	})
	return p
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestCommitSendDelivers(t *testing.T) {
	p := newPair(t)
	buf := p.ny.Buffer()
	buf.Enqueue("LA", "credits", 100)
	if buf.Len() != 1 {
		t.Fatalf("staged = %d", buf.Len())
	}
	p.ny.CommitSend(buf)
	d, err := p.la.Dequeue(ctxT(t), "credits")
	if err != nil {
		t.Fatal(err)
	}
	if d.Msg.Payload.(int) != 100 || d.Msg.From != "NY" {
		t.Errorf("msg = %+v", d.Msg)
	}
	d.Ack()
	// The ack eventually clears NY's outbox.
	deadline := time.Now().Add(2 * time.Second)
	for p.ny.OutboxLen() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("outbox never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAbortedSenderDeliversNothing(t *testing.T) {
	p := newPair(t)
	buf := p.ny.Buffer()
	buf.Enqueue("LA", "credits", 1)
	// The sending transaction aborts: the buffer is dropped, never
	// committed.
	buf = nil
	_ = buf
	time.Sleep(50 * time.Millisecond)
	if got := p.la.Depth("credits"); got != 0 {
		t.Errorf("aborted send delivered %d messages", got)
	}
	if p.ny.OutboxLen() != 0 {
		t.Error("aborted send reached the outbox")
	}
}

func TestNackRedelivers(t *testing.T) {
	p := newPair(t)
	buf := p.ny.Buffer()
	buf.Enqueue("LA", "q", "payload")
	p.ny.CommitSend(buf)
	ctx := ctxT(t)
	d, err := p.la.Dequeue(ctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	d.Nack() // consumer aborted
	d2, err := p.la.Dequeue(ctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	if d2.Msg.ID != d.Msg.ID {
		t.Errorf("redelivered ID %s, want %s", d2.Msg.ID, d.Msg.ID)
	}
	d2.Ack()
	// Settled deliveries ignore late calls.
	d2.Nack()
	if got := p.la.Depth("q"); got != 0 {
		t.Errorf("depth after double settle = %d", got)
	}
}

func TestDeliveryThroughPartition(t *testing.T) {
	p := newPair(t)
	p.net.SetPartitioned("NY", "LA", true)
	buf := p.ny.Buffer()
	buf.Enqueue("LA", "q", 7)
	p.ny.CommitSend(buf) // transmit fails silently; retransmitter takes over
	time.Sleep(60 * time.Millisecond)
	if got := p.la.Depth("q"); got != 0 {
		t.Fatalf("message crossed a partition: %d", got)
	}
	p.net.SetPartitioned("NY", "LA", false)
	d, err := p.la.Dequeue(ctxT(t), "q")
	if err != nil {
		t.Fatal(err)
	}
	if d.Msg.Payload.(int) != 7 {
		t.Errorf("payload = %v", d.Msg.Payload)
	}
	d.Ack()
}

func TestRetransmissionDedupes(t *testing.T) {
	// Partition AFTER delivery but before the ack returns: the sender
	// keeps retransmitting; the receiver must not enqueue a duplicate.
	p := newPair(t)
	buf := p.ny.Buffer()
	buf.Enqueue("LA", "q", 1)
	p.ny.CommitSend(buf)
	d, err := p.la.Dequeue(ctxT(t), "q")
	if err != nil {
		t.Fatal(err)
	}
	d.Ack()
	// Let several retransmit ticks pass (acks may race; dedup must hold).
	time.Sleep(100 * time.Millisecond)
	if got := p.la.Depth("q"); got != 0 {
		t.Errorf("duplicate enqueued: depth = %d", got)
	}
}

// TestSeqZeroMessageDropped sends one frame twice: a message without a
// Seq beside a well-formed one. Dedup keys on Seq, so an unnumbered
// message used to be admitted again on every copy; it is malformed and
// must be neither admitted nor acknowledged, while its well-formed
// neighbour is admitted exactly once.
func TestSeqZeroMessageDropped(t *testing.T) {
	wire := &capture{}
	m := NewManager("LA", wire, time.Hour, WithFlushDelay(0))
	defer m.Close()
	frame := simnet.Message{From: "NY", To: "LA", Kind: KindEnqueueBatch, Payload: BatchFrame{Msgs: []Msg{
		{ID: "x", From: "NY", Queue: "bad"},
		{ID: "NY>LA-1", Seq: 1, From: "NY", Queue: "good"},
	}}}
	m.Handle(frame)
	m.Handle(frame)
	if got := m.Depth("bad"); got != 0 {
		t.Errorf("Seq-0 message admitted: depth = %d, want 0", got)
	}
	if got := m.Depth("good"); got != 1 {
		t.Errorf("well-formed message depth = %d, want 1", got)
	}
	for _, f := range wire.take() {
		ack, ok := f.Payload.(AckFrame)
		if !ok {
			t.Fatalf("unexpected frame %s", f.Kind)
		}
		for _, id := range ack.IDs {
			if id == "x" {
				t.Errorf("Seq-0 message acknowledged")
			}
		}
	}
}

func TestCrashRecoveryRedeliversInflight(t *testing.T) {
	p := newPair(t)
	buf := p.ny.Buffer()
	buf.Enqueue("LA", "q", "x")
	p.ny.CommitSend(buf)
	ctx := ctxT(t)
	d, err := p.la.Dequeue(ctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	// LA crashes with the delivery in flight (consumer never committed).
	snap := p.la.Snapshot()
	p.la.Restore(snap)
	_ = d // the old delivery handle is dead with the crash
	d2, err := p.la.Dequeue(ctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	if d2.Msg.Payload.(string) != "x" {
		t.Errorf("redelivered payload = %v", d2.Msg.Payload)
	}
	d2.Ack()
}

func TestSnapshotCarriesOutbox(t *testing.T) {
	p := newPair(t)
	p.net.SetPartitioned("NY", "LA", true)
	buf := p.ny.Buffer()
	buf.Enqueue("LA", "q", 9)
	p.ny.CommitSend(buf)
	snap := p.ny.Snapshot()
	if len(snap.Outbox) != 1 {
		t.Fatalf("snapshot outbox = %d", len(snap.Outbox))
	}
	// NY crashes and recovers; the committed message must still go out.
	p.ny.Restore(snap)
	p.net.SetPartitioned("NY", "LA", false)
	d, err := p.la.Dequeue(ctxT(t), "q")
	if err != nil {
		t.Fatal(err)
	}
	if d.Msg.Payload.(int) != 9 {
		t.Errorf("payload = %v", d.Msg.Payload)
	}
	d.Ack()
}

func TestMultipleQueuesIndependentWaiters(t *testing.T) {
	p := newPair(t)
	ctx := ctxT(t)
	results := make(chan string, 2)
	var wg sync.WaitGroup
	for _, q := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			d, err := p.la.Dequeue(ctx, q)
			if err != nil {
				t.Errorf("dequeue %s: %v", q, err)
				return
			}
			results <- d.Msg.Payload.(string)
			d.Ack()
		}(q)
	}
	// Deliver beta first, then alpha: both waiters must wake.
	buf := p.ny.Buffer()
	buf.Enqueue("LA", "beta", "B")
	p.ny.CommitSend(buf)
	buf = p.ny.Buffer()
	buf.Enqueue("LA", "alpha", "A")
	p.ny.CommitSend(buf)
	wg.Wait()
	close(results)
	got := map[string]bool{}
	for r := range results {
		got[r] = true
	}
	if !got["A"] || !got["B"] {
		t.Errorf("results = %v", got)
	}
}

func TestDequeueHonorsContext(t *testing.T) {
	p := newPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := p.la.Dequeue(ctx, "empty"); err == nil {
		t.Error("dequeue on empty queue returned without message")
	}
}

func TestBatchDeliveredExactlyOnce(t *testing.T) {
	// Delivery order across the simulated WAN is not guaranteed, but
	// every committed message arrives exactly once.
	p := newPair(t)
	buf := p.ny.Buffer()
	for i := 0; i < 5; i++ {
		buf.Enqueue("LA", "q", i)
	}
	p.ny.CommitSend(buf)
	ctx := ctxT(t)
	got := map[int]bool{}
	for i := 0; i < 5; i++ {
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
	// Give retransmit ticks a chance to create (forbidden) duplicates.
	time.Sleep(80 * time.Millisecond)
	if depth := p.la.Depth("q"); depth != 0 {
		t.Errorf("queue depth after drain = %d", depth)
	}
}

func TestDeliveryThroughLossyNetwork(t *testing.T) {
	// 40% silent message loss: retransmission + dedup must still deliver
	// every committed message exactly once.
	p := newPair(t, simnet.WithLossRate(0.4), simnet.WithSeed(13))
	const n = 20
	buf := p.ny.Buffer()
	for i := 0; i < n; i++ {
		buf.Enqueue("LA", "lossy", i)
	}
	p.ny.CommitSend(buf)
	ctx := ctxT(t)
	got := map[int]bool{}
	for i := 0; i < n; i++ {
		d, err := p.la.Dequeue(ctx, "lossy")
		if err != nil {
			t.Fatalf("dequeue %d: %v", i, err)
		}
		v := d.Msg.Payload.(int)
		if got[v] {
			t.Fatalf("payload %d delivered twice", v)
		}
		got[v] = true
		d.Ack()
	}
	// Outbox eventually drains despite lost acks.
	deadline := time.Now().Add(5 * time.Second)
	for p.ny.OutboxLen() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("outbox stuck at %d through lossy acks", p.ny.OutboxLen())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashWindowRedelivery exercises the crash window between a
// consumer's Dequeue and its Ack: the durable Snapshot taken with the
// delivery in flight is Restored onto a fresh Manager (the crashed
// site's replacement), which must redeliver the unacked message exactly
// once and at the front, keep the Msg.ID dedup set so retransmitted
// duplicates stay out, and preserve Nack front-of-queue ordering.
func TestCrashWindowRedelivery(t *testing.T) {
	net := simnet.New()
	nyInbox, err := net.AddSite("NY")
	if err != nil {
		t.Fatal(err)
	}
	laInbox, err := net.AddSite("LA")
	if err != nil {
		t.Fatal(err)
	}
	ny := NewManager("NY", net, 20*time.Millisecond)
	la := NewManager("LA", net, 20*time.Millisecond)
	var laMu sync.Mutex
	currentLA := func() *Manager {
		laMu.Lock()
		defer laMu.Unlock()
		return la
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case msg := <-nyInbox:
				ny.Handle(msg)
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case msg := <-laInbox:
				currentLA().Handle(msg)
			case <-ctx.Done():
				return
			}
		}
	}()
	t.Cleanup(func() {
		ny.Close()
		currentLA().Close()
		cancel()
		wg.Wait()
		net.Close()
	})

	buf := ny.Buffer()
	for i := 0; i < 3; i++ {
		buf.Enqueue("LA", "q", i)
	}
	ny.CommitSend(buf)
	deadline := time.Now().Add(5 * time.Second)
	for la.Depth("q") != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want 3", la.Depth("q"))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Dequeue the first message but crash before acking.
	tctx := ctxT(t)
	d, err := la.Dequeue(tctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	first := d.Msg
	snap := la.Snapshot()
	if len(snap.Inflight) != 1 {
		t.Fatalf("snapshot holds %d in-flight deliveries, want 1", len(snap.Inflight))
	}

	// Crash: the replacement Manager restores the durable image.
	old := la
	fresh := NewManager("LA", net, 20*time.Millisecond)
	fresh.Restore(snap)
	laMu.Lock()
	la = fresh
	laMu.Unlock()
	old.Close()

	// The unacked delivery is redelivered exactly once, at the front.
	d0, err := fresh.Dequeue(tctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	if d0.Msg.ID != first.ID {
		t.Fatalf("first redelivery = %q, want unacked %q", d0.Msg.ID, first.ID)
	}
	delivered := map[int]bool{d0.Msg.Payload.(int): true}
	d0.Ack()

	// The Msg.ID dedup set survived the restore: a retransmitted
	// duplicate of the consumed message must not re-queue it.
	fresh.Handle(simnet.Message{From: "NY", To: "LA", Kind: KindEnqueueBatch, Payload: BatchFrame{Msgs: []Msg{first}}})
	if depth := fresh.Depth("q"); depth != 2 {
		t.Fatalf("duplicate re-queued after restore: depth %d, want 2", depth)
	}

	// Nack puts the message back at the front, ahead of later arrivals.
	d1, err := fresh.Dequeue(tctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	d1.Nack()
	d1b, err := fresh.Dequeue(tctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	if d1b.Msg.ID != d1.Msg.ID {
		t.Fatalf("after Nack got %q, want %q redelivered first", d1b.Msg.ID, d1.Msg.ID)
	}
	if delivered[d1b.Msg.Payload.(int)] {
		t.Fatalf("payload %v delivered twice", d1b.Msg.Payload)
	}
	delivered[d1b.Msg.Payload.(int)] = true
	d1b.Ack()
	d2, err := fresh.Dequeue(tctx, "q")
	if err != nil {
		t.Fatal(err)
	}
	if delivered[d2.Msg.Payload.(int)] {
		t.Fatalf("payload %v delivered twice", d2.Msg.Payload)
	}
	delivered[d2.Msg.Payload.(int)] = true
	d2.Ack()
	for i := 0; i < 3; i++ {
		if !delivered[i] {
			t.Errorf("payload %d never delivered", i)
		}
	}
	if depth := fresh.Depth("q"); depth != 0 {
		t.Fatalf("queue not drained: depth %d", depth)
	}
}
