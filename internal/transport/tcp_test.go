package transport

import (
	"context"
	"errors"
	"fmt"
	stdnet "net"
	"sync"
	"testing"
	"time"

	"asynctp/internal/queue"
	"asynctp/internal/simnet"
)

// loopback builds a single-process transport hosting the given sites,
// every frame crossing a real TCP loopback socket.
func loopback(t *testing.T, sites ...simnet.SiteID) (*Net, map[simnet.SiteID]<-chan simnet.Message) {
	t.Helper()
	listen := make(map[simnet.SiteID]string, len(sites))
	for _, s := range sites {
		listen[s] = "127.0.0.1:0"
	}
	tn := New(Config{Listen: listen, DialBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond})
	inboxes := make(map[simnet.SiteID]<-chan simnet.Message, len(sites))
	for _, s := range sites {
		ch, err := tn.AddSite(s)
		if err != nil {
			t.Fatalf("AddSite(%s): %v", s, err)
		}
		inboxes[s] = ch
	}
	t.Cleanup(tn.Close)
	return tn, inboxes
}

func recvOne(t *testing.T, inbox <-chan simnet.Message, within time.Duration) simnet.Message {
	t.Helper()
	select {
	case msg := <-inbox:
		return msg
	case <-time.After(within):
		t.Fatalf("no message within %v", within)
		return simnet.Message{}
	}
}

func TestTCPDelivery(t *testing.T) {
	tn, inboxes := loopback(t, "A", "B")
	want := simnet.Message{From: "A", To: "B", Kind: "test", Payload: "hello"}
	if err := tn.Send(want); err != nil {
		t.Fatalf("send: %v", err)
	}
	got := recvOne(t, inboxes["B"], 2*time.Second)
	if got.From != "A" || got.To != "B" || got.Payload != "hello" {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	st := tn.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Payloads != 1 {
		t.Fatalf("stats %+v, want 1 sent/delivered/payload", st)
	}
	if st.PerLink["A->B"] != 1 {
		t.Fatalf("per-link %v, want A->B: 1", st.PerLink)
	}
}

func TestTCPUnknownAndUnreachable(t *testing.T) {
	tn, _ := loopback(t, "A", "B")
	if err := tn.Send(simnet.Message{From: "A", To: "Z", Kind: "test"}); !errors.Is(err, simnet.ErrUnknownSite) {
		t.Fatalf("unknown site: got %v", err)
	}
	tn.SetDown("B", true)
	if err := tn.Send(simnet.Message{From: "A", To: "B", Kind: "test"}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("down site: got %v", err)
	}
	tn.SetDown("B", false)
	tn.SetPartitioned("A", "B", true)
	if err := tn.Send(simnet.Message{From: "A", To: "B", Kind: "test"}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("partitioned link: got %v", err)
	}
}

// TestTCPReconnectBackoff sends toward a site whose listener does not
// exist yet: the writer must keep redialing with capped backoff and
// deliver the frame once the listener appears — a site restart seen
// from its peer.
func TestTCPReconnectBackoff(t *testing.T) {
	// Reserve a port, then free it for the late listener.
	l, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	sender := New(Config{
		Listen:      map[simnet.SiteID]string{"A": "127.0.0.1:0"},
		Peers:       map[simnet.SiteID]string{"B": addr},
		DialBackoff: time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
	})
	defer sender.Close()
	if _, err := sender.AddSite("A"); err != nil {
		t.Fatal(err)
	}
	if err := sender.Send(simnet.Message{From: "A", To: "B", Kind: "test", Payload: "late"}); err != nil {
		t.Fatalf("send: %v", err)
	}

	time.Sleep(100 * time.Millisecond) // let several dial attempts fail
	receiver := New(Config{Listen: map[simnet.SiteID]string{"B": addr}})
	defer receiver.Close()
	inbox, err := receiver.AddSite("B")
	if err != nil {
		t.Fatalf("late listener: %v", err)
	}
	got := recvOne(t, inbox, 5*time.Second)
	if got.Payload != "late" {
		t.Fatalf("got %+v", got)
	}
}

// endpoint is one queue.Manager riding the transport, with its inbox
// pump.
type endpoint struct {
	mgr *queue.Manager
}

func newEndpoint(t *testing.T, tn *Net, site simnet.SiteID, inbox <-chan simnet.Message) *endpoint {
	t.Helper()
	ep := &endpoint{mgr: queue.NewManager(site, tn, 20*time.Millisecond)}
	t.Cleanup(ep.mgr.Close)
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	go func() {
		for {
			select {
			case msg := <-inbox:
				ep.mgr.Handle(msg)
			case <-done:
				return
			}
		}
	}()
	return ep
}

func (ep *endpoint) send(to simnet.SiteID, queueName string, payloads ...string) {
	b := ep.mgr.Buffer()
	for _, p := range payloads {
		b.Enqueue(to, queueName, p)
	}
	ep.mgr.CommitSend(b)
}

// consume dequeues until `want` payloads arrived or the deadline hits,
// failing on any duplicate — the exactly-once assertion.
func (ep *endpoint) consume(t *testing.T, queueName string, want int, within time.Duration) map[string]int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	got := make(map[string]int)
	n := 0
	for n < want {
		batch, err := ep.mgr.DequeueBatch(ctx, queueName, 64)
		if err != nil {
			t.Fatalf("after %d/%d payloads: %v", n, want, err)
		}
		for _, d := range batch.Deliveries {
			s := d.Msg.Payload.(string)
			got[s]++
			if got[s] > 1 {
				t.Fatalf("payload %q delivered %d times", s, got[s])
			}
			n++
		}
		batch.Ack()
	}
	return got
}

func waitOutboxDrained(t *testing.T, ep *endpoint, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for ep.mgr.OutboxLen() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("outbox still holds %d unacked messages after %v", ep.mgr.OutboxLen(), within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPExactlyOnceAcrossConnKills floods one direction while the
// live connections keep dying mid-batch. Retransmission redelivers
// whatever each dead connection swallowed; the watermark dedup must
// shave the redeliveries back to exactly one application delivery per
// message, and every message must eventually be acknowledged.
func TestTCPExactlyOnceAcrossConnKills(t *testing.T) {
	tn, inboxes := loopback(t, "A", "B")
	a := newEndpoint(t, tn, "A", inboxes["A"])
	b := newEndpoint(t, tn, "B", inboxes["B"])

	const total = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			a.send("B", "pieces", fmt.Sprintf("m-%03d", i))
			if i%20 == 10 {
				tn.KillConn("B") // die mid-stream, batches in flight
			}
			if i%50 == 25 {
				tn.InjectHalfWrite("B") // next frame torn on the wire
			}
			time.Sleep(time.Millisecond)
		}
	}()

	got := b.consume(t, "pieces", total, 20*time.Second)
	wg.Wait()
	if len(got) != total {
		t.Fatalf("got %d distinct payloads, want %d", len(got), total)
	}
	waitOutboxDrained(t, a, 10*time.Second)
}

// TestTCPAcksDrainAfterReconnect kills both directions of a
// bidirectional flow, then keeps traffic going both ways: every message
// must arrive exactly once over the reconnected streams, and the acks
// coming back must drain both outboxes. Whether an ack rides reverse
// data or a frame of its own depends on what is pending at the flush;
// TestAckPiggybacksOnReverseTraffic in internal/queue pins the
// piggyback itself.
func TestTCPAcksDrainAfterReconnect(t *testing.T) {
	tn, inboxes := loopback(t, "A", "B")
	a := newEndpoint(t, tn, "A", inboxes["A"])
	b := newEndpoint(t, tn, "B", inboxes["B"])

	// Warm both directions so both ends hold live connections.
	a.send("B", "pieces", "warm-a")
	b.send("A", "back", "warm-b")
	b.consume(t, "pieces", 1, 5*time.Second)
	a.consume(t, "back", 1, 5*time.Second)

	tn.KillConn("A")
	tn.KillConn("B")

	const rounds = 30
	for i := 0; i < rounds; i++ {
		a.send("B", "pieces", fmt.Sprintf("fwd-%02d", i))
		b.send("A", "back", fmt.Sprintf("rev-%02d", i))
		time.Sleep(2 * time.Millisecond)
	}
	b.consume(t, "pieces", rounds, 10*time.Second)
	a.consume(t, "back", rounds, 10*time.Second)
	waitOutboxDrained(t, a, 10*time.Second)
	waitOutboxDrained(t, b, 10*time.Second)
}

// TestTCPHalfWrittenFrame arms the half-write fault with no other
// traffic: the lone torn frame must be retransmitted on a fresh
// connection and delivered exactly once.
func TestTCPHalfWrittenFrame(t *testing.T) {
	tn, inboxes := loopback(t, "A", "B")
	a := newEndpoint(t, tn, "A", inboxes["A"])
	b := newEndpoint(t, tn, "B", inboxes["B"])

	tn.InjectHalfWrite("B")
	a.send("B", "pieces", "torn-once")
	got := b.consume(t, "pieces", 1, 10*time.Second)
	if got["torn-once"] != 1 {
		t.Fatalf("got %v", got)
	}
	waitOutboxDrained(t, a, 10*time.Second)
}

// TestTCPLossAndLatencyKnobs exercises the WAN-emulation path: under
// heavy injected loss the queue layer still gets everything through,
// and a latency setting visibly delays delivery.
func TestTCPLossAndLatencyKnobs(t *testing.T) {
	tn, inboxes := loopback(t, "A", "B", "C") // C has no endpoint: a raw inbox
	a := newEndpoint(t, tn, "A", inboxes["A"])
	b := newEndpoint(t, tn, "B", inboxes["B"])

	tn.SetLossRate(0.3)
	const total = 60
	for i := 0; i < total; i++ {
		a.send("B", "pieces", fmt.Sprintf("lossy-%02d", i))
		time.Sleep(time.Millisecond) // one frame per message: many loss draws
	}
	b.consume(t, "pieces", total, 20*time.Second)
	tn.SetLossRate(0)
	waitOutboxDrained(t, a, 10*time.Second)
	if st := tn.Stats(); st.Dropped == 0 {
		t.Fatalf("loss knob dropped nothing: %+v", st)
	}

	tn.SetLatency(50*time.Millisecond, 0)
	start := time.Now()
	if err := tn.Send(simnet.Message{From: "A", To: "C", Kind: "test", Payload: "slow"}); err != nil {
		t.Fatal(err)
	}
	if msg := recvOne(t, inboxes["C"], 5*time.Second); msg.Payload != "slow" {
		t.Fatalf("got %+v", msg)
	}
	if took := time.Since(start); took < 50*time.Millisecond {
		t.Fatalf("latency knob ignored: delivery took %v", took)
	}
}
