package queue

import (
	"errors"
	"sync"
	"testing"
	"time"

	"asynctp/internal/simnet"
)

// capture is a Sender that keeps every frame, so a test delivers by
// hand and sees exactly what an endpoint put on the wire and when.
type capture struct {
	mu   sync.Mutex
	sent []simnet.Message
}

func (c *capture) Send(msg simnet.Message) error {
	c.mu.Lock()
	c.sent = append(c.sent, msg)
	c.mu.Unlock()
	return nil
}

// take returns the frames sent since the last call.
func (c *capture) take() []simnet.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.sent
	c.sent = nil
	return out
}

// framesFrom commits n one-message transactions at a fresh sender and
// returns the sender with the n batch frames it put on the wire.
func framesFrom(t *testing.T, site simnet.SiteID, n int) (*Manager, []simnet.Message) {
	t.Helper()
	wire := &capture{}
	m := NewManager(site, wire, time.Hour, WithFlushDelay(0))
	t.Cleanup(m.Close)
	for i := 0; i < n; i++ {
		buf := m.Buffer()
		buf.Enqueue("NY", "pieces", statePayload{Inst: uint64(i + 1)})
		m.CommitSend(buf)
	}
	frames := wire.take()
	if len(frames) != n || m.OutboxLen() != n {
		t.Fatalf("%s: %d frames, outbox %d, want %d of each", site, len(frames), m.OutboxLen(), n)
	}
	return m, frames
}

// persistProbe is a WithPersist callback that counts calls, keeps the
// last image, fails on demand and can hold a call open.
type persistProbe struct {
	mu      sync.Mutex
	calls   int
	last    State
	fail    error
	entered chan struct{} // non-nil: signalled on entry, then waits for release
	release chan struct{}
}

func (p *persistProbe) persist(st State) error {
	p.mu.Lock()
	p.calls++
	p.last = st
	err, entered := p.fail, p.entered
	p.mu.Unlock()
	if entered != nil {
		entered <- struct{}{}
		<-p.release
	}
	return err
}

func (p *persistProbe) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

func (p *persistProbe) setFail(err error) {
	p.mu.Lock()
	p.fail = err
	p.mu.Unlock()
}

// deliverAcks hands every frame the receiver sent to the sender it is
// addressed to.
func deliverAcks(frames []simnet.Message, senders map[simnet.SiteID]*Manager) {
	for _, f := range frames {
		senders[f.To].Handle(f)
	}
}

// TestBarrierOnePersistPerGroup: N frames handed over together share one
// persist, whose image holds all their messages, and not one ack is
// staged until it has returned.
func TestBarrierOnePersistPerGroup(t *testing.T) {
	const n = 5
	la, frames := framesFrom(t, "LA", n)
	probe := &persistProbe{entered: make(chan struct{}), release: make(chan struct{})}
	wire := &capture{}
	ny := NewManager("NY", wire, time.Hour, WithFlushDelay(0), WithPersist(probe.persist))
	defer ny.Close()

	handled := make(chan struct{})
	go func() {
		ny.HandleAll(frames)
		close(handled)
	}()
	<-probe.entered
	if got := len(wire.take()); got != 0 {
		t.Errorf("%d frames left NY while persist was still running", got)
	}
	if la.OutboxLen() != n {
		t.Errorf("sender outbox = %d during persist, want %d", la.OutboxLen(), n)
	}
	if got := len(probe.last.Queues["pieces"]); got != n {
		t.Errorf("persisted image holds %d messages, want all %d", got, n)
	}
	close(probe.release)
	<-handled

	if probe.count() != 1 {
		t.Errorf("persist called %d times for one group, want 1", probe.count())
	}
	deliverAcks(wire.take(), map[simnet.SiteID]*Manager{"LA": la})
	if la.OutboxLen() != 0 {
		t.Errorf("sender outbox = %d after the group's acks, want 0", la.OutboxLen())
	}
	if ny.Depth("pieces") != n {
		t.Errorf("depth = %d, want %d", ny.Depth("pieces"), n)
	}
}

// TestBarrierPersistErrorWithholdsEveryAck: a failed persist acks no
// frame of the group. The retransmitted frames admit nothing new, yet
// must not be acked from the failed image: they are persisted again,
// acked once that succeeds, and only then does a further duplicate ride
// on the durable image without a new one.
func TestBarrierPersistErrorWithholdsEveryAck(t *testing.T) {
	const n = 3
	la, frames := framesFrom(t, "LA", n)
	probe := &persistProbe{fail: errors.New("disk full")}
	wire := &capture{}
	ny := NewManager("NY", wire, time.Hour, WithFlushDelay(0), WithPersist(probe.persist))
	defer ny.Close()
	senders := map[simnet.SiteID]*Manager{"LA": la}

	ny.HandleAll(frames)
	if got := len(wire.take()); got != 0 || la.OutboxLen() != n {
		t.Fatalf("failed persist: %d frames sent, sender outbox %d; want 0 and %d", got, la.OutboxLen(), n)
	}

	// The duplicate arrives while nothing durable holds its messages.
	ny.HandleAll(frames[:1])
	if got := len(wire.take()); got != 0 || probe.count() != 2 {
		t.Fatalf("duplicate after a failed persist: %d frames sent, %d persists; want 0 and 2", got, probe.count())
	}

	probe.setFail(nil)
	ny.HandleAll(frames)
	if probe.count() != 3 {
		t.Fatalf("persist calls = %d, want 3", probe.count())
	}
	deliverAcks(wire.take(), senders)
	if la.OutboxLen() != 0 || ny.Depth("pieces") != n {
		t.Fatalf("after recovery: sender outbox %d, depth %d; want 0 and %d", la.OutboxLen(), ny.Depth("pieces"), n)
	}

	// The ack was lost, say: the same frame again is covered by the
	// durable image and is re-acked without another persist.
	ny.HandleAll(frames[:1])
	if probe.count() != 3 {
		t.Errorf("a covered duplicate was persisted again (%d calls)", probe.count())
	}
	acks := wire.take()
	if len(acks) != 1 || acks[0].Kind != KindAckBatch {
		t.Fatalf("covered duplicate: sent %+v, want one ack frame", acks)
	}
	if ids := acks[0].Payload.(AckFrame).IDs; len(ids) != 1 || ids[0] != frames[0].Payload.(BatchFrame).Msgs[0].ID {
		t.Errorf("re-ack carries %v", ids)
	}
}

// TestBarrierAcksEachSender: frames of two senders in one group are
// acknowledged to the sender each came from, in arrival order.
func TestBarrierAcksEachSender(t *testing.T) {
	la, laFrames := framesFrom(t, "LA", 2)
	chi, chiFrames := framesFrom(t, "CHI", 2)
	probe := &persistProbe{}
	wire := &capture{}
	ny := NewManager("NY", wire, time.Hour, WithFlushDelay(0), WithPersist(probe.persist))
	defer ny.Close()

	ny.HandleAll([]simnet.Message{laFrames[0], chiFrames[0], laFrames[1], chiFrames[1]})
	if probe.count() != 1 {
		t.Errorf("persist calls = %d, want 1", probe.count())
	}
	acks := wire.take()
	if len(acks) != 2 {
		t.Fatalf("ack frames = %d, want one per sender", len(acks))
	}
	for _, a := range acks {
		want := laFrames
		if a.To == "CHI" {
			want = chiFrames
		}
		ids := a.Payload.(AckFrame).IDs
		if len(ids) != 2 || ids[0] != want[0].Payload.(BatchFrame).Msgs[0].ID || ids[1] != want[1].Payload.(BatchFrame).Msgs[0].ID {
			t.Errorf("acks to %s = %v", a.To, ids)
		}
	}
	deliverAcks(acks, map[simnet.SiteID]*Manager{"LA": la, "CHI": chi})
	if la.OutboxLen() != 0 || chi.OutboxLen() != 0 {
		t.Errorf("outboxes after acks: LA %d, CHI %d", la.OutboxLen(), chi.OutboxLen())
	}
}

// TestSnapshotVersionsAscendAcrossRestore: versions order a manager's
// images and carry on from a restored one, so the image a restarted
// endpoint writes first beats everything its predecessor wrote.
func TestSnapshotVersionsAscendAcrossRestore(t *testing.T) {
	wire := &capture{}
	m := NewManager("NY", wire, time.Hour)
	defer m.Close()
	a, b := m.Snapshot(), m.Snapshot()
	if a.Version == 0 || b.Version <= a.Version {
		t.Fatalf("versions %d then %d, want ascending from 1", a.Version, b.Version)
	}
	m2 := NewManager("NY", wire, time.Hour)
	defer m2.Close()
	m2.Restore(b)
	if c := m2.Snapshot(); c.Version <= b.Version {
		t.Errorf("first image after restoring version %d has version %d", b.Version, c.Version)
	}
}

// TestSendHeldUntilPersist: under a persist barrier a committed message
// stays off the wire — the retransmitter skips it too — until Persist
// has made an image holding it durable. A failed persist keeps it held,
// and a Restore drops it.
func TestSendHeldUntilPersist(t *testing.T) {
	probe := &persistProbe{}
	wire := &capture{}
	la := NewManager("LA", wire, time.Millisecond, WithFlushDelay(0), WithPersist(probe.persist))
	defer la.Close()
	send := func(inst uint64) {
		buf := la.Buffer()
		buf.Enqueue("NY", "pieces", statePayload{Inst: inst})
		la.CommitSend(buf)
	}

	send(1)
	time.Sleep(5 * time.Millisecond) // several retransmit ticks
	if got := len(wire.take()); got != 0 {
		t.Fatalf("%d frames left before any persist", got)
	}
	probe.setFail(errors.New("disk full"))
	if err := la.Persist(); err == nil {
		t.Fatal("Persist hid the backend's error")
	}
	if got := len(wire.take()); got != 0 {
		t.Fatalf("%d frames left after a failed persist", got)
	}
	probe.setFail(nil)
	if err := la.Persist(); err != nil {
		t.Fatal(err)
	}
	if len(probe.last.Outbox) != 1 {
		t.Fatalf("persisted image holds %d outbox entries, want the held message", len(probe.last.Outbox))
	}
	if frames := wire.take(); len(frames) != 1 || len(frames[0].Payload.(BatchFrame).Msgs) != 1 {
		t.Fatalf("after the persist: %+v, want one frame with the message", frames)
	}

	send(2)
	la.Restore(State{})
	if err := la.Persist(); err != nil {
		t.Fatal(err)
	}
	if frames := wire.take(); len(frames) != 0 {
		t.Errorf("a message held across a Restore was sent: %+v", frames)
	}
}

// durableWire is a Sender and a persist callback in one: it remembers
// every outbox entry an image has held by the time persist returned,
// and reports a frame carrying a message none did.
type durableWire struct {
	t       *testing.T
	mu      sync.Mutex
	durable map[string]bool
	sent    int
}

func (w *durableWire) persist(st State) error {
	w.mu.Lock()
	for id := range st.Outbox {
		w.durable[id] = true
	}
	w.mu.Unlock()
	return nil
}

func (w *durableWire) Send(msg simnet.Message) error {
	frame, ok := msg.Payload.(BatchFrame)
	if !ok {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, m := range frame.Msgs {
		if !w.durable[m.ID] {
			w.t.Errorf("%s left before an image held it", m.ID)
		}
		w.sent++
	}
	return nil
}

// TestConcurrentCommitAndPersist races committers, each persisting after
// its send, against receive barriers on the same endpoint (run under
// -race): every message leaves exactly once, and never ahead of an image
// holding it.
func TestConcurrentCommitAndPersist(t *testing.T) {
	const committers, each = 4, 50
	_, frames := framesFrom(t, "CHI", each)
	wire := &durableWire{t: t, durable: make(map[string]bool)}
	la := NewManager("LA", wire, time.Hour, WithFlushDelay(0), WithPersist(wire.persist))
	defer la.Close()
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				buf := la.Buffer()
				buf.Enqueue("NY", "pieces", statePayload{Inst: uint64(g*each + i)})
				la.CommitSend(buf)
				if err := la.Persist(); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, f := range frames {
			la.Handle(f)
		}
	}()
	wg.Wait()
	wire.mu.Lock()
	defer wire.mu.Unlock()
	if wire.sent != committers*each {
		t.Errorf("%d messages sent, want each of the %d once", wire.sent, committers*each)
	}
}
