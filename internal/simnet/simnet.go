// Package simnet simulates the wide-area message network between sites.
//
// Section 4's performance argument is about message rounds: a two-phase
// commit costs at least two rounds of cross-site messages ("a round trip
// of message passing can take from a few hundred milliseconds to a few
// seconds"), while chopped pieces communicating through recoverable
// queues pay a single one-way transfer. The network therefore meters
// every message per link and applies a configurable one-way latency, so
// the harness can report both message counts and wall-clock effects. It
// also simulates the failures the paper worries about: site crashes and
// link partitions, under which 2PC blocks but asynchronous pieces keep
// committing.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// SiteID names a site.
type SiteID string

// Message is one network message. Payload types are application-defined;
// Kind routes them on the receiving site.
type Message struct {
	From, To SiteID
	Kind     string
	Payload  any
}

// Frame is implemented by payloads that carry several application
// messages coalesced into a single network frame (e.g. a batched
// recoverable-queue transfer). The network treats a frame exactly like
// any other message — one loss draw, one jitter draw, one delivery —
// so batching N messages into a frame costs a single RNG draw instead
// of N. That is what keeps seeded runs deterministic as the batching
// layer regroups traffic: the draw sequence is a function of the frame
// sequence, and a frame is lost or delayed as a unit, never partially.
// FrameLen only feeds the Stats.Payloads counter.
type Frame interface {
	// FrameLen reports how many application messages the frame carries.
	FrameLen() int
}

// payloadCount returns the number of application messages msg carries:
// FrameLen for batch frames, 1 for everything else.
func payloadCount(msg Message) uint64 {
	if f, ok := msg.Payload.(Frame); ok {
		if n := f.FrameLen(); n > 0 {
			return uint64(n)
		}
	}
	return 1
}

// Errors returned by Send.
var (
	// ErrUnknownSite is returned for a destination never added.
	ErrUnknownSite = errors.New("simnet: unknown site")
	// ErrUnreachable is returned when the destination is down or the
	// link is partitioned; the message is counted as dropped.
	ErrUnreachable = errors.New("simnet: unreachable")
)

// Stats are cumulative network counters. Sent/Delivered/Dropped count
// frames (one Send call each); Payloads counts the application messages
// those delivered frames carried, so Payloads/Delivered is the mean
// coalescing factor of the batching layer above.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	// Payloads counts delivered application messages: batch frames
	// contribute their FrameLen, plain messages contribute 1.
	Payloads uint64
	// PerLink counts delivered messages per (from, to) link.
	PerLink map[string]uint64
}

// Option configures a Network.
type Option func(*Network)

// WithLatency sets the base one-way latency (default 0).
func WithLatency(d time.Duration) Option {
	return func(n *Network) { n.baseLatency = d }
}

// WithJitter sets latency jitter as a fraction of the base (0..1).
func WithJitter(frac float64) Option {
	return func(n *Network) { n.jitter = frac }
}

// WithSeed seeds the jitter/loss RNG for reproducible runs.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// WithLossRate makes the network silently drop the given fraction of
// messages in flight (0..1). Reliable layers above (recoverable queues,
// 2PC retries) must survive this.
func WithLossRate(rate float64) Option {
	return func(n *Network) { n.lossRate = rate }
}

// Network is a simulated message network. Delivery is asynchronous: Send
// returns immediately and the message lands in the destination inbox
// after the simulated latency. Messages between the same pair of sites
// may reorder when jitter is nonzero, as on a real WAN.
//
// Concurrency and determinism: every use of the shared rng and every
// read of the latency/loss knobs happens under mu, inside Send. Given a
// fixed seed (WithSeed) and a fixed sequence of Send calls, the drop
// and jitter decisions are therefore a pure function of that sequence —
// concurrent senders serialize on mu, so the network itself introduces
// no data races (only the caller-side ordering nondeterminism a real
// network has).
type Network struct {
	mu          sync.Mutex
	rng         *rand.Rand
	baseLatency time.Duration
	jitter      float64
	lossRate    float64
	inboxes     map[SiteID]chan Message
	down        map[SiteID]bool
	partitioned map[[2]SiteID]bool
	stats       Stats
	wg          sync.WaitGroup
	closed      bool
}

// New builds a network.
func New(opts ...Option) *Network {
	n := &Network{
		rng:         rand.New(rand.NewSource(1)),
		inboxes:     make(map[SiteID]chan Message),
		down:        make(map[SiteID]bool),
		partitioned: make(map[[2]SiteID]bool),
	}
	n.stats.PerLink = make(map[string]uint64)
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// AddSite registers a site and returns its inbox.
func (n *Network) AddSite(id SiteID) (<-chan Message, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.inboxes[id]; dup {
		return nil, fmt.Errorf("simnet: site %q already exists", id)
	}
	ch := make(chan Message, 256)
	n.inboxes[id] = ch
	return ch, nil
}

// linkKey normalizes a partition key (undirected).
func linkKey(a, b SiteID) [2]SiteID {
	if a > b {
		a, b = b, a
	}
	return [2]SiteID{a, b}
}

// SetDown marks a site crashed (true) or recovered (false). Messages to
// a crashed site are dropped — the site's durable state is its storage
// driver's committed image and queue image, not the inbox.
func (n *Network) SetDown(id SiteID, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[id] = down
}

// SetPartitioned cuts (true) or heals (false) the link between two sites.
func (n *Network) SetPartitioned(a, b SiteID, cut bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[linkKey(a, b)] = cut
}

// SetLossRate changes the silent in-flight loss fraction at runtime
// (fault schedules use it for degraded-network phases). Values are
// clamped to [0, 1].
func (n *Network) SetLossRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lossRate = rate
}

// SetLatency changes the base one-way latency and jitter fraction at
// runtime (fault schedules use it for latency spikes). Messages already
// in flight keep their original delay.
func (n *Network) SetLatency(base time.Duration, jitter float64) {
	if base < 0 {
		base = 0
	}
	if jitter < 0 {
		jitter = 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.baseLatency = base
	n.jitter = jitter
}

// Send queues msg for delivery. It returns ErrUnreachable (counting the
// message as dropped) when the destination is down or partitioned at
// send time, and ErrUnknownSite for unregistered destinations.
func (n *Network) Send(msg Message) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("simnet: network closed")
	}
	inbox, ok := n.inboxes[msg.To]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownSite, msg.To)
	}
	n.stats.Sent++
	if n.down[msg.To] || n.down[msg.From] || n.partitioned[linkKey(msg.From, msg.To)] {
		n.stats.Dropped++
		n.mu.Unlock()
		return fmt.Errorf("%w: %s -> %s", ErrUnreachable, msg.From, msg.To)
	}
	if n.lossRate > 0 && n.rng.Float64() < n.lossRate {
		// Silent in-flight loss: the sender believes it sent.
		n.stats.Dropped++
		n.mu.Unlock()
		return nil
	}
	delay := n.baseLatency
	if n.jitter > 0 && delay > 0 {
		delay += time.Duration(n.rng.Float64() * n.jitter * float64(delay))
	}
	n.wg.Add(1)
	n.mu.Unlock()

	deliver := func() {
		defer n.wg.Done()
		// Re-check reachability at delivery time: a crash during flight
		// loses the message.
		n.mu.Lock()
		blocked := n.down[msg.To] || n.partitioned[linkKey(msg.From, msg.To)] || n.closed
		if blocked {
			n.stats.Dropped++
			n.mu.Unlock()
			return
		}
		n.stats.Delivered++
		n.stats.Payloads += payloadCount(msg)
		n.stats.PerLink[string(msg.From)+"->"+string(msg.To)]++
		n.mu.Unlock()
		inbox <- msg
	}
	if delay == 0 {
		go deliver()
	} else {
		time.AfterFunc(delay, deliver)
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.stats
	out.PerLink = make(map[string]uint64, len(n.stats.PerLink))
	for k, v := range n.stats.PerLink {
		out.PerLink[k] = v
	}
	return out
}

// Close stops accepting sends and waits for in-flight deliveries. Inbox
// channels stay open so receivers drain without panics.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.wg.Wait()
}

// Recv receives one message from inbox, honoring ctx.
func Recv(ctx context.Context, inbox <-chan Message) (Message, error) {
	select {
	case msg := <-inbox:
		return msg, nil
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}
