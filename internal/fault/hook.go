package fault

import (
	"sync"

	"asynctp/internal/simnet"
)

// Point names an injection point inside a site's piece pipeline. Points
// target the windows the paper's at-least-once argument cares about:
// the instants where durable state and queue acknowledgement have
// diverged, so recovery must rely on redelivery plus idempotence.
type Point int

// Injection points.
const (
	// PointPreAck fires after a piece (or compensation) has committed
	// locally and staged its successors/report, but before its queue
	// delivery is acknowledged. A crash here forces the activation to be
	// redelivered after recovery: the worker's apply log must absorb it.
	PointPreAck Point = iota + 1
	// PointPreReport fires after a piece has committed but before its
	// settlement report and successor activations are staged. A crash
	// here forces the redelivered activation to re-stage them.
	PointPreReport
	// PointPreBatchFlush fires inside the queue layer: the flushed
	// messages are already durable in the outbox, but the coalesced
	// batch frame has not reached the network. A crash here loses the
	// volatile coalescing buffer; recovery must replay the staged batch
	// from the durable outbox via retransmission. Consulted with
	// inst = 0 and piece = -1 (the queue layer is below piece identity).
	PointPreBatchFlush
)

// String renders the injection point.
func (p Point) String() string {
	switch p {
	case PointPreAck:
		return "pre-ack"
	case PointPreReport:
		return "pre-report"
	case PointPreBatchFlush:
		return "pre-batch-flush"
	default:
		return "point(?)"
	}
}

// Hook decides, at each injection point a site passes through, whether
// the site should crash right there. Implementations must be safe for
// concurrent use (worker goroutines consult the hook).
type Hook interface {
	// ShouldCrash reports whether the site should fail-stop at point p
	// while handling piece (inst, piece); compensate marks compensating
	// (inverse) pieces.
	ShouldCrash(p Point, site simnet.SiteID, inst uint64, piece int, compensate bool) bool
}

// CrashOnce is a Hook that requests exactly one crash: the first time
// the matching site reaches the matching point with the matching piece
// index (and compensation flag), it fires; every later call is false.
type CrashOnce struct {
	// Point is the injection point to match.
	Point Point
	// Site is the site to crash.
	Site simnet.SiteID
	// Piece is the piece index to match; -1 matches any piece.
	Piece int
	// Compensate must match the activation's compensation flag.
	Compensate bool

	mu    sync.Mutex
	hits  int
	fired bool
}

// ShouldCrash implements Hook.
func (c *CrashOnce) ShouldCrash(p Point, site simnet.SiteID, _ uint64, piece int, compensate bool) bool {
	if p != c.Point || site != c.Site || compensate != c.Compensate {
		return false
	}
	if c.Piece >= 0 && piece != c.Piece {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits++
	if c.fired {
		return false
	}
	c.fired = true
	return true
}

// Fired reports whether the crash has been requested.
func (c *CrashOnce) Fired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// Hits returns how many matching arrivals the hook has seen (including
// the one that fired): > 1 proves the activation was redelivered.
func (c *CrashOnce) Hits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}
