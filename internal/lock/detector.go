package lock

import (
	"sync"
	"sync/atomic"
)

// detector is the dedicated waits-for deadlock detector shared by every
// stripe of the lock table.
//
// Each stripe pushes an owner's outgoing waits-for edges into the
// detector synchronously, while holding that stripe's mutex, at the
// moment the owner is about to wait (Acquire) or stays waiting after a
// re-evaluation (wake). The detector therefore always holds the union
// of the per-stripe ground truth: an edge o→h exists iff o is enqueued
// behind holder h on some key right now.
//
// Correctness of cycle detection over this snapshot-by-construction
// graph: a real deadlock is a cycle o1→o2→…→o1 in the waits-for
// relation. Edges are only added by setEdges, which runs under the
// detector mutex and checks reachability immediately. Consider the last
// edge set that completes the cycle: at that moment every other edge of
// the cycle is already present (their owners are still blocked — a
// blocked owner's edges are only removed by the stripe that wakes or
// cancels it, and waking requires the holder to release, which a
// deadlocked holder never does). The completing setEdges call therefore
// observes the full cycle and reports it, and its caller aborts the
// requester — the same "victim is the requester closing the cycle"
// policy the process-global manager had. Conversely, a reported cycle
// consists only of currently-live edges, so there are no false victims
// from stale edges: edges are replaced atomically per owner and removed
// before the owner's wait ends.
//
// Lock ordering: stripe.mu → detector.mu. The detector never calls back
// into any stripe.
//
// The mutex is shared by every stripe, so clear skips it while no owner
// has edges: an uncontended transaction never touches it. The skip is
// safe because an owner's edges are set, and its edged increment made,
// under the stripe mutex of the key it waits on, and every clear that
// can find them (grant, absorb or cancellation of that wait) runs under
// the same stripe mutex, so it reads a count of at least one. A victim's
// edges are dropped inside setEdges itself; ReleaseAll's clear finds
// edges only if the owner's wait ended some other way, which none does.
type detector struct {
	mu    sync.Mutex
	waits map[Owner][]Owner
	// edged counts the owners in waits; it changes only under mu.
	edged atomic.Int64
	// Scratch reused under mu: dropped edge slices, and the cycle
	// search's visited set and stack.
	free  [][]Owner
	seen  map[Owner]struct{}
	stack []Owner
}

func newDetector() *detector {
	return &detector{waits: make(map[Owner][]Owner), seen: make(map[Owner]struct{})}
}

// setEdges replaces owner's outgoing waits-for edges and reports whether
// the new edges close a cycle back to owner. On a cycle all of owner's
// edges are dropped: the caller aborts the requester as the deadlock
// victim, so it stops waiting entirely.
func (d *detector) setEdges(owner Owner, targets []HolderInfo) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	edges, ok := d.waits[owner]
	if !ok {
		d.edged.Add(1)
		if n := len(d.free); n > 0 {
			edges, d.free = d.free[n-1], d.free[:n-1]
		}
	}
	edges = edges[:0]
	for _, h := range targets {
		edges = append(edges, h.Owner) // a row's holders are distinct
	}
	d.waits[owner] = edges
	if d.cycleFromLocked(owner) {
		d.clearLocked(owner)
		return true
	}
	return false
}

// clear removes owner's outgoing edges (its wait ended or it released).
// It takes the mutex only while some owner has edges.
func (d *detector) clear(owner Owner) {
	if d.edged.Load() == 0 {
		return
	}
	d.mu.Lock()
	d.clearLocked(owner)
	d.mu.Unlock()
}

// clearLocked removes owner's edges under d.mu.
func (d *detector) clearLocked(owner Owner) {
	if edges, ok := d.waits[owner]; ok {
		delete(d.waits, owner)
		d.free = append(d.free, edges[:0])
		d.edged.Add(-1)
	}
}

// cycleFromLocked reports whether owner can reach itself.
func (d *detector) cycleFromLocked(owner Owner) bool {
	clear(d.seen)
	d.stack = append(d.stack[:0], d.waits[owner]...)
	for n := len(d.stack); n > 0; n = len(d.stack) {
		v := d.stack[n-1]
		d.stack = d.stack[:n-1]
		if v == owner {
			return true
		}
		if _, ok := d.seen[v]; ok {
			continue
		}
		d.seen[v] = struct{}{}
		d.stack = append(d.stack, d.waits[v]...)
	}
	return false
}
