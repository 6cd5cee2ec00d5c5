// Package lock implements the lock manager shared by concurrency control
// and divergence control.
//
// It provides shared/exclusive locks over storage keys with strict
// two-phase semantics (a transaction releases everything at end), a
// waits-for-graph deadlock detector that aborts the requester closing a
// cycle, and — the hook divergence control plugs into — a conflict
// Arbiter: before a conflicting request blocks, the arbiter may "absorb"
// the conflict, granting incompatible locks simultaneously. Two-phase
// locking divergence control (Wu-Yu-Pu) is exactly ordinary 2PL with an
// arbiter that admits query/update read-write conflicts while the
// import/export fuzziness accounts stay within their ε-specs.
//
// # Rows, Lockers and striping
//
// The lock table is sharded by key hash into N stripes, each with its
// own mutex, its share of the counters and its rows, on a cache line of
// its own. A Row is one key's holders (in grant order) and wait queue.
// Manager.Row resolves a key to its row once, and every row stays in its
// stripe's table for the manager's life, so an attempt that acquires it
// takes the stripe mutex and nothing else (no hash, no map), and a
// request for the same key by key finds the same row.
//
// A Locker is one attempt's side of the table: the rows it holds, kept
// in key order, and the arbiter's account for the attempt. ReleaseAll
// walks the Locker's own rows in that order, so the wake/absorb sequence
// a release triggers is a deterministic function of the held set (the
// schedule explorer's fingerprints depend on it). Holders, waiters and
// ConflictInfo name the Locker, so an arbiter reaches its accounts by
// pointer. Lockers are recycled through the manager's pool: a Locker is
// freed only after ReleaseAll, when no row and no waiter names it and
// no arbitration can reach its account.
//
// The waits-for deadlock detector is a dedicated component (see
// detector.go) that stripes push edges into synchronously; its mutex is
// taken only while some owner waits. An uncontended acquire/release
// cycle allocates nothing. The grant/block/absorb decisions, the
// deadlock victim policy and the WaitObserver event order under a
// serial scheduler do not depend on the stripe count.
package lock

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"asynctp/internal/storage"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	// Shared is the read lock.
	Shared Mode = iota + 1
	// Exclusive is the write lock.
	Exclusive
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Compatible reports classic S/X compatibility.
func Compatible(a, b Mode) bool { return a == Shared && b == Shared }

// Owner identifies a lock owner (a transaction or piece execution).
type Owner int64

// ErrDeadlock is returned to the requester chosen as deadlock victim.
var ErrDeadlock = errors.New("lock: deadlock victim")

// HolderInfo describes one conflicting holder passed to the Arbiter.
type HolderInfo struct {
	Owner Owner
	Mode  Mode
	// Locker is the holder's attempt (nil in a conflict built by hand).
	Locker *Locker
}

// ConflictInfo describes a request that conflicts with current holders.
type ConflictInfo struct {
	Key       storage.Key
	Requester Owner
	Mode      Mode
	// Holders lists only the holders the request is incompatible with,
	// in grant order, in the requester's scratch space: it is valid only
	// for the duration of the Absorb call.
	Holders []HolderInfo
	Locker  *Locker // the requester's attempt (nil as in HolderInfo)
}

// WaitObserver is notified of every wait-state transition a request goes
// through, so that a deterministic scheduler can account for lock-blocked
// transactions exactly.
//
// Blocked and Woken are called with the key's stripe mutex held and
// must not call back into the manager; they should only update scheduler
// state. Woken runs on the *releasing* goroutine, synchronously with the
// release, so a scheduler learns about the wakeup before the releaser's
// turn ends. Resumed runs on the waiter's own goroutine, with no stripe
// mutex held, immediately after it receives its grant and before it
// executes anything else — it MAY block, which is exactly how a schedule
// explorer turns lock wakeups into scheduling points.
type WaitObserver interface {
	// Blocked fires when owner enqueues to wait for key.
	Blocked(owner Owner, key storage.Key)
	// Woken fires when a blocked owner is resolved (granted or chosen as
	// deadlock victim) by another transaction's release.
	Woken(owner Owner)
	// Resumed fires on owner's goroutine right after its wait ends.
	Resumed(owner Owner)
}

// Arbiter decides whether a conflicting request may be granted anyway.
//
// Absorb must atomically account for the conflict (e.g. charge fuzziness
// to both sides) and return true, or leave all state unchanged and return
// false. It is called with the key's stripe mutex held and must not call
// back into the manager.
type Arbiter interface {
	Absorb(ConflictInfo) bool
}

// Stats are cumulative lock-manager counters.
type Stats struct {
	Grants      uint64 // requests granted without conflict
	FuzzyGrants uint64 // conflicting requests absorbed by the arbiter
	Blocks      uint64 // requests that had to wait at least once
	Deadlocks   uint64 // requests aborted as deadlock victims
}

// waiter is a blocked request. Each Locker embeds one: an attempt waits
// for at most one request at a time, and a resolved waiter has already
// left its row's queue.
type waiter struct {
	l    *Locker
	mode Mode
	// grant receives the outcome once per wait (buffered, reused).
	grant chan error
	// done marks the waiter resolved so late wakeups skip it.
	done bool
}

// Row is the lock-table row of one key. Holders are kept in grant order
// (an upgrade keeps its place), so the arbiter sees conflicting holders
// in the same order in every run. Every field but s and key is guarded
// by s.mu.
type Row struct {
	s       *stripe
	key     storage.Key
	holders []HolderInfo
	queue   []*waiter
}

// holder returns l's index in r.holders, or -1.
func (r *Row) holder(l *Locker) int {
	for i, h := range r.holders {
		if h.Locker == l {
			return i
		}
	}
	return -1
}

// conflicts returns the holders incompatible with l requesting mode, in
// grant order, in l's scratch slice.
func (r *Row) conflicts(l *Locker, mode Mode) []HolderInfo {
	l.conf = l.conf[:0]
	for _, h := range r.holders {
		if h.Locker != l && !Compatible(mode, h.Mode) {
			l.conf = append(l.conf, h)
		}
	}
	return l.conf
}

// cacheLine is the cache line size the stripe layout assumes.
const cacheLine = 64

// stripe is one shard of the lock table: the rows of the keys hashing
// to it and its share of the counters, under one mutex, on a cache line
// of its own.
type stripe struct {
	mu    sync.Mutex
	table map[storage.Key]*Row
	stats Stats
	_     [cacheLine - 48]byte
}

// row returns key's row, adding it if absent. s.mu is held.
func (s *stripe) row(key storage.Key) *Row {
	r := s.table[key]
	if r == nil {
		r = &Row{s: s, key: key}
		s.table[key] = r
	}
	return r
}

// DefaultStripes is the default lock-table stripe count.
const DefaultStripes = 16

// Manager is the lock manager.
type Manager struct {
	stripes []*stripe
	det     *detector
	arbiter Arbiter
	waitObs WaitObserver
	pool    sync.Pool // of *Locker

	// byOwner holds the Lockers of the owner-keyed Acquire/ReleaseAll.
	ownMu   sync.Mutex
	byOwner map[Owner]*Locker
}

// Option configures a Manager.
type Option func(*Manager)

// WithArbiter installs a conflict arbiter (divergence control).
func WithArbiter(a Arbiter) Option {
	return func(m *Manager) { m.arbiter = a }
}

// WithWaitObserver installs a wait observer (schedule exploration).
func WithWaitObserver(o WaitObserver) Option {
	return func(m *Manager) { m.waitObs = o }
}

// WithStripes sets the lock-table stripe count (n < 1 selects
// DefaultStripes). The stripe count changes only the contention domain,
// never the grant/block/victim decisions: a serial test driven with 1
// stripe and with 64 stripes observes byte-identical histories.
func WithStripes(n int) Option {
	return func(m *Manager) {
		if n < 1 {
			n = DefaultStripes
		}
		m.stripes = make([]*stripe, n)
	}
}

// NewManager returns a lock manager. With no options it implements plain
// strict two-phase locking.
func NewManager(opts ...Option) *Manager {
	m := &Manager{det: newDetector(), byOwner: make(map[Owner]*Locker)}
	for _, opt := range opts {
		opt(m)
	}
	if m.stripes == nil {
		m.stripes = make([]*stripe, DefaultStripes)
	}
	for i := range m.stripes {
		m.stripes[i] = &stripe{table: make(map[storage.Key]*Row)}
	}
	return m
}

// stripeFor returns key's stripe (FNV-1a over the key bytes).
func (m *Manager) stripeFor(key storage.Key) *stripe {
	if len(m.stripes) == 1 {
		return m.stripes[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return m.stripes[h%uint64(len(m.stripes))]
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	var st Stats
	for _, s := range m.stripes {
		s.mu.Lock()
		st.Grants += s.stats.Grants
		st.FuzzyGrants += s.stats.FuzzyGrants
		st.Blocks += s.stats.Blocks
		st.Deadlocks += s.stats.Deadlocks
		s.mu.Unlock()
	}
	return st
}

// Row resolves key to its row. The row stays in the table for the
// manager's life, so Locker.Acquire can take it without a lookup, and a
// request for key by key (Acquire) meets the same row.
func (m *Manager) Row(key storage.Key) *Row {
	s := m.stripeFor(key)
	s.mu.Lock()
	r := s.row(key)
	s.mu.Unlock()
	return r
}

// Locker is one attempt's side of the lock table: the rows it holds, in
// key order, and the arbiter's account for the attempt. A Locker is
// used by one goroutine at a time; while it waits, the releasing
// goroutine that grants it updates its rows under the row's stripe
// mutex.
type Locker struct {
	m     *Manager
	owner Owner
	held  []*Row       // in key order
	conf  []HolderInfo // scratch for the holders a request conflicts with
	w     waiter
	// The slices' first backing arrays: a new Locker is one allocation.
	heldBuf [4]*Row
	confBuf [4]HolderInfo
	// Account is the arbiter's ledger for the attempt (divergence
	// control keeps its fuzziness account here). It stays with the
	// Locker across Free, for the next attempt's arbiter to reuse.
	Account any
}

// Locker returns a Locker for owner, recycled from the manager's pool.
// Hand it back with Free once it has released its locks.
func (m *Manager) Locker(owner Owner) *Locker {
	l, _ := m.pool.Get().(*Locker)
	if l == nil {
		l = &Locker{m: m}
		l.held, l.conf, l.w.l = l.heldBuf[:0], l.confBuf[:0], l
	}
	l.owner = owner
	return l
}

// Reset makes l acquire for owner from now on, for a caller that runs
// attempts one after another through one Locker. l must hold nothing.
func (l *Locker) Reset(owner Owner) { l.owner = owner }

// Owner returns the owner l acquires for.
func (l *Locker) Owner() Owner { return l.owner }

// Free hands l back to its manager's pool. l must hold nothing
// (ReleaseAll has run) and must not be used again.
func (l *Locker) Free() {
	if len(l.held) != 0 {
		panic("lock: Free of a Locker that holds locks")
	}
	l.m.pool.Put(l)
}

// Acquire obtains r in mode for l, blocking while conflicting locks
// are held. It returns ErrDeadlock if granting would require waiting in
// a waits-for cycle, or ctx.Err() if the context ends first.
// Re-acquiring a held lock (including S→X upgrade) is supported. r must
// come from l's manager.
func (l *Locker) Acquire(ctx context.Context, r *Row, mode Mode) error {
	r.s.mu.Lock()
	return l.acquireLocked(ctx, r, mode)
}

// acquireLocked is Acquire with r's stripe mutex held; it unlocks it.
func (l *Locker) acquireLocked(ctx context.Context, r *Row, mode Mode) error {
	m, s := l.m, r.s
	if i := r.holder(l); i >= 0 && r.holders[i].Mode >= mode {
		s.mu.Unlock()
		return nil // already held in a sufficient mode
	}
	conf := r.conflicts(l, mode)
	if len(conf) == 0 {
		l.grantLocked(r, mode)
		s.stats.Grants++
		s.mu.Unlock()
		return nil
	}
	if m.arbiter != nil && m.arbiter.Absorb(ConflictInfo{
		Key: r.key, Requester: l.owner, Mode: mode, Holders: conf, Locker: l,
	}) {
		l.grantLocked(r, mode)
		s.stats.FuzzyGrants++
		s.mu.Unlock()
		return nil
	}
	// Must wait. Push the new waits-for edges into the detector; if they
	// close a cycle the requester is the victim. The holders cannot
	// release r concurrently (that needs this stripe's mutex), so the
	// edges are live when set.
	if m.det.setEdges(l.owner, conf) {
		s.stats.Deadlocks++
		s.mu.Unlock()
		return ErrDeadlock
	}
	w := &l.w
	if w.grant == nil {
		w.grant = make(chan error, 1)
	}
	w.mode, w.done = mode, false
	r.queue = append(r.queue, w)
	s.stats.Blocks++
	if m.waitObs != nil {
		m.waitObs.Blocked(l.owner, r.key)
	}
	s.mu.Unlock()

	select {
	case err := <-w.grant:
		if m.waitObs != nil {
			m.waitObs.Resumed(l.owner)
		}
		return err
	case <-ctx.Done():
		s.mu.Lock()
		if !w.done {
			w.done = true
			removeWaiter(r, w)
			m.det.clear(l.owner)
			if m.waitObs != nil {
				m.waitObs.Woken(l.owner)
			}
			s.mu.Unlock()
			if m.waitObs != nil {
				m.waitObs.Resumed(l.owner)
			}
			return ctx.Err()
		}
		s.mu.Unlock()
		// Resolved concurrently with cancellation: honor the resolution.
		err := <-w.grant
		if m.waitObs != nil {
			m.waitObs.Resumed(l.owner)
		}
		return err
	}
}

// grantLocked records l holding r in at least mode, and r among l's
// rows in key order. r's stripe mutex is held.
func (l *Locker) grantLocked(r *Row, mode Mode) {
	if i := r.holder(l); i >= 0 {
		if mode > r.holders[i].Mode {
			r.holders[i].Mode = mode // an upgrade keeps its grant position
		}
		return // r is already among l's rows
	}
	r.holders = append(r.holders, HolderInfo{Owner: l.owner, Mode: mode, Locker: l})
	i := len(l.held)
	for i > 0 && l.held[i-1].key > r.key {
		i--
	}
	l.held = append(l.held, r)
	if i < len(l.held)-1 {
		copy(l.held[i+1:], l.held[i:])
		l.held[i] = r
	}
}

// removeWaiter drops w from r's queue (the stripe mutex is held).
func removeWaiter(r *Row, w *waiter) {
	if i := slices.Index(r.queue, w); i >= 0 {
		r.queue = slices.Delete(r.queue, i, i+1)
	}
}

// ReleaseAll releases every lock l holds and wakes whatever can now
// run. It is the "end of transaction" of strict two-phase locking.
//
// Rows are released in key order (the held slice's invariant), one
// stripe lock at a time, so the wake/absorb sequence a release triggers
// is a deterministic function of the held set. Afterwards no row and no
// waiter names l.
func (l *Locker) ReleaseAll() {
	m := l.m
	m.det.clear(l.owner)
	for _, r := range l.held {
		s := r.s
		s.mu.Lock()
		i, n := r.holder(l), len(r.holders)-1
		copy(r.holders[i:], r.holders[i+1:])
		r.holders[n] = HolderInfo{} // the slot may outlive l's next attempt
		r.holders = r.holders[:n]
		m.wakeLocked(r)
		s.mu.Unlock()
	}
	clear(l.held) // drop the rows before the slice is reused
	l.held = l.held[:0]
}

// wakeLocked re-evaluates r's wait queue in order, granting every waiter
// that is now compatible (or absorbed), and refreshing waits-for edges for
// those that remain blocked. A waiter whose refreshed edges close a cycle
// is aborted as a deadlock victim. The stripe mutex is held.
func (m *Manager) wakeLocked(r *Row) {
	if len(r.queue) == 0 {
		return
	}
	remaining := r.queue[:0] // filtered in place
	for _, w := range r.queue {
		if w.done {
			continue
		}
		l := w.l
		conf := r.conflicts(l, w.mode)
		switch {
		case len(conf) == 0:
			l.grantLocked(r, w.mode)
			m.det.clear(l.owner)
			w.done = true
			if m.waitObs != nil {
				m.waitObs.Woken(l.owner)
			}
			w.grant <- nil
		case m.arbiter != nil && m.arbiter.Absorb(ConflictInfo{
			Key: r.key, Requester: l.owner, Mode: w.mode, Holders: conf, Locker: l,
		}):
			l.grantLocked(r, w.mode)
			r.s.stats.FuzzyGrants++
			m.det.clear(l.owner)
			w.done = true
			if m.waitObs != nil {
				m.waitObs.Woken(l.owner)
			}
			w.grant <- nil
		default:
			if m.det.setEdges(l.owner, conf) {
				r.s.stats.Deadlocks++
				w.done = true
				if m.waitObs != nil {
					m.waitObs.Woken(l.owner)
				}
				w.grant <- ErrDeadlock
				continue
			}
			remaining = append(remaining, w)
		}
	}
	clear(r.queue[len(remaining):])
	r.queue = remaining
}

// Acquire is Locker.Acquire by key, for callers that mint no Locker:
// owner's Locker lives in the manager from its first Acquire to its
// ReleaseAll, and key's row is found or added under its stripe mutex.
func (m *Manager) Acquire(ctx context.Context, owner Owner, key storage.Key, mode Mode) error {
	m.ownMu.Lock()
	l := m.byOwner[owner]
	if l == nil {
		l = m.Locker(owner)
		m.byOwner[owner] = l
	}
	m.ownMu.Unlock()
	s := m.stripeFor(key)
	s.mu.Lock()
	return l.acquireLocked(ctx, s.row(key), mode)
}

// ReleaseAll releases every lock owner took through Acquire.
func (m *Manager) ReleaseAll(owner Owner) {
	m.ownMu.Lock()
	l := m.byOwner[owner]
	delete(m.byOwner, owner)
	m.ownMu.Unlock()
	if l != nil {
		l.ReleaseAll()
		l.Free()
	}
}
