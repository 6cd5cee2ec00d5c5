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
// # Striping
//
// The lock table is sharded by key hash into N stripes, each with its
// own mutex and wait queues, so requests on unrelated keys never touch
// the same mutex. Per-owner held-key sets live in a separate shard
// layer keyed by owner, and the waits-for deadlock detector is a
// dedicated component (see detector.go) that stripes push edges into
// synchronously; its mutex is taken only while some owner waits.
// Counters live in the stripes, under their mutexes. An uncontended
// acquire/release cycle allocates nothing: holder slices, held-key
// slices and table rows are reused.
// The observable semantics —
// grant/block/absorb decisions, the deadlock victim policy, and the
// WaitObserver event order under a serial scheduler — are identical to
// the previous process-global implementation; only the contention
// domain shrinks from "the whole manager" to "one key's stripe".
package lock

import (
	"context"
	"errors"
	"fmt"
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
}

// ConflictInfo describes a request that conflicts with current holders.
type ConflictInfo struct {
	Key       storage.Key
	Requester Owner
	Mode      Mode
	// Holders lists only the holders the request is incompatible with.
	Holders []HolderInfo
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

// waiter is a blocked request.
type waiter struct {
	owner Owner
	mode  Mode
	// grant is closed exactly once with the outcome.
	grant chan error
	// granted/cancelled mark the waiter resolved so late wakeups skip it.
	done bool
}

// entry is the lock table row for one key. Holders are kept in grant
// order (an upgrade keeps its place), so the arbiter sees conflicting
// holders in the same order in every run.
type entry struct {
	holders []HolderInfo
	queue   []*waiter
}

// holder returns owner's index in e.holders, or -1.
func (e *entry) holder(owner Owner) int {
	for i, h := range e.holders {
		if h.Owner == owner {
			return i
		}
	}
	return -1
}

// stripe is one shard of the lock table: the keys hashing to it, their
// holders, their wait queues and its share of the counters, under one
// mutex.
type stripe struct {
	mu    sync.Mutex
	table map[storage.Key]*entry
	stats Stats
}

// ownerShard is one shard of the per-owner held-key index. Held keys
// are kept as a sorted slice: transactions hold few keys, membership is
// a binary search, and ReleaseAll walks the slice directly — no sort at
// release time. ReleaseAll hands its emptied slice to free, and the
// shard's next new owner takes it from there, so the index allocates
// only while the number of concurrent owners grows.
type ownerShard struct {
	mu   sync.Mutex
	held map[Owner][]storage.Key
	free [][]storage.Key
}

// DefaultStripes is the default lock-table stripe count.
const DefaultStripes = 16

// entryCacheCap bounds how many empty entries a stripe keeps cached to
// avoid re-allocating the table row (and its holder slice) for hot keys.
// Beyond the cap, entries with no holders and no waiters are deleted,
// so key-churn workloads do not grow the table without bound.
const entryCacheCap = 1024

// Manager is the lock manager.
type Manager struct {
	stripes []*stripe
	owners  []*ownerShard
	det     *detector
	arbiter Arbiter
	waitObs WaitObserver
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
	m := &Manager{det: newDetector()}
	for _, opt := range opts {
		opt(m)
	}
	if m.stripes == nil {
		m.stripes = make([]*stripe, DefaultStripes)
	}
	for i := range m.stripes {
		m.stripes[i] = &stripe{table: make(map[storage.Key]*entry)}
	}
	// Owner shards track per-transaction held sets; size them with the
	// stripe count (the two layers scale together).
	m.owners = make([]*ownerShard, len(m.stripes))
	for i := range m.owners {
		m.owners[i] = &ownerShard{held: make(map[Owner][]storage.Key)}
	}
	return m
}

// Stripes returns the configured stripe count.
func (m *Manager) Stripes() int { return len(m.stripes) }

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

// ownerShardFor returns owner's shard in the held-key index.
func (m *Manager) ownerShardFor(owner Owner) *ownerShard {
	return m.owners[uint64(owner)%uint64(len(m.owners))]
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

// WaitGraph returns a copy of the current waits-for edges (tests and
// debugging).
func (m *Manager) WaitGraph() map[Owner][]Owner { return m.det.WaitGraph() }

// conflicts returns the holders incompatible with owner requesting
// mode, in grant order. It allocates only when there is a conflict.
func (e *entry) conflicts(owner Owner, mode Mode) []HolderInfo {
	var out []HolderInfo
	for _, h := range e.holders {
		if h.Owner != owner && !Compatible(mode, h.Mode) {
			out = append(out, h)
		}
	}
	return out
}

// grantLocked records owner holding key in at least mode. The key's
// stripe mutex is held; the owner shard mutex nests inside it.
func (m *Manager) grantLocked(e *entry, key storage.Key, owner Owner, mode Mode) {
	if i := e.holder(owner); i >= 0 {
		if mode > e.holders[i].Mode {
			e.holders[i].Mode = mode // an upgrade keeps its grant position
		}
		return // key is already in owner's held slice
	}
	e.holders = append(e.holders, HolderInfo{Owner: owner, Mode: mode})
	os := m.ownerShardFor(owner)
	os.mu.Lock()
	keys, ok := os.held[owner]
	if n := len(os.free); !ok && n > 0 {
		keys, os.free = os.free[n-1], os.free[:n-1]
	}
	os.held[owner] = insertKey(keys, key)
	os.mu.Unlock()
}

// insertKey inserts key into the sorted slice if absent.
func insertKey(keys []storage.Key, key storage.Key) []storage.Key {
	// Binary search for the insertion point (manual loop: no closure).
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(keys) && keys[lo] == key {
		return keys // already held
	}
	keys = append(keys, "")
	copy(keys[lo+1:], keys[lo:])
	keys[lo] = key
	return keys
}

// Acquire obtains key in mode for owner, blocking while conflicting locks
// are held. It returns ErrDeadlock if granting would require waiting in a
// waits-for cycle, or ctx.Err() if the context ends first. Re-acquiring a
// held lock (including S→X upgrade) is supported.
func (m *Manager) Acquire(ctx context.Context, owner Owner, key storage.Key, mode Mode) error {
	s := m.stripeFor(key)
	s.mu.Lock()
	e := s.table[key]
	if e == nil {
		e = &entry{}
		s.table[key] = e
	}
	if i := e.holder(owner); i >= 0 && e.holders[i].Mode >= mode {
		s.mu.Unlock()
		return nil // already held in a sufficient mode
	}
	conf := e.conflicts(owner, mode)
	if len(conf) == 0 {
		m.grantLocked(e, key, owner, mode)
		s.stats.Grants++
		s.mu.Unlock()
		return nil
	}
	if m.arbiter != nil && m.arbiter.Absorb(ConflictInfo{
		Key: key, Requester: owner, Mode: mode, Holders: conf,
	}) {
		m.grantLocked(e, key, owner, mode)
		s.stats.FuzzyGrants++
		s.mu.Unlock()
		return nil
	}
	// Must wait. Push the new waits-for edges into the detector; if they
	// close a cycle the requester is the victim. The holders cannot
	// release key concurrently (that needs this stripe's mutex), so the
	// edges are live when set.
	if m.det.setEdges(owner, conf) {
		s.stats.Deadlocks++
		s.mu.Unlock()
		return ErrDeadlock
	}
	w := &waiter{owner: owner, mode: mode, grant: make(chan error, 1)}
	e.queue = append(e.queue, w)
	s.stats.Blocks++
	if m.waitObs != nil {
		m.waitObs.Blocked(owner, key)
	}
	s.mu.Unlock()

	select {
	case err := <-w.grant:
		if m.waitObs != nil {
			m.waitObs.Resumed(owner)
		}
		return err
	case <-ctx.Done():
		s.mu.Lock()
		if !w.done {
			w.done = true
			removeWaiter(e, w)
			m.det.clear(owner)
			if m.waitObs != nil {
				m.waitObs.Woken(owner)
			}
			s.mu.Unlock()
			if m.waitObs != nil {
				m.waitObs.Resumed(owner)
			}
			return ctx.Err()
		}
		s.mu.Unlock()
		// Resolved concurrently with cancellation: honor the resolution.
		err := <-w.grant
		if m.waitObs != nil {
			m.waitObs.Resumed(owner)
		}
		return err
	}
}

// removeWaiter drops w from e's queue (the stripe mutex is held).
func removeWaiter(e *entry, w *waiter) {
	for i, q := range e.queue {
		if q == w {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return
		}
	}
}

// ReleaseAll releases every lock owner holds and wakes whatever can now
// run. It is the "end of transaction" of strict two-phase locking.
//
// Keys are processed in sorted order (the held slice's invariant), one
// stripe lock at a time, so the wake/absorb sequence a release triggers
// is a deterministic function of the held set (the process-global
// implementation iterated a map). The emptied held slice goes back to
// the owner shard's free list for the next owner.
func (m *Manager) ReleaseAll(owner Owner) {
	os := m.ownerShardFor(owner)
	os.mu.Lock()
	keys, ok := os.held[owner]
	delete(os.held, owner)
	os.mu.Unlock()
	m.det.clear(owner)
	if !ok {
		return
	}
	for _, key := range keys {
		s := m.stripeFor(key)
		s.mu.Lock()
		e := s.table[key] // owner holds key, so its entry is there
		i := e.holder(owner)
		e.holders = append(e.holders[:i], e.holders[i+1:]...)
		m.wakeLocked(s, e, key)
		if len(e.holders) == 0 && len(e.queue) == 0 && len(s.table) > entryCacheCap {
			delete(s.table, key)
		}
		s.mu.Unlock()
	}
	clear(keys) // drop the key strings before the slice is reused
	os.mu.Lock()
	os.free = append(os.free, keys[:0])
	os.mu.Unlock()
}

// wakeLocked re-evaluates e's wait queue in order, granting every waiter
// that is now compatible (or absorbed), and refreshing waits-for edges for
// those that remain blocked. A waiter whose refreshed edges close a cycle
// is aborted as a deadlock victim. The stripe mutex is held.
func (m *Manager) wakeLocked(s *stripe, e *entry, key storage.Key) {
	if len(e.queue) == 0 {
		return
	}
	remaining := e.queue[:0] // filtered in place
	for _, w := range e.queue {
		if w.done {
			continue
		}
		conf := e.conflicts(w.owner, w.mode)
		switch {
		case len(conf) == 0:
			m.grantLocked(e, key, w.owner, w.mode)
			m.det.clear(w.owner)
			w.done = true
			if m.waitObs != nil {
				m.waitObs.Woken(w.owner)
			}
			w.grant <- nil
		case m.arbiter != nil && m.arbiter.Absorb(ConflictInfo{
			Key: key, Requester: w.owner, Mode: w.mode, Holders: conf,
		}):
			m.grantLocked(e, key, w.owner, w.mode)
			s.stats.FuzzyGrants++
			m.det.clear(w.owner)
			w.done = true
			if m.waitObs != nil {
				m.waitObs.Woken(w.owner)
			}
			w.grant <- nil
		default:
			if m.det.setEdges(w.owner, conf) {
				s.stats.Deadlocks++
				w.done = true
				if m.waitObs != nil {
					m.waitObs.Woken(w.owner)
				}
				w.grant <- ErrDeadlock
				continue
			}
			remaining = append(remaining, w)
		}
	}
	clear(e.queue[len(remaining):])
	e.queue = remaining
}

// HoldsLock reports whether owner currently holds key in at least mode.
func (m *Manager) HoldsLock(owner Owner, key storage.Key, mode Mode) bool {
	s := m.stripeFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.table[key]
	if e == nil {
		return false
	}
	i := e.holder(owner)
	return i >= 0 && e.holders[i].Mode >= mode
}

// HeldKeys returns the keys owner currently holds (any mode).
func (m *Manager) HeldKeys(owner Owner) []storage.Key {
	os := m.ownerShardFor(owner)
	os.mu.Lock()
	defer os.mu.Unlock()
	held := os.held[owner]
	out := make([]storage.Key, len(held))
	copy(out, held)
	return out
}
