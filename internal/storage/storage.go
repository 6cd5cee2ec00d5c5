// Package storage implements the in-memory versioned key-value store that
// backs every simulated site.
//
// A store keeps three things: its cells, each a {value, version} pair;
// the LSN counter; and an optional commit sink. Transactions write
// through it immediately under two-phase locking and undo on abort using
// before-images kept by the transaction layer, so the live cells may
// hold values no transaction has committed yet. The store keeps no
// history. What a crash recovers to, the committed state, belongs to
// whoever holds the sink: Apply hands every committed batch to it, with
// the batch's LSN, and a storage driver folds those batches into the
// committed image (and, on disk, into a write-ahead log) that its
// recovery rebuilds the store from.
//
// # Versions
//
// Each key's cell holds its value and a version, read together by
// GetVersioned under one shard lock. The optimistic engine validates a
// read by comparing versions, so the rules are about one thing: a cell
// whose value may have changed since a reader saw it must not show the
// version that reader saw.
//
//   - ApplyStamped writes each key with the caller's positive version
//     (the optimistic engine's commit sequence).
//   - Set and Apply are unstamped: they write version 0 without reading
//     the cell. Two unstamped writes to a key are indistinguishable by
//     version, so a raw writer and a version-validating reader must not
//     share keys.
//   - Restore and NewRecovered stamp every cell with a fresh negative
//     restore epoch, which no earlier read of the store can hold.
//
// # Striping
//
// The cells are sharded by key hash, so unrelated keys never contend on
// a mutex. Whole-store reads (Snapshot, Sum, Keys …) take every shard's
// read lock in index order, which yields a consistent cut. Apply writes
// a batch's cells before it takes the batch's LSN from an atomic
// counter, so every batch at or below an LSN read from LastLSN is
// already in the cells. Conflicting batches are ordered by the lock
// manager (writers hold exclusive locks through Apply), so LSN order is
// a valid serialization for replay; batches on disjoint keys may reach
// the sink out of LSN order.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"asynctp/internal/metric"
)

// Key names a data item. The paper's examples use account names ("X",
// "Y", "checking:42").
type Key string

// Write is a single key/value assignment.
type Write struct {
	Key   Key
	Value metric.Value
}

// Batch is one committed atomic batch, as a commit sink receives it and
// a recovery replays it.
type Batch struct {
	// LSN is the log sequence number: dense and ascending from 1, one
	// per non-empty Apply.
	LSN uint64
	// Writes are the batch's assignments.
	Writes []Write
}

// cell is one key's live state: its value and its version (see
// Versions in the package doc).
type cell struct {
	v   metric.Value
	ver int64
}

// dataShard is one shard of the live map.
type dataShard struct {
	mu   sync.RWMutex
	data map[Key]cell
}

// DefaultShards is the default data shard count.
const DefaultShards = 16

// CommitSink receives every committed batch. A storage driver implements
// it to keep the committed image a crash recovers to and, on disk, to
// write the batch to a write-ahead log. Commit must not retain
// b.Writes: the slice belongs to Apply's caller. Commit need not wait
// for the write to be durable, and the disk driver does not: there
// "Apply returned" means the batch is in the log, ahead of every later
// record, and it becomes durable with the next fsync of that log — the
// site's next queue-image persist, or a Sync. Sync returns once every
// batch Commit has been handed is durable. A Commit error is fatal for
// the batch's transaction: Apply propagates it and the executor aborts,
// but the batch's cells and LSN are already taken, so a store whose
// sink failed must be treated as crashed.
type CommitSink interface {
	Commit(b Batch) error
	Sync() error
}

// Store is a concurrent key-value store over the metric value space.
type Store struct {
	shards  []*dataShard
	nextLSN atomic.Uint64
	sink    atomic.Value // CommitSink, set at most once before use
	epochs  atomic.Int64 // restore epochs handed out (cells hold -epoch)
}

// New returns an empty store.
func New() *Store {
	s := &Store{shards: make([]*dataShard, DefaultShards)}
	for i := range s.shards {
		s.shards[i] = &dataShard{data: make(map[Key]cell)}
	}
	return s
}

// NewFrom returns a store seeded with the given contents. The initial load
// is applied as LSN 1.
func NewFrom(init map[Key]metric.Value) *Store {
	s := New()
	if len(init) == 0 {
		return s
	}
	writes := make([]Write, 0, len(init))
	for k, v := range init {
		writes = append(writes, Write{Key: k, Value: v})
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].Key < writes[j].Key })
	if err := s.Apply(writes); err != nil {
		// Apply on a fresh store without a sink cannot fail.
		panic(fmt.Sprintf("storage: seeding fresh store: %v", err))
	}
	return s
}

// shardFor returns k's data shard (FNV-1a over the key bytes).
func (s *Store) shardFor(k Key) *dataShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime64
	}
	return s.shards[h%uint64(len(s.shards))]
}

// Get returns the current value of k. Missing keys read as 0, matching the
// metric space's natural zero (an account that does not exist holds no
// money).
func (s *Store) Get(k Key) metric.Value {
	v, _ := s.GetVersioned(k)
	return v
}

// GetVersioned returns k's value and version, read under one shard lock.
// A missing key reads as (0, 0).
func (s *Store) GetVersioned(k Key) (metric.Value, int64) {
	sh := s.shardFor(k)
	sh.mu.RLock()
	c := sh.data[k]
	sh.mu.RUnlock()
	return c.v, c.ver
}

// MaxVersion returns the highest version any cell holds (0 when no cell
// is stamped). An optimistic engine built over a store that another
// engine stamped starts its sequence here, so its "committed since my
// snapshot" checks do not mistake the old stamps for new commits.
func (s *Store) MaxVersion() int64 {
	s.lockAllData()
	defer s.unlockAllData()
	var hi int64
	for _, sh := range s.shards {
		for _, c := range sh.data {
			hi = max(hi, c.ver)
		}
	}
	return hi
}

// Has reports whether k has ever been written.
func (s *Store) Has(k Key) bool {
	sh := s.shardFor(k)
	sh.mu.RLock()
	_, ok := sh.data[k]
	sh.mu.RUnlock()
	return ok
}

// Set assigns k := v without committing it and clears k's version to 0.
// It is the raw cell update used by in-flight transactions; the
// transaction layer commits the final batch via Apply, and undoes via Set
// on abort. No sink sees a Set, so a recovery forgets it.
func (s *Store) Set(k Key, v metric.Value) {
	s.put(k, cell{v: v})
}

// put writes c into k's cell: one map write, the old cell is never read.
func (s *Store) put(k Key, c cell) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	sh.data[k] = c
	sh.mu.Unlock()
}

// Apply commits an atomic batch, unstamped: every written key's version
// becomes 0. Values must already be present in the live map when the
// batch comes from an in-place committer; Apply also (re)assigns them so
// it works for both write-through and deferred writers.
func (s *Store) Apply(writes []Write) error {
	return s.apply(writes, 0)
}

// ApplyStamped is Apply for a deferred writer that versions its commits:
// each key is written once, with version ver, which must be positive.
func (s *Store) ApplyStamped(writes []Write, ver int64) error {
	if ver <= 0 {
		panic(fmt.Sprintf("storage: ApplyStamped with version %d", ver))
	}
	return s.apply(writes, ver)
}

// apply is Apply and ApplyStamped: it writes every key's cell, then takes
// the batch's LSN (the order the package doc's cut rests on), then hands
// the caller's batch to the sink.
func (s *Store) apply(writes []Write, ver int64) error {
	if len(writes) == 0 {
		return nil
	}
	for _, w := range writes {
		s.put(w.Key, cell{v: w.Value, ver: ver})
	}
	lsn := s.nextLSN.Add(1)
	if sink, ok := s.sink.Load().(CommitSink); ok && sink != nil {
		return sink.Commit(Batch{LSN: lsn, Writes: writes})
	}
	return nil
}

// SetSink installs the commit sink consulted by Apply. Install it before
// the store sees concurrent traffic; a nil sink disables the hook.
func (s *Store) SetSink(sink CommitSink) {
	if sink != nil {
		s.sink.Store(sink)
	}
}

// Sync returns once every batch applied so far is durable: the sink's
// Sync, and nothing to do without a sink.
func (s *Store) Sync() error {
	if sink, ok := s.sink.Load().(CommitSink); ok && sink != nil {
		return sink.Sync()
	}
	return nil
}

// LastLSN returns the highest LSN assigned so far (0 on a fresh store).
func (s *Store) LastLSN() uint64 { return s.nextLSN.Load() }

// lockAllData read-locks every data shard in index order.
func (s *Store) lockAllData() {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
}

func (s *Store) unlockAllData() {
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
}

// Len returns the number of keys present.
func (s *Store) Len() int {
	s.lockAllData()
	defer s.unlockAllData()
	n := 0
	for _, sh := range s.shards {
		n += len(sh.data)
	}
	return n
}

// Keys returns all keys in sorted order.
func (s *Store) Keys() []Key {
	s.lockAllData()
	var keys []Key
	for _, sh := range s.shards {
		for k := range sh.data {
			keys = append(keys, k)
		}
	}
	s.unlockAllData()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Snapshot returns a copy of the full current state (a consistent cut:
// every data shard is read-locked while copying).
func (s *Store) Snapshot() map[Key]metric.Value {
	s.lockAllData()
	defer s.unlockAllData()
	snap := make(map[Key]metric.Value)
	for _, sh := range s.shards {
		for k, c := range sh.data {
			snap[k] = c.v
		}
	}
	return snap
}

// Restore replaces the live state with snap. The LSN counter is kept,
// so LSNs stay monotonic for writes committed after the restore. Every
// restored cell carries a fresh restore epoch as its version.
func (s *Store) Restore(snap map[Key]metric.Value) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.data = make(map[Key]cell)
	}
	ver := s.newEpoch()
	for k, v := range snap {
		s.shardFor(k).data[k] = cell{v: v, ver: ver}
	}
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// newEpoch hands out the version of the next restore: negative, so it
// never equals a stamped or unstamped version, and new each time.
func (s *Store) newEpoch() int64 { return -s.epochs.Add(1) }

// NewRecovered builds a store from a recovered durable image: base is
// the latest snapshot (folded state as of baseLSN) and entries are the
// batches logged after it, in ascending LSN order. The result is exactly
// the store a crash-surviving site should resume from: its cells replay
// base then entries, and the LSN counter resumes past the highest
// recovered LSN. Entries at or below baseLSN are skipped — the snapshot
// already folds them. The cells carry the new store's first restore epoch.
func NewRecovered(base map[Key]metric.Value, baseLSN uint64, entries []Batch) *Store {
	r := New()
	ver := r.newEpoch()
	for k, v := range base {
		r.shardFor(k).data[k] = cell{v: v, ver: ver}
	}
	maxLSN := baseLSN
	for _, b := range entries {
		if b.LSN <= baseLSN {
			continue
		}
		for _, w := range b.Writes {
			r.shardFor(w.Key).data[w.Key] = cell{v: w.Value, ver: ver}
		}
		maxLSN = max(maxLSN, b.LSN)
	}
	r.nextLSN.Store(maxLSN)
	return r
}

// Sum returns the total of the given keys (missing keys count 0). It is
// the consistency invariant of the banking workloads: transfers conserve
// the sum.
func (s *Store) Sum(keys []Key) metric.Value {
	s.lockAllData()
	defer s.unlockAllData()
	var total metric.Value
	for _, k := range keys {
		total += s.shardFor(k).data[k].v
	}
	return total
}

// SumAll returns the total over every key present.
func (s *Store) SumAll() metric.Value {
	s.lockAllData()
	defer s.unlockAllData()
	var total metric.Value
	for _, sh := range s.shards {
		for _, c := range sh.data {
			total += c.v
		}
	}
	return total
}
