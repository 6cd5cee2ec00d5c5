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
// # Cells
//
// Each key has one Cell, and Store.Cell hands out a pointer to it. The
// pointer is a stable handle: a cell is never removed or moved, so a
// handle stays valid, and keeps naming its key, for the life of its
// store. An executor that knows its keys ahead of time (the off-line
// phase knows every key a piece touches) resolves them once and then
// reads and writes through the handles without hashing a key again.
//
// A cell holds its value and version behind a sequence counter. Writers
// are serialised by the mutex of the cell's shard: a writer bumps the
// counter to odd, stores the value and the version, then bumps it back
// to even. Cell.Load reads the counter, the pair and the counter again,
// and retries while the counter is odd or has moved, so a read takes no
// lock and never sees a torn pair.
//
// A cell can be absent: resolved (or dropped by a Restore) but holding
// no key. An absent cell reads as value 0, like a key that was never
// written, and Has, Keys, Len and Snapshot skip it. Set and Apply make
// it present again.
//
// # Versions
//
// The optimistic engine validates a read by comparing versions, so the
// rules are about one thing: a cell whose value may have changed since a
// reader saw it must not show the version that reader saw.
//
//   - ApplyStamped writes each cell with the caller's positive version
//     (the optimistic engine's commit sequence).
//   - Set and Apply are unstamped: they write version 0 without reading
//     the cell. Two unstamped writes to a key are indistinguishable by
//     version, so a raw writer and a version-validating reader must not
//     share keys.
//   - Restore and NewRecovered stamp every cell with a fresh negative
//     restore epoch, which no earlier read of the store can hold. That
//     includes the cells Restore drops: they turn absent, read 0 and
//     carry the epoch, so a reader that saw the dropped value fails
//     validation. A never-written cell reads (0, 0).
//
// # Striping
//
// The key → cell map is sharded by key hash, so unrelated keys never
// contend on a mutex; a shard's mutex guards its map, its cells' writes
// and their absent flags. Whole-store reads (Snapshot, Sum, Keys …) take
// every shard's mutex in index order, which yields a consistent cut.
// Apply writes a batch's cells before it takes the batch's LSN from an
// atomic counter, so every batch at or below an LSN read from LastLSN is
// already in the cells. Conflicting batches are ordered by the lock
// manager (writers hold exclusive locks through Apply), so LSN order is
// a valid serialization for replay; batches on disjoint keys may reach
// the sink out of LSN order.
package storage

import (
	"fmt"
	"runtime"
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

// Cell is one key's live state, its value and version (see Cells and
// Versions in the package doc). A *Cell is a stable handle: Store.Cell
// returns the same pointer for a key for the life of the store.
//
// A cell fills a cache line of its own, so a hot key's writes do not
// miss in the readers of its slab neighbours.
type Cell struct {
	seq atomic.Uint64 // odd while a writer is storing v and ver
	v   atomic.Int64
	ver atomic.Int64
	sh  *dataShard // whose mutex serialises the cell's writers
	// absent marks a cell that holds no key (resolved before any write,
	// or dropped by a Restore). Guarded by sh.mu.
	absent bool
	_      [cacheLine - 33]byte
}

// cacheLine is the cache line size the layout of cells and shards
// assumes.
const cacheLine = 64

// Load returns the cell's value and version, read together without a
// lock: it retries while a writer is mid-store or has stored since the
// read began.
func (c *Cell) Load() (metric.Value, int64) {
	for spins := 0; ; spins++ {
		if seq := c.seq.Load(); seq&1 == 0 {
			v, ver := c.v.Load(), c.ver.Load()
			if c.seq.Load() == seq {
				return metric.Value(v), ver
			}
		}
		if spins >= 64 {
			// The writer was descheduled mid-store: let it finish.
			runtime.Gosched()
		}
	}
}

// Set is Store.Set through the handle: c := v, unstamped, uncommitted.
func (c *Cell) Set(v metric.Value) {
	c.sh.mu.Lock()
	c.put(v, 0)
	c.sh.mu.Unlock()
}

// store writes the pair under the sequence counter. Caller holds c.sh.mu.
func (c *Cell) store(v metric.Value, ver int64) {
	c.seq.Add(1)
	c.v.Store(int64(v))
	c.ver.Store(ver)
	c.seq.Add(1)
}

// put stores the pair and makes the cell present. Caller holds c.sh.mu.
func (c *Cell) put(v metric.Value, ver int64) {
	c.store(v, ver)
	c.absent = false
}

// dataShard is one shard of the key → cell map, a cache line of its
// own.
type dataShard struct {
	mu    sync.Mutex
	cells map[Key]*Cell
	// slab holds the shard's next unused cells, so resolving a new key
	// allocates once per slab rather than once per cell.
	slab []Cell
	_    [cacheLine - 40]byte
}

// Slab sizes: a shard's next slab holds as many cells as the shard
// already has, within these bounds.
const (
	minSlab = 4
	maxSlab = 128
)

// cellLocked returns k's cell, creating it absent at (0, 0) when k has
// none. Caller holds sh.mu (or owns the store exclusively).
func (sh *dataShard) cellLocked(k Key) *Cell {
	if c := sh.cells[k]; c != nil {
		return c
	}
	if len(sh.slab) == 0 {
		sh.slab = make([]Cell, min(max(len(sh.cells), minSlab), maxSlab))
	}
	c := &sh.slab[0]
	sh.slab = sh.slab[1:]
	c.sh, c.absent = sh, true
	sh.cells[k] = c
	return c
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
		s.shards[i] = &dataShard{cells: make(map[Key]*Cell)}
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

// Cell resolves k to its cell, creating an absent one (reading (0, 0))
// when k has none. The handle stays valid for the life of the store.
func (s *Store) Cell(k Key) *Cell {
	sh := s.shardFor(k)
	sh.mu.Lock()
	c := sh.cellLocked(k)
	sh.mu.Unlock()
	return c
}

// lookup returns k's cell, or nil when k was never resolved.
func (s *Store) lookup(k Key) *Cell {
	sh := s.shardFor(k)
	sh.mu.Lock()
	c := sh.cells[k]
	sh.mu.Unlock()
	return c
}

// Get returns the current value of k. Missing keys read as 0, matching the
// metric space's natural zero (an account that does not exist holds no
// money).
func (s *Store) Get(k Key) metric.Value {
	c := s.lookup(k)
	if c == nil {
		return 0
	}
	v, _ := c.Load()
	return v
}

// MaxVersion returns the highest version any cell holds (0 when no cell
// is stamped). An optimistic engine built over a store that another
// engine stamped starts its sequence here, so its "committed since my
// snapshot" checks do not mistake the old stamps for new commits.
func (s *Store) MaxVersion() int64 {
	s.lockAll()
	defer s.unlockAll()
	var hi int64
	for _, sh := range s.shards {
		for _, c := range sh.cells {
			hi = max(hi, c.ver.Load())
		}
	}
	return hi
}

// Has reports whether k holds a value: written and not dropped since.
func (s *Store) Has(k Key) bool {
	sh := s.shardFor(k)
	sh.mu.Lock()
	c := sh.cells[k]
	ok := c != nil && !c.absent
	sh.mu.Unlock()
	return ok
}

// Set assigns k := v without committing it and clears k's version to 0.
// It is the raw cell update used by in-flight transactions; the
// transaction layer commits the final batch via ApplyWritten, and undoes
// via Set on abort. No sink sees a Set, so a recovery forgets it.
func (s *Store) Set(k Key, v metric.Value) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	sh.cellLocked(k).put(v, 0)
	sh.mu.Unlock()
}

// Apply commits an atomic batch, unstamped: every written key's version
// becomes 0. It resolves each key to its cell; an executor holding the
// cells already uses ApplyWritten or ApplyStamped instead.
func (s *Store) Apply(writes []Write) error {
	if len(writes) == 0 {
		return nil
	}
	for _, w := range writes {
		sh := s.shardFor(w.Key)
		sh.mu.Lock()
		sh.cellLocked(w.Key).put(w.Value, 0)
		sh.mu.Unlock()
	}
	return s.commit(writes)
}

// ApplyWritten commits a batch a write-through committer has already
// stored, unstamped, in its cells (Set under exclusive locks it still
// holds): it takes the batch's LSN and hands the batch to the sink
// without touching a cell.
func (s *Store) ApplyWritten(writes []Write) error {
	if len(writes) == 0 {
		return nil
	}
	return s.commit(writes)
}

// ApplyStamped commits a deferred writer's batch through its cells:
// cells[i] is writes[i].Key's cell, each key appears once, and every
// cell is written with version ver, which must be positive.
func (s *Store) ApplyStamped(cells []*Cell, writes []Write, ver int64) error {
	if ver <= 0 {
		panic(fmt.Sprintf("storage: ApplyStamped with version %d", ver))
	}
	if len(cells) != len(writes) {
		panic(fmt.Sprintf("storage: ApplyStamped with %d cells for %d writes", len(cells), len(writes)))
	}
	if len(writes) == 0 {
		return nil
	}
	for i, c := range cells {
		c.sh.mu.Lock()
		c.put(writes[i].Value, ver)
		c.sh.mu.Unlock()
	}
	return s.commit(writes)
}

// commit takes the batch's LSN once its cells are written (the order the
// package doc's cut rests on), then hands the caller's batch to the sink.
func (s *Store) commit(writes []Write) error {
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

// lockAll locks every data shard in index order.
func (s *Store) lockAll() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

func (s *Store) unlockAll() {
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// Len returns the number of keys present.
func (s *Store) Len() int {
	s.lockAll()
	defer s.unlockAll()
	n := 0
	for _, sh := range s.shards {
		for _, c := range sh.cells {
			if !c.absent {
				n++
			}
		}
	}
	return n
}

// Keys returns all keys present, in sorted order.
func (s *Store) Keys() []Key {
	s.lockAll()
	var keys []Key
	for _, sh := range s.shards {
		for k, c := range sh.cells {
			if !c.absent {
				keys = append(keys, k)
			}
		}
	}
	s.unlockAll()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Snapshot returns a copy of the full current state (a consistent cut:
// every data shard is locked while copying).
func (s *Store) Snapshot() map[Key]metric.Value {
	s.lockAll()
	defer s.unlockAll()
	snap := make(map[Key]metric.Value)
	for _, sh := range s.shards {
		for k, c := range sh.cells {
			if !c.absent {
				snap[k] = metric.Value(c.v.Load())
			}
		}
	}
	return snap
}

// Restore replaces the live state with snap, in place: every cell keeps
// its handle. The LSN counter is kept, so LSNs stay monotonic for writes
// committed after the restore. Every cell, restored or dropped, carries
// a fresh restore epoch as its version; a dropped cell turns absent and
// reads 0.
func (s *Store) Restore(snap map[Key]metric.Value) {
	s.lockAll()
	ver := s.newEpoch()
	for _, sh := range s.shards {
		for k, c := range sh.cells {
			v, ok := snap[k]
			c.store(v, ver)
			c.absent = !ok
		}
	}
	for k, v := range snap {
		s.shardFor(k).cellLocked(k).put(v, ver)
	}
	s.unlockAll()
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
		r.shardFor(k).cellLocked(k).put(v, ver)
	}
	maxLSN := baseLSN
	for _, b := range entries {
		if b.LSN <= baseLSN {
			continue
		}
		for _, w := range b.Writes {
			r.shardFor(w.Key).cellLocked(w.Key).put(w.Value, ver)
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
	s.lockAll()
	defer s.unlockAll()
	var total metric.Value
	for _, k := range keys {
		if c := s.shardFor(k).cells[k]; c != nil {
			total += metric.Value(c.v.Load())
		}
	}
	return total
}

// SumAll returns the total over every key present.
func (s *Store) SumAll() metric.Value {
	s.lockAll()
	defer s.unlockAll()
	var total metric.Value
	for _, sh := range s.shards {
		for _, c := range sh.cells {
			total += metric.Value(c.v.Load())
		}
	}
	return total
}
