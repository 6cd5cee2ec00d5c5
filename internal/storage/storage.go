// Package storage implements the in-memory versioned key-value store that
// backs every simulated site.
//
// The store holds the committed database state. Transactions write through
// it immediately under two-phase locking and undo on abort using
// before-images kept by the transaction layer, so the store itself stays a
// plain concurrent map plus a committed-write journal. The journal gives
// sites a durable-state notion for crash/restore simulation: state
// reconstructed from the journal is exactly the committed state.
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
//   - Restore, Recover and NewRecovered stamp every cell with a fresh
//     negative restore epoch, which no earlier read of the store (or of
//     the store recovered from) can hold. CompactJournal touches only
//     the journal.
//
// # Striping
//
// The live map is sharded by key hash; the journal is sharded
// round-robin with per-entry LSN assignment from an atomic counter, and
// merged by LSN on read (Journal, Recover). Unrelated keys therefore
// never contend on a mutex. Whole-store reads (Snapshot, Sum, Keys …)
// take every data-shard read lock in index order, which still yields a
// consistent cut. LSNs are assigned while holding the target journal
// shard's mutex, so any reader holding all journal-shard mutexes sees a
// gap-free prefix: every assigned LSN is already appended. Replaying
// the merged journal in LSN order reproduces the committed state —
// conflicting batches are ordered by the lock manager (writers hold
// exclusive locks through Apply), so LSN order is a valid serialization.
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

// JournalEntry is one committed atomic batch.
type JournalEntry struct {
	// LSN is the log sequence number, ascending from 1. LSNs are dense
	// until the first CompactJournal, which folds a prefix of entries
	// into one checkpoint entry.
	LSN uint64
	// Writes are the batch's assignments.
	Writes []Write
	// Checkpoint marks an entry produced by CompactJournal: its writes
	// are the folded state of every entry it replaced.
	Checkpoint bool
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

// journalShard is one shard of the committed-batch journal.
type journalShard struct {
	mu      sync.Mutex
	entries []JournalEntry
}

// DefaultShards is the default data/journal shard count.
const DefaultShards = 16

// DefaultJournalLimit is the default soft cap on journal entries: when
// an append pushes the total past the cap the journal auto-compacts its
// full prefix into one checkpoint entry. Recovery semantics are
// unchanged (the checkpoint replays to the identical state); the cap
// only bounds memory in long soaks. SetJournalLimit(0) disables it.
const DefaultJournalLimit = 1 << 16

// CommitSink receives every committed batch after it is journaled. A
// durable driver implements it to write the batch to a write-ahead log.
// Commit need not wait for the write to be durable, and the disk driver
// does not: there "Apply returned" means the batch is in the log, ahead
// of every later record, and it becomes durable with the next fsync
// of that log — the site's next queue-image persist, or a Sync. Sync
// returns once every batch Commit has been handed is durable. A Commit
// error is fatal for the batch's transaction: Apply propagates it and
// the executor aborts, but the in-memory journal entry has already been
// appended, so a store whose sink failed must be treated as crashed.
type CommitSink interface {
	Commit(e JournalEntry) error
	Sync() error
}

// Store is a concurrent key-value store over the metric value space.
type Store struct {
	shards  []*dataShard
	jshards []*journalShard
	nextLSN atomic.Uint64
	nextJS  atomic.Uint64 // round-robin journal shard cursor
	jcount  atomic.Int64  // total journal entries across shards
	jlimit  atomic.Int64  // soft cap (0 = unlimited)
	compact sync.Mutex    // serializes compactions
	sink    atomic.Value  // CommitSink, set at most once before use
	epochs  atomic.Int64  // restore epochs handed out (cells hold -epoch)
}

// New returns an empty store.
func New() *Store {
	s := &Store{
		shards:  make([]*dataShard, DefaultShards),
		jshards: make([]*journalShard, DefaultShards),
	}
	for i := range s.shards {
		s.shards[i] = &dataShard{data: make(map[Key]cell)}
	}
	for i := range s.jshards {
		s.jshards[i] = &journalShard{}
	}
	s.jlimit.Store(DefaultJournalLimit)
	return s
}

// NewFrom returns a store seeded with the given contents. The initial load
// is recorded as LSN 1 so that recovery reproduces it.
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
		// Apply on a fresh store with a non-empty batch cannot fail.
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

// Set assigns k := v without journaling and clears k's version to 0. It
// is the raw cell update used by in-flight transactions; the transaction
// layer journals the final batch at commit via Apply, and undoes via Set
// on abort.
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

// Apply journals an atomic committed batch, unstamped: every written key's
// version becomes 0. Values must already be present in the live map when
// the batch comes from an in-place committer; Apply also (re)assigns them
// so it works for both write-through and deferred writers.
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

// apply is Apply and ApplyStamped: it writes every key's cell, then
// journals the batch.
func (s *Store) apply(writes []Write, ver int64) error {
	if len(writes) == 0 {
		return nil
	}
	cp := make([]Write, len(writes))
	copy(cp, writes)
	for _, w := range cp {
		s.put(w.Key, cell{v: w.Value, ver: ver})
	}
	js := s.jshards[s.nextJS.Add(1)%uint64(len(s.jshards))]
	js.mu.Lock()
	// The LSN is assigned under the shard mutex so that a reader holding
	// every journal-shard mutex observes a gap-free LSN prefix.
	lsn := s.nextLSN.Add(1)
	js.entries = append(js.entries, JournalEntry{LSN: lsn, Writes: cp})
	js.mu.Unlock()
	if sink, ok := s.sink.Load().(CommitSink); ok && sink != nil {
		if err := sink.Commit(JournalEntry{LSN: lsn, Writes: cp}); err != nil {
			return err
		}
	}
	if n := s.jcount.Add(1); n > s.jlimit.Load() && s.jlimit.Load() > 0 {
		s.autoCompact()
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

// SetJournalLimit sets the soft cap on journal entries (0 disables
// auto-compaction). The cap bounds memory, not durability: compaction
// preserves the recovered state exactly.
func (s *Store) SetJournalLimit(n int) {
	s.jlimit.Store(int64(n))
}

// JournalLen returns the number of journal entries currently held.
func (s *Store) JournalLen() int { return int(s.jcount.Load()) }

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

// Restore replaces the live state with snap and resets the journal to a
// single checkpoint entry mirroring snap. The journal must not survive
// the restore: entries with LSNs above the restored cut describe writes
// that the restored state has already forgotten, and a later
// CompactJournal (or Recover) would fold those future writes back into
// the old state. The checkpoint's LSN is the current high-water mark so
// LSNs stay monotonic for writes committed after the restore. Every
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
	s.lockAllJournal()
	for _, js := range s.jshards {
		js.entries = nil
	}
	if len(snap) > 0 {
		writes := make([]Write, 0, len(snap))
		for k, v := range snap {
			writes = append(writes, Write{Key: k, Value: v})
		}
		sort.Slice(writes, func(i, j int) bool { return writes[i].Key < writes[j].Key })
		cut := s.nextLSN.Load()
		if cut == 0 {
			cut = s.nextLSN.Add(1)
		}
		s.jshards[0].entries = []JournalEntry{{LSN: cut, Writes: writes, Checkpoint: true}}
		s.jcount.Store(1)
	} else {
		s.jcount.Store(0)
	}
	s.unlockAllJournal()
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// mergedJournalLocked collects every entry sorted by LSN. Callers hold
// all journal-shard mutexes.
func (s *Store) mergedJournalLocked() []JournalEntry {
	var out []JournalEntry
	for _, js := range s.jshards {
		out = append(out, js.entries...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LSN < out[j].LSN })
	return out
}

// lockAllJournal locks every journal shard in index order.
func (s *Store) lockAllJournal() {
	for _, js := range s.jshards {
		js.mu.Lock()
	}
}

func (s *Store) unlockAllJournal() {
	for _, js := range s.jshards {
		js.mu.Unlock()
	}
}

// Journal returns a copy of the committed-batch journal in LSN order.
func (s *Store) Journal() []JournalEntry {
	s.lockAllJournal()
	defer s.unlockAllJournal()
	return s.mergedJournalLocked()
}

// newEpoch hands out the version of the next restore: negative, so it
// never equals a stamped or unstamped version, and new each time.
func (s *Store) newEpoch() int64 { return -s.epochs.Add(1) }

// Recover builds a fresh store whose state replays the journal: the
// durable, committed state as of the crash. Uncommitted Set calls made by
// in-flight transactions are lost, exactly as a write-ahead-logged store
// would lose dirty pages whose transactions never committed. The
// recovered cells carry a restore epoch past every one s handed out.
func (s *Store) Recover() *Store {
	entries := s.Journal()
	r := New()
	r.jlimit.Store(s.jlimit.Load())
	r.epochs.Store(s.epochs.Load())
	ver := r.newEpoch()
	var maxLSN uint64
	for _, entry := range entries {
		for _, w := range entry.Writes {
			r.shardFor(w.Key).data[w.Key] = cell{v: w.Value, ver: ver}
		}
		js := r.jshards[r.nextJS.Add(1)%uint64(len(r.jshards))]
		js.entries = append(js.entries, entry)
		r.jcount.Add(1)
		if entry.LSN > maxLSN {
			maxLSN = entry.LSN
		}
	}
	r.nextLSN.Store(maxLSN)
	return r
}

// NewRecovered builds a store from a recovered durable image: base is
// the latest snapshot (folded state as of baseLSN) and entries are the
// journaled batches logged after it, in ascending LSN order. The result
// is exactly the store a crash-surviving site should resume from: data
// replays base then entries, the journal holds a checkpoint for base
// plus the entries, and the LSN counter resumes past the highest
// recovered LSN. Entries at or below baseLSN are skipped — the snapshot
// already folds them. The cells carry the new store's first restore epoch.
func NewRecovered(base map[Key]metric.Value, baseLSN uint64, entries []JournalEntry) *Store {
	r := New()
	ver := r.newEpoch()
	maxLSN := baseLSN
	if len(base) > 0 {
		writes := make([]Write, 0, len(base))
		for k, v := range base {
			r.shardFor(k).data[k] = cell{v: v, ver: ver}
			writes = append(writes, Write{Key: k, Value: v})
		}
		sort.Slice(writes, func(i, j int) bool { return writes[i].Key < writes[j].Key })
		lsn := baseLSN
		if lsn == 0 {
			lsn = 1
			maxLSN = 1
		}
		r.jshards[0].entries = []JournalEntry{{LSN: lsn, Writes: writes, Checkpoint: true}}
		r.jcount.Add(1)
	}
	for _, entry := range entries {
		if entry.LSN <= baseLSN {
			continue
		}
		for _, w := range entry.Writes {
			r.shardFor(w.Key).data[w.Key] = cell{v: w.Value, ver: ver}
		}
		js := r.jshards[r.nextJS.Add(1)%uint64(len(r.jshards))]
		js.entries = append(js.entries, entry)
		r.jcount.Add(1)
		if entry.LSN > maxLSN {
			maxLSN = entry.LSN
		}
	}
	r.nextLSN.Store(maxLSN)
	return r
}

// CompactJournal folds every journal entry with LSN <= keepLSN into a
// single checkpoint entry carrying the folded state, and keeps later
// entries untouched. It returns the number of entries removed (folded
// entries minus the checkpoint). Recovery from a compacted journal
// reproduces exactly the state of the uncompacted one: the checkpoint
// replays the folded prefix's final values, then later entries replay
// in LSN order as before. Long soaks call it to keep memory flat.
func (s *Store) CompactJournal(keepLSN uint64) int {
	s.compact.Lock()
	defer s.compact.Unlock()
	return s.compactJournal(keepLSN)
}

// compactJournal is CompactJournal's body; callers hold s.compact.
//
// Each shard's entries are in ascending LSN order by construction (the
// LSN is assigned under the shard mutex just before the append), so the
// folded region of every shard is a plain slice prefix: no global
// merge-and-sort is needed. Folding tracks per-key the highest folded
// LSN so last-writer-wins holds across shards, the prefixes are trimmed
// in place (keeping each shard's capacity for the next fill cycle), and
// the checkpoint — whose LSN precedes every kept entry — is prepended
// to shard 0, preserving per-shard LSN order. This keeps auto-compaction
// O(folded entries) with no large transient allocation, which matters
// because it runs on the commit path of long benchmarks and soaks.
func (s *Store) compactJournal(keepLSN uint64) int {
	s.lockAllJournal()
	defer s.unlockAllJournal()
	type foldVal struct {
		lsn uint64
		v   metric.Value
	}
	fold := make(map[Key]foldVal)
	cuts := make([]int, len(s.jshards))
	folded := 0
	var maxFolded uint64
	for si, js := range s.jshards {
		entries := js.entries
		cut := sort.Search(len(entries), func(i int) bool { return entries[i].LSN > keepLSN })
		cuts[si] = cut
		for _, e := range entries[:cut] {
			for _, w := range e.Writes {
				// >= lets a later write in the same batch win too.
				if fv, ok := fold[w.Key]; !ok || e.LSN >= fv.lsn {
					fold[w.Key] = foldVal{lsn: e.LSN, v: w.Value}
				}
			}
			if e.LSN > maxFolded {
				maxFolded = e.LSN
			}
		}
		folded += cut
	}
	if folded <= 1 {
		return 0 // nothing to gain
	}
	writes := make([]Write, 0, len(fold))
	for k, fv := range fold {
		writes = append(writes, Write{Key: k, Value: fv.v})
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].Key < writes[j].Key })
	ck := JournalEntry{LSN: maxFolded, Writes: writes, Checkpoint: true}
	total := 1 // the checkpoint
	for si, js := range s.jshards {
		if cut := cuts[si]; cut > 0 {
			js.entries = append(js.entries[:0], js.entries[cut:]...)
		}
		total += len(js.entries)
	}
	// maxFolded <= keepLSN < every kept LSN, so prepending the checkpoint
	// keeps shard 0 sorted.
	js0 := s.jshards[0]
	js0.entries = append(js0.entries, JournalEntry{})
	copy(js0.entries[1:], js0.entries)
	js0.entries[0] = ck
	s.jcount.Store(int64(total))
	return folded - 1
}

// autoCompact folds the entire current journal into one checkpoint.
// It runs at most one compaction at a time; concurrent appends simply
// land after the fold point and are kept.
func (s *Store) autoCompact() {
	if !s.compact.TryLock() {
		return // a compaction is already running
	}
	defer s.compact.Unlock()
	s.compactJournal(s.nextLSN.Load())
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
