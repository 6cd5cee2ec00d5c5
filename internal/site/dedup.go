package site

import (
	"fmt"
	"sync"

	"asynctp/internal/storage"
)

// pieceKey identifies one piece application: the distributed instance,
// the piece index, and whether it is the compensating (inverse) run.
type pieceKey struct {
	inst  uint64
	piece int
	comp  bool
}

// marker returns the durable storage key whose presence proves the
// piece committed. The marker is written in the same commit batch as
// the piece's effects, so "applied" and "marker present" are atomic in
// every committed image a recovery can find — the anchor of the
// at-least-once → exactly-once argument.
func (k pieceKey) marker() storage.Key {
	tag := "applied"
	if k.comp {
		tag = "comp"
	}
	return storage.Key(fmt.Sprintf("__%s/%d/%d", tag, k.inst, k.piece))
}

// dedupTable is a site's in-memory index of applied pieces, keyed on
// (inst, pieceIdx, comp). It exists because recoverable queues deliver
// at least once: an activation redelivered after a crash in the
// commit→ack window must be recognized, not re-applied. The table is
// volatile — a crash wipes it — so lookups fall back to the durable
// marker keys in the recovered store, and hits repopulate the cache.
type dedupTable struct {
	mu    sync.Mutex
	seen  map[pieceKey]bool
	store *storage.Store
}

// newDedupTable builds the table over the site's store.
func newDedupTable(store *storage.Store) *dedupTable {
	return &dedupTable{seen: make(map[pieceKey]bool), store: store}
}

// applied reports whether the piece has already committed, consulting
// the in-memory set first and the durable marker second.
func (d *dedupTable) applied(k pieceKey) bool {
	d.mu.Lock()
	if d.seen[k] {
		d.mu.Unlock()
		return true
	}
	d.mu.Unlock()
	if d.store.Has(k.marker()) {
		d.record(k)
		return true
	}
	return false
}

// record marks the piece applied in the in-memory set (the durable
// marker is written by the piece's own commit batch).
func (d *dedupTable) record(k pieceKey) {
	d.mu.Lock()
	d.seen[k] = true
	d.mu.Unlock()
}

// reset wipes the volatile set and rebinds the store — crash recovery.
// Durable markers in the recovered store keep answering through the
// fallback path.
func (d *dedupTable) reset(store *storage.Store) {
	d.mu.Lock()
	d.seen = make(map[pieceKey]bool)
	d.store = store
	d.mu.Unlock()
}

// Len returns the number of cached entries (tests).
func (d *dedupTable) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.seen)
}
