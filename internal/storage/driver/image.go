package driver

import (
	"maps"
	"sync"

	"asynctp/internal/metric"
	"asynctp/internal/storage"
)

// image is one site's committed state: every key's value as of the
// batches its store's sink has been handed, and nothing an in-flight
// transaction wrote through to the live cells. A recovery rebuilds the
// store from it (mem), and a checkpoint writes it out (disk).
//
// Batches on disjoint keys can reach commit out of LSN order, so the
// image also tracks its cut: the highest LSN at or below which every
// batch is in it. Batches that arrived above the cut wait in ahead until
// the gap below them fills. Conflicting batches arrive in LSN order,
// because their writers hold exclusive locks through Apply, so the
// cells are always a valid replay of what arrived.
type image struct {
	mu    sync.Mutex
	cells map[storage.Key]metric.Value
	cut   uint64
	ahead map[uint64]struct{}
}

// imageOf returns the image of a store no in-flight transaction has
// touched: a freshly seeded or freshly recovered one.
func imageOf(st *storage.Store) *image {
	return &image{cells: st.Snapshot(), cut: st.LastLSN(), ahead: make(map[uint64]struct{})}
}

// commit folds one committed batch into the image. It copies the values
// and keeps no reference to b.Writes.
func (im *image) commit(b storage.Batch) {
	im.mu.Lock()
	for _, w := range b.Writes {
		im.cells[w.Key] = w.Value
	}
	switch {
	case b.LSN == im.cut+1:
		im.cut++
		for {
			if _, ok := im.ahead[im.cut+1]; !ok {
				break
			}
			delete(im.ahead, im.cut+1)
			im.cut++
		}
	case b.LSN > im.cut:
		im.ahead[b.LSN] = struct{}{}
	}
	im.mu.Unlock()
}

// snapshot returns a copy of the committed state and the cut it is whole
// up to. The copy may also hold batches above the cut; a replay of the
// log from the cut on rewrites them in LSN order.
func (im *image) snapshot() (map[storage.Key]metric.Value, uint64) {
	im.mu.Lock()
	defer im.mu.Unlock()
	return maps.Clone(im.cells), im.cut
}
