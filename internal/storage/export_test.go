package storage

import "asynctp/internal/metric"

// GetVersioned is the key path to a cell's Load: k's value and version,
// (0, 0) for a key never resolved.
func (s *Store) GetVersioned(k Key) (metric.Value, int64) {
	c := s.lookup(k)
	if c == nil {
		return 0, 0
	}
	return c.Load()
}

// applyStampedKeys is ApplyStamped through the key path: it resolves
// every written key to its cell first.
func (s *Store) applyStampedKeys(writes []Write, ver int64) error {
	cells := make([]*Cell, len(writes))
	for i, w := range writes {
		cells[i] = s.Cell(w.Key)
	}
	return s.ApplyStamped(cells, writes, ver)
}
