package lock

import (
	"slices"

	"asynctp/internal/storage"
)

// Stripes returns the configured stripe count.
func (m *Manager) Stripes() int { return len(m.stripes) }

// HeldKeys returns the keys owner currently holds (any mode), sorted.
func (m *Manager) HeldKeys(owner Owner) []storage.Key {
	var out []storage.Key
	for _, s := range m.stripes {
		s.mu.Lock()
		for k, r := range s.table {
			for _, h := range r.holders {
				if h.Owner == owner {
					out = append(out, k)
				}
			}
		}
		s.mu.Unlock()
	}
	slices.Sort(out)
	return out
}

// WaitGraph returns a copy of the current waits-for edges.
func (m *Manager) WaitGraph() map[Owner][]Owner {
	d := m.det
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[Owner][]Owner, len(d.waits))
	for o, es := range d.waits {
		out[o] = append([]Owner(nil), es...)
	}
	return out
}

// HoldsLock reports whether owner currently holds key in at least mode.
func (m *Manager) HoldsLock(owner Owner, key storage.Key, mode Mode) bool {
	s := m.stripeFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.table[key]; r != nil {
		for _, h := range r.holders {
			if h.Owner == owner && h.Mode >= mode {
				return true
			}
		}
	}
	return false
}
