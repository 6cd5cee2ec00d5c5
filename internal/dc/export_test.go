package dc

import (
	"asynctp/internal/lock"
	"asynctp/internal/metric"
)

// Fuzz returns Register'ed owner's current (imported, exported) fuzz.
func (c *Controller) Fuzz(owner lock.Owner) (imported, exported metric.Fuzz) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.owners[owner]
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.imported, a.exported
}
