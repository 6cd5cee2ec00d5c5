package driver

import (
	"sync"

	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/storage"
)

// memDriver is the in-memory driver: the pre-driver behavior of the
// simulator, unchanged, behind the Backend interface. Durability is
// simulated — the "durable image" is the store's journal plus a held
// queue.State object — which keeps the hot path allocation- and
// fsync-free for experiments that model crashes rather than suffer them.
type memDriver struct{}

func (d *memDriver) Name() string { return "mem" }

func (d *memDriver) Open(site string, init map[storage.Key]metric.Value) (Backend, error) {
	return &memBackend{store: storage.NewFrom(init)}, nil
}

type memBackend struct {
	mu     sync.Mutex
	store  *storage.Store
	queues queue.State
	hasQ   bool
}

func (b *memBackend) Store() *storage.Store { return b.store }

// SaveQueues keeps the image with the highest version: an older
// snapshot that lost the race to the backend finds the newer one
// already held, which covers it.
func (b *memBackend) SaveQueues(st queue.State) error {
	b.mu.Lock()
	if !b.hasQ || st.Version >= b.queues.Version {
		b.queues = st
		b.hasQ = true
	}
	b.mu.Unlock()
	return nil
}

func (b *memBackend) LoadQueues() (queue.State, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queues, b.hasQ, nil
}

// Recover replays the store's journal — the simulated durable state —
// into the same store: uncommitted Set calls vanish, committed batches
// survive, and Restore resets the journal to a checkpoint of exactly
// the recovered cut.
func (b *memBackend) Recover() (*storage.Store, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	recovered := b.store.Recover()
	b.store.Restore(recovered.Snapshot())
	return b.store, nil
}

func (b *memBackend) Checkpoint() error {
	b.store.CompactJournal(b.store.LastLSN())
	return nil
}

func (b *memBackend) Close() error { return nil }
