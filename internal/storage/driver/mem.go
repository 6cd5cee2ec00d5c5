package driver

import (
	"sync"

	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/storage"
)

// memDriver is the in-memory driver. Durability is simulated — the
// "durable image" is the committed image the store's sink keeps plus a
// held queue.State object — which keeps the hot path fsync-free for
// experiments that model crashes rather than suffer them.
type memDriver struct{}

func (d *memDriver) Name() string { return "mem" }

func (d *memDriver) Open(site string, init map[storage.Key]metric.Value) (Backend, error) {
	st := storage.NewFrom(init)
	b := &memBackend{store: st, img: imageOf(st)}
	st.SetSink(b)
	return b, nil
}

// memBackend is the store's commit sink: every committed batch lands in
// img, whose own mutex keeps commits off the one SaveQueues takes.
type memBackend struct {
	store *storage.Store
	img   *image

	mu     sync.Mutex // the queue image
	queues queue.State
	hasQ   bool
}

func (b *memBackend) Store() *storage.Store { return b.store }

// Commit implements storage.CommitSink: the batch joins the committed
// image.
func (b *memBackend) Commit(batch storage.Batch) error {
	b.img.commit(batch)
	return nil
}

// Sync implements storage.CommitSink: the image is as durable as it gets.
func (b *memBackend) Sync() error { return nil }

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

// Recover restores the committed image into the same store: uncommitted
// Set calls vanish and committed batches survive.
func (b *memBackend) Recover() (*storage.Store, error) {
	state, _ := b.img.snapshot()
	b.store.Restore(state)
	return b.store, nil
}

// Checkpoint has nothing to fold: the image is one value per key.
func (b *memBackend) Checkpoint() error { return nil }

func (b *memBackend) Close() error { return nil }
