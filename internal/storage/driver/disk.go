package driver

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/storage"
	"asynctp/internal/storage/wal"
)

// diskDriver persists every committed batch to a per-site segmented WAL
// with group-commit fsync, plus periodic snapshots that truncate the log
// behind them. Layout: <Dir>/<site>/wal-*.seg + snapshot.ck.
type diskDriver struct {
	params Params
}

func (d *diskDriver) Name() string { return "disk" }

func (d *diskDriver) Open(site string, init map[storage.Key]metric.Value) (Backend, error) {
	b := &diskBackend{
		site: site,
		dir:  filepath.Join(d.params.Dir, site),
		p:    d.params,
	}
	if err := b.open(init); err != nil {
		return nil, err
	}
	return b, nil
}

// diskBackend is one site's disk-durable storage. The commit path is
// lock-free here (Store.Apply → Commit → wal.Write handles its own
// serialization); mu guards the aux-blob cache and sequence.
type diskBackend struct {
	site string
	dir  string
	p    Params

	mu     sync.Mutex // aux cache + seq; held briefly, never across fsync
	aux    map[string][]byte
	auxSeq uint64
	// queuesVer is the queue.State.Version of aux["queues"], the newest
	// image accepted, and queuesSave the append that makes it durable.
	queuesVer  uint64
	queuesSave *auxSave

	ckptMu   sync.Mutex // serializes checkpoints
	ckptBusy atomic.Bool
	appends  atomic.Uint64 // commit counter, paces the auto-checkpoint probe

	store *storage.Store
	img   *image // the committed state a checkpoint writes out; Recover swaps it under mu
	w     *wal.Writer
}

// hook adapts the driver-level crash hook to the wal interface.
type hookAdapter struct {
	site string
	fn   func(site string, p wal.CrashPoint) wal.Action
}

func (h hookAdapter) Act(p wal.CrashPoint) wal.Action { return h.fn(h.site, p) }

// walOptions assembles the writer options from params.
func (b *diskBackend) walOptions() []wal.Option {
	opts := []wal.Option{
		wal.WithGroupCommit(b.p.SyncEvery, b.p.SyncBatch),
	}
	if b.p.SegmentBytes > 0 {
		opts = append(opts, wal.WithSegmentBytes(b.p.SegmentBytes))
	}
	if b.p.Hook != nil {
		opts = append(opts, wal.WithHook(hookAdapter{site: b.site, fn: b.p.Hook}))
	}
	if obs := b.p.Obs; obs != nil {
		site := b.site
		opts = append(opts, wal.WithSyncObserver(func(records int) {
			obs.WALSynced(site, records)
		}))
	}
	return opts
}

// open recovers the durable image (if any) and starts a fresh WAL
// segment. A site restarting after kill -9 lands here: snapshot + replay
// rebuild the store, torn tails are discarded, and init is ignored
// because the image already exists.
func (b *diskBackend) open(init map[storage.Key]metric.Value) error {
	snap, haveSnap, err := wal.LoadSnapshot(b.dir)
	if err != nil {
		return fmt.Errorf("driver: loading snapshot for %s: %w", b.site, err)
	}
	res, err := wal.Replay(b.dir)
	if err != nil {
		return fmt.Errorf("driver: replaying wal for %s: %w", b.site, err)
	}
	fresh := !haveSnap && len(res.Batches) == 0 && res.Segments == 0

	b.store, b.aux, b.auxSeq = buildImage(snap, res)
	b.img = imageOf(b.store)
	b.queuesVer, b.queuesSave = recoveredQueues(b.aux)
	if b.p.Obs != nil && !fresh {
		b.p.Obs.Recovered(b.site, len(res.Batches), res.TornBytes)
	}

	w, err := wal.Open(b.dir, b.walOptions()...)
	if err != nil {
		return err
	}
	b.w = w
	b.store.SetSink(b)

	if fresh && len(init) > 0 {
		writes := make([]storage.Write, 0, len(init))
		for k, v := range init {
			writes = append(writes, storage.Write{Key: k, Value: v})
		}
		sort.Slice(writes, func(i, j int) bool { return writes[i].Key < writes[j].Key })
		// No queue image follows the seed batch, so wait for it here: a
		// site reopened from the files must find its initial state.
		if err := b.store.Apply(writes); err != nil {
			return fmt.Errorf("driver: seeding %s: %w", b.site, err)
		}
		if err := b.Sync(); err != nil {
			return fmt.Errorf("driver: seeding %s: %w", b.site, err)
		}
	}
	return nil
}

// buildImage folds a snapshot plus replayed records into a live store
// and aux cache. Batch records at or below the snapshot LSN and aux
// records at or below the snapshot's aux cut are already folded in and
// skipped; unpruned segments may legitimately still contain them.
func buildImage(snap wal.Snapshot, res wal.ReplayResult) (*storage.Store, map[string][]byte, uint64) {
	base := make(map[storage.Key]metric.Value, len(snap.State))
	for k, v := range snap.State {
		base[storage.Key(k)] = metric.Value(v)
	}
	entries := make([]storage.Batch, 0, len(res.Batches))
	for _, r := range res.Batches {
		if r.LSN <= snap.LSN {
			continue
		}
		writes := make([]storage.Write, len(r.Writes))
		for i, kv := range r.Writes {
			writes[i] = storage.Write{Key: storage.Key(kv.Key), Value: metric.Value(kv.Val)}
		}
		entries = append(entries, storage.Batch{LSN: r.LSN, Writes: writes})
	}
	st := storage.NewRecovered(base, snap.LSN, entries)

	aux := make(map[string][]byte, len(snap.Aux))
	for name, blob := range snap.Aux {
		aux[name] = append([]byte(nil), blob...)
	}
	auxSeq := snap.AuxSeq
	for name, rec := range res.Aux {
		if rec.Seq > snap.AuxSeq {
			aux[name] = rec.Data
		}
	}
	if res.MaxSeq > auxSeq {
		auxSeq = res.MaxSeq
	}
	return st, aux, auxSeq
}

// recoveredQueues returns the version of the queue image a recovery
// found and a finished save standing for it: what was read back from
// the files is durable. An image that does not decode counts as version
// 0; LoadQueues reports the error.
func recoveredQueues(aux map[string][]byte) (uint64, *auxSave) {
	save := &auxSave{done: make(chan struct{})}
	close(save.done)
	st, err := queue.DecodeState(aux[queuesAux])
	if err != nil {
		return 0, save
	}
	return st.Version, save
}

func (b *diskBackend) Store() *storage.Store { return b.store }

// writer returns the current WAL writer; Recover swaps it under mu.
func (b *diskBackend) writer() *wal.Writer {
	b.mu.Lock()
	w := b.w
	b.mu.Unlock()
	return w
}

// Commit implements storage.CommitSink: every committed batch becomes a
// WAL record, written without waiting for an fsync. The next fsync of
// the log makes it durable: the site's next queue-image persist, whose
// record lands after it, or a Sync. Only a batch the log took joins the
// committed image, so a checkpoint never holds one the log refused.
func (b *diskBackend) Commit(batch storage.Batch) error {
	kvs := make([]wal.KV, len(batch.Writes))
	for i, w := range batch.Writes {
		kvs[i] = wal.KV{Key: string(w.Key), Val: int64(w.Value)}
	}
	b.mu.Lock()
	w, img := b.w, b.img
	b.mu.Unlock()
	if err := w.Write(wal.BatchRecord(batch.LSN, kvs)); err != nil {
		return err
	}
	img.commit(batch)
	b.maybeCheckpoint()
	return nil
}

// Sync implements storage.CommitSink: it returns once every batch
// committed so far is durable, sharing the group-commit fsync.
func (b *diskBackend) Sync() error { return b.writer().Wait() }

// maybeCheckpoint probes the log size every 32 commits and kicks a
// background checkpoint when it outgrows CheckpointBytes.
func (b *diskBackend) maybeCheckpoint() {
	if b.p.CheckpointBytes <= 0 {
		return
	}
	if b.appends.Add(1)%32 != 0 {
		return
	}
	if b.writer().LogBytes() < b.p.CheckpointBytes {
		return
	}
	if !b.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer b.ckptBusy.Store(false)
		_ = b.Checkpoint() // best-effort; a failed checkpoint leaves the log longer
	}()
}

// auxSave is one in-flight (or finished) append of the queue image; err
// is valid once done is closed.
type auxSave struct {
	done chan struct{}
	err  error
}

// queuesAux names the queue image among the aux blobs.
const queuesAux = "queues"

// SaveQueues serializes and logs the queue image; it returns only after
// an image at least as new as st is fsynced, which is what the queue
// layer's persist-before-ack barrier relies on. Snapshots are encoded
// outside every lock, so an older one can arrive after a newer one. It
// is then not logged — aux sequence numbers are handed out under mu in
// version order, and replay keeps the highest sequence, so the log
// never prefers an older image — and its caller waits for the newer
// image's append instead. The WAL append (and its group-commit fsync
// wait) happens outside mu so concurrent savers and committers share
// cohorts.
func (b *diskBackend) SaveQueues(st queue.State) error {
	blob, err := st.Encode()
	if err != nil {
		return err
	}
	b.mu.Lock()
	if st.Version < b.queuesVer {
		newer := b.queuesSave
		b.mu.Unlock()
		<-newer.done
		return newer.err
	}
	save := &auxSave{done: make(chan struct{})}
	b.queuesVer, b.queuesSave = st.Version, save
	b.auxSeq++
	seq := b.auxSeq
	b.aux[queuesAux] = blob
	w := b.w
	b.mu.Unlock()
	save.err = w.Append(wal.AuxRecord(seq, queuesAux, blob))
	close(save.done)
	return save.err
}

func (b *diskBackend) LoadQueues() (queue.State, bool, error) {
	b.mu.Lock()
	blob, ok := b.aux[queuesAux]
	b.mu.Unlock()
	if !ok {
		return queue.State{}, false, nil
	}
	st, err := queue.DecodeState(blob)
	if err != nil {
		return queue.State{}, false, err
	}
	return st, true, nil
}

// Recover rebuilds the site from its real files, exactly as a process
// restart would: close the (possibly crash-wedged) writer, load the
// snapshot, replay the segments — truncating any torn tail — and resume
// appending into a fresh segment. The in-memory store and aux cache are
// replaced wholesale by the durable image.
func (b *diskBackend) Recover() (*storage.Store, error) {
	b.ckptMu.Lock()
	defer b.ckptMu.Unlock()
	_ = b.w.Close() // flushes if healthy; a crashed writer just closes

	snap, _, err := wal.LoadSnapshot(b.dir)
	if err != nil {
		return nil, err
	}
	res, err := wal.Replay(b.dir)
	if err != nil {
		return nil, err
	}
	store, aux, auxSeq := buildImage(snap, res)
	if b.p.Obs != nil {
		b.p.Obs.Recovered(b.site, len(res.Batches), res.TornBytes)
	}

	w, err := wal.Open(b.dir, b.walOptions()...)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.aux = aux
	b.auxSeq = auxSeq
	b.queuesVer, b.queuesSave = recoveredQueues(aux)
	b.w = w
	b.img = imageOf(store)
	b.mu.Unlock()
	b.store = store
	store.SetSink(b)
	return store, nil
}

// Checkpoint snapshots the committed image and truncates the WAL behind
// it. Live cells are never read: they hold in-flight transactions'
// write-through values, which an abort undoes without a log record. The
// snapshot's LSN is the image's cut, so every batch at or below it is in
// the snapshot; batches above it stay in the log (Commit writes the log
// before the image) and replay over the snapshot in LSN order.
func (b *diskBackend) Checkpoint() error {
	b.ckptMu.Lock()
	defer b.ckptMu.Unlock()

	b.mu.Lock()
	auxSeq := b.auxSeq
	aux := make(map[string][]byte, len(b.aux))
	for name, blob := range b.aux {
		aux[name] = append([]byte(nil), blob...)
	}
	b.mu.Unlock()
	state, snapLSN := b.img.snapshot()

	out := wal.Snapshot{
		LSN:    snapLSN,
		AuxSeq: auxSeq,
		State:  make(map[string]int64, len(state)),
		Aux:    aux,
	}
	for k, v := range state {
		out.State[string(k)] = int64(v)
	}
	var hook wal.Hook
	if b.p.Hook != nil {
		hook = hookAdapter{site: b.site, fn: b.p.Hook}
	}
	if err := wal.WriteSnapshot(b.dir, out, hook); err != nil {
		return err
	}
	if err := b.w.Rotate(); err != nil {
		return err
	}
	pruned, err := b.w.PruneTo(snapLSN, auxSeq)
	if err != nil {
		return err
	}
	if b.p.Obs != nil {
		b.p.Obs.Checkpointed(b.site, pruned)
	}
	return nil
}

func (b *diskBackend) Close() error { return b.writer().Close() }
