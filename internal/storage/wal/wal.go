// Package wal implements the segmented write-ahead log behind the disk
// storage driver.
//
// The log is a directory of numbered segment files. Each record is a
// CRC-framed blob:
//
//	[length u32 LE] [crc32(IEEE) of payload u32 LE] [payload]
//
// The payload's first byte is the record type: batch records carry one
// committed atomic batch (LSN + writes), aux records carry a named
// opaque blob (queue state, dedup images) stamped with a monotonic
// sequence so replay applies only blobs newer than the snapshot.
//
// Durability is group-commit: appenders write their frame under the
// writer mutex and then wait on the current sync cohort; a background
// syncer fsyncs cohorts back-to-back and releases every waiter. The
// accumulation window is the in-flight fsync itself — every append that
// lands while one fsync runs shares the next — so one fsync covers many
// commits, which is what makes a high-rate chopped-transaction pipeline
// affordable on real disks. Group commit off degrades to
// fsync-per-append.
//
// Writing and waiting also come apart: Write puts a record in the log
// and returns at once, and Wait returns once everything written before
// it is durable. That is sound because of the log's order. A site has
// one log, a rotation fsyncs the segment it seals, and replay stops at
// the first bad record of a segment, so an fsync that covers a record
// covers every record written before it: a caller that writes a batch
// and later waits on a record written after it has both, or after a
// crash neither or only the earlier one.
//
// Torn tails: a crash can leave a partial frame at the end of the last
// segment. Replay stops at the first bad length or CRC within a segment
// and moves to the next segment — a frame that never finished was never
// acknowledged, so dropping it is correct. Segments created after a
// crash are always fresh files, so a torn tail can only ever terminate
// the segment that was active when the process died.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Record types.
const (
	recBatch = 1
	recAux   = 2
)

// frameHeader is [len u32][crc u32].
const frameHeader = 8

// maxFrame bounds a record's payload; larger lengths are treated as
// corruption (protects replay from absurd allocations on garbage input).
const maxFrame = 16 << 20

// KV is one key/value assignment inside a batch record. The wal package
// is deliberately independent of the storage package's types; the driver
// converts.
type KV struct {
	Key string
	Val int64
}

// Record is one decoded WAL record.
type Record struct {
	// Type is recBatch or recAux (exposed via IsBatch/IsAux).
	Type byte
	// LSN stamps batch records (the store's log sequence number).
	LSN uint64
	// Writes are the batch's assignments (batch records).
	Writes []KV
	// Seq stamps aux records (monotonic per log).
	Seq uint64
	// Name and Data carry an aux record's blob.
	Name string
	Data []byte
}

// IsBatch reports whether r carries a committed batch.
func (r Record) IsBatch() bool { return r.Type == recBatch }

// IsAux reports whether r carries an auxiliary blob.
func (r Record) IsAux() bool { return r.Type == recAux }

// BatchRecord builds a batch record.
func BatchRecord(lsn uint64, writes []KV) Record {
	return Record{Type: recBatch, LSN: lsn, Writes: writes}
}

// AuxRecord builds an aux record.
func AuxRecord(seq uint64, name string, data []byte) Record {
	return Record{Type: recAux, Seq: seq, Name: name, Data: data}
}

// encodePayload serializes a record payload (without the frame header).
func encodePayload(r Record) []byte {
	buf := make([]byte, 1, 64+len(r.Data))
	buf[0] = r.Type
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	putVarint := func(v int64) {
		n := binary.PutVarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	switch r.Type {
	case recBatch:
		putUvarint(r.LSN)
		putUvarint(uint64(len(r.Writes)))
		for _, w := range r.Writes {
			putUvarint(uint64(len(w.Key)))
			buf = append(buf, w.Key...)
			putVarint(w.Val)
		}
	case recAux:
		putUvarint(r.Seq)
		putUvarint(uint64(len(r.Name)))
		buf = append(buf, r.Name...)
		putUvarint(uint64(len(r.Data)))
		buf = append(buf, r.Data...)
	}
	return buf
}

// decodePayload parses one record payload. It returns an error on any
// malformed input and never panics (fuzzed).
func decodePayload(p []byte) (Record, error) {
	if len(p) == 0 {
		return Record{}, errors.New("wal: empty payload")
	}
	r := Record{Type: p[0]}
	p = p[1:]
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, errors.New("wal: bad uvarint")
		}
		p = p[n:]
		return v, nil
	}
	readVarint := func() (int64, error) {
		v, n := binary.Varint(p)
		if n <= 0 {
			return 0, errors.New("wal: bad varint")
		}
		p = p[n:]
		return v, nil
	}
	readBytes := func() ([]byte, error) {
		n, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(p)) {
			return nil, errors.New("wal: truncated bytes")
		}
		b := p[:n]
		p = p[n:]
		return b, nil
	}
	switch r.Type {
	case recBatch:
		var err error
		if r.LSN, err = readUvarint(); err != nil {
			return Record{}, err
		}
		n, err := readUvarint()
		if err != nil {
			return Record{}, err
		}
		if n > uint64(len(p)) { // each write is >= 2 bytes
			return Record{}, errors.New("wal: write count exceeds payload")
		}
		r.Writes = make([]KV, 0, n)
		for i := uint64(0); i < n; i++ {
			key, err := readBytes()
			if err != nil {
				return Record{}, err
			}
			val, err := readVarint()
			if err != nil {
				return Record{}, err
			}
			r.Writes = append(r.Writes, KV{Key: string(key), Val: val})
		}
	case recAux:
		var err error
		if r.Seq, err = readUvarint(); err != nil {
			return Record{}, err
		}
		name, err := readBytes()
		if err != nil {
			return Record{}, err
		}
		r.Name = string(name)
		data, err := readBytes()
		if err != nil {
			return Record{}, err
		}
		r.Data = append([]byte(nil), data...)
	default:
		return Record{}, fmt.Errorf("wal: unknown record type %d", r.Type)
	}
	if len(p) != 0 {
		return Record{}, errors.New("wal: trailing bytes in payload")
	}
	return r, nil
}

// encodeFrame wraps a payload in the [len][crc] frame.
func encodeFrame(payload []byte) []byte {
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame
}

// DecodeFrames parses a byte stream of frames, returning the records
// decoded before the first malformed frame and the number of bytes
// consumed. It never panics and never reads past the first bad length
// or CRC — the torn-tail contract (fuzzed by FuzzWALDecode).
func DecodeFrames(b []byte) (recs []Record, consumed int) {
	for {
		if len(b)-consumed < frameHeader {
			return recs, consumed
		}
		length := binary.LittleEndian.Uint32(b[consumed : consumed+4])
		if length == 0 || length > maxFrame {
			return recs, consumed
		}
		if uint64(len(b)-consumed-frameHeader) < uint64(length) {
			return recs, consumed
		}
		crc := binary.LittleEndian.Uint32(b[consumed+4 : consumed+8])
		payload := b[consumed+frameHeader : consumed+frameHeader+int(length)]
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, consumed
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return recs, consumed
		}
		recs = append(recs, rec)
		consumed += frameHeader + int(length)
	}
}

// CrashPoint names a place where fault injection can act.
type CrashPoint int

const (
	// PointAppend fires before a record's frame is written: a crash here
	// loses the record entirely.
	PointAppend CrashPoint = iota
	// PointSync fires after frames are written but before fsync: a crash
	// here leaves records in the page cache (survives kill -9, lost on
	// power failure — the chaos harness treats it as the
	// "written-not-acknowledged" window).
	PointSync
	// PointTorn fires after a deliberately truncated frame has been
	// written and synced; a kill -9 hook dies here to leave a real torn
	// tail on disk.
	PointTorn
	// PointSnapshot fires after a snapshot temp file is written but
	// before the atomic rename publishes it.
	PointSnapshot
)

// String names the point (chaos specs and logs).
func (p CrashPoint) String() string {
	switch p {
	case PointAppend:
		return "wal-append"
	case PointSync:
		return "wal-sync"
	case PointTorn:
		return "wal-torn"
	case PointSnapshot:
		return "wal-snapshot"
	}
	return fmt.Sprintf("wal-point-%d", int(p))
}

// Action is a hook's verdict at a crash point.
type Action int

const (
	// ActContinue proceeds normally.
	ActContinue Action = iota
	// ActCrash makes the writer fail the operation with ErrCrashed
	// (in-process crash simulation; kill -9 hooks never return instead).
	ActCrash
	// ActTorn (meaningful at PointAppend) writes a truncated frame,
	// syncs it, then consults the hook again at PointTorn.
	ActTorn
)

// Hook is consulted at crash points. A kill -9 harness SIGKILLs the
// process inside Act; in-process tests return ActCrash and observe
// ErrCrashed.
type Hook interface {
	Act(p CrashPoint) Action
}

// ErrCrashed is returned once a hook has simulated a crash; the writer
// is dead from then on.
var ErrCrashed = errors.New("wal: crashed by fault injection")

// segInfo describes one sealed (no longer written) segment.
type segInfo struct {
	index  int
	path   string
	maxLSN uint64 // highest batch LSN in the segment
	maxSeq uint64 // highest aux seq in the segment
}

// Writer appends records to the active segment with group-commit fsync.
type Writer struct {
	dir      string
	segBytes int64
	window   time.Duration
	maxBatch int
	hook     Hook
	onSync   func(records int)

	mu     sync.Mutex
	f      *os.File
	index  int    // active segment index
	off    int64  // active segment size
	curLSN uint64 // highest batch LSN in active segment
	curSeq uint64 // highest aux seq in active segment
	sealed []segInfo
	// cohort collects the waiters of the next fsync (nil while nobody
	// waits), last is the cohort detached most recently (its fsync may
	// still be running) and unsynced counts the records written since
	// then, which the next fsync is the first to cover.
	cohort, last *cohort
	unsynced     int
	err          error // sticky fatal error

	kick   chan struct{}
	stop   chan struct{}
	done   chan struct{}
	closed bool
}

// cohort is one group of appenders waiting on a shared fsync; n is the
// number of records the fsync covers.
type cohort struct {
	done chan struct{}
	err  error
	n    int
}

// Option configures a Writer.
type Option func(*Writer)

// WithSegmentBytes sets the rotation threshold (default 4 MiB).
func WithSegmentBytes(n int64) Option {
	return func(w *Writer) {
		if n > 0 {
			w.segBytes = n
		}
	}
}

// WithGroupCommit enables group-commit fsync. window > 0 turns cohort
// batching on: the background syncer fsyncs a cohort as soon as the
// previous fsync completes, so the accumulation window is the duration
// of the in-flight fsync rather than a timer (a sub-millisecond timer
// fires a scheduler tick late on Linux, which would put a ~1ms floor
// under every commit — slower than not batching at all on a fast
// device). The window's magnitude is therefore not a wait; it is kept
// as the driver-level on/off knob. maxBatch caps a cohort; the appender
// that fills a cohort syncs it inline. window <= 0 means fsync on every
// append (no batching).
func WithGroupCommit(window time.Duration, maxBatch int) Option {
	return func(w *Writer) {
		w.window = window
		if maxBatch > 0 {
			w.maxBatch = maxBatch
		}
	}
}

// WithHook installs a crash-point hook.
func WithHook(h Hook) Option {
	return func(w *Writer) { w.hook = h }
}

// WithSyncObserver installs a callback invoked after each fsync with the
// number of records it covered (metrics).
func WithSyncObserver(fn func(records int)) Option {
	return func(w *Writer) { w.onSync = fn }
}

// segPattern matches segment file names.
const segPattern = "wal-%08d.seg"

// segPath returns the path of segment i under dir.
func segPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf(segPattern, i))
}

// listSegments returns the segment files under dir sorted by index.
func listSegments(dir string) ([]segInfo, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, p := range names {
		var i int
		if _, err := fmt.Sscanf(filepath.Base(p), segPattern, &i); err != nil {
			continue
		}
		segs = append(segs, segInfo{index: i, path: p})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].index < segs[b].index })
	return segs, nil
}

// Open creates a Writer over dir, starting a fresh active segment after
// any existing ones. It never appends to a pre-existing segment: a torn
// tail in the previous active segment then terminates only that
// segment's replay, and records written after the restart live in a
// clean file. Call Replay first to recover state.
func Open(dir string, opts ...Option) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{
		dir:      dir,
		segBytes: 4 << 20,
		maxBatch: 128,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, o := range opts {
		o(w)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if n := len(segs); n > 0 {
		next = segs[n-1].index + 1
		// Sealed segments from before this open: their stamps are read
		// lazily by PruneTo (which re-scans files), so leave them zeroed
		// here and mark them unknown with maxLSN = ^0.
		for i := range segs {
			segs[i].maxLSN = ^uint64(0)
			segs[i].maxSeq = ^uint64(0)
		}
		w.sealed = segs
	}
	if err := w.openSegment(next); err != nil {
		return nil, err
	}
	go w.syncLoop()
	return w, nil
}

// openSegment opens segment i as the active file. Caller holds w.mu or
// has exclusive access.
func (w *Writer) openSegment(i int) error {
	f, err := os.OpenFile(segPath(w.dir, i), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil { // make the creation itself durable
		f.Close()
		return err
	}
	w.f = f
	w.index = i
	w.off = 0
	w.curLSN = 0
	w.curSeq = 0
	return nil
}

// rotateLocked seals the active segment and opens the next one. The old
// file is fsynced before closing so a cohort spanning the rotation is
// durable once the post-rotation fsync returns.
func (w *Writer) rotateLocked() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, segInfo{
		index:  w.index,
		path:   segPath(w.dir, w.index),
		maxLSN: w.curLSN,
		maxSeq: w.curSeq,
	})
	return w.openSegment(w.index + 1)
}

// Append writes one record and returns once it is durable (fsynced),
// possibly sharing the fsync with a cohort of concurrent appenders: a
// Write and a Wait in one step.
func (w *Writer) Append(rec Record) error {
	frame := encodeFrame(encodePayload(rec))
	w.mu.Lock()
	if err := w.writeLocked(rec, frame); err != nil {
		w.mu.Unlock()
		return err
	}
	return w.waitLocked()
}

// Write puts one record in the log and returns without waiting for an
// fsync. The record is durable once a later Wait or Append returns nil.
func (w *Writer) Write(rec Record) error {
	frame := encodeFrame(encodePayload(rec))
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeLocked(rec, frame)
}

// Wait returns once every record written before the call is durable,
// sharing the fsync with a cohort of concurrent appenders. After a
// failure it returns the writer's sticky error.
func (w *Writer) Wait() error {
	w.mu.Lock()
	if err := w.usableLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	return w.waitLocked()
}

// usableLocked returns the sticky error, or an error for a closed
// writer. Caller holds w.mu.
func (w *Writer) usableLocked() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("wal: writer closed")
	}
	return nil
}

// writeLocked writes rec's frame to the active segment, rotating first
// when the segment is full. Caller holds w.mu.
func (w *Writer) writeLocked(rec Record, frame []byte) error {
	if err := w.usableLocked(); err != nil {
		return err
	}
	if w.hook != nil {
		switch w.hook.Act(PointAppend) {
		case ActCrash:
			w.err = ErrCrashed
			return ErrCrashed
		case ActTorn:
			// Write a deliberately truncated frame and make it reach the
			// file, then give the hook its chance to kill the process on
			// top of a real torn tail.
			cut := frameHeader + (len(frame)-frameHeader)/2
			if cut >= len(frame) && len(frame) > 0 {
				cut = len(frame) - 1
			}
			if _, err := w.f.Write(frame[:cut]); err != nil {
				w.err = err
				return err
			}
			if err := w.f.Sync(); err != nil {
				w.err = err
				return err
			}
			w.hook.Act(PointTorn)
			w.err = ErrCrashed
			return ErrCrashed
		}
	}
	if w.off >= w.segBytes {
		if err := w.rotateLocked(); err != nil {
			w.err = err
			return err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		w.err = err
		return err
	}
	w.off += int64(len(frame))
	w.unsynced++
	switch rec.Type {
	case recBatch:
		if rec.LSN > w.curLSN {
			w.curLSN = rec.LSN
		}
	case recAux:
		if rec.Seq > w.curSeq {
			w.curSeq = rec.Seq
		}
	}
	return nil
}

// waitLocked returns once every record written so far is durable. The
// caller holds w.mu; waitLocked releases it.
func (w *Writer) waitLocked() error {
	if w.window <= 0 {
		// Sync-per-append mode: fsync inline when anything is unsynced.
		var err error
		if w.unsynced > 0 {
			if err = w.syncLocked(w.unsynced); err == nil {
				w.unsynced = 0
			}
		}
		w.mu.Unlock()
		return err
	}
	c := w.cohort
	if c == nil && w.unsynced == 0 {
		// Every record written so far belongs to a cohort already
		// detached: its fsync covers them.
		c = w.last
		w.mu.Unlock()
		if c == nil {
			return nil
		}
		<-c.done
		return c.err
	}
	if c == nil {
		c = &cohort{done: make(chan struct{})}
		w.cohort = c
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
	full := w.unsynced >= w.maxBatch
	w.mu.Unlock()
	if full {
		w.syncCohort()
	}
	<-c.done
	return c.err
}

// syncLocked consults the pre-fsync crash point and fsyncs the active
// file. Caller holds w.mu.
func (w *Writer) syncLocked(records int) error {
	if w.hook != nil && w.hook.Act(PointSync) == ActCrash {
		w.err = ErrCrashed
		return ErrCrashed
	}
	if err := w.f.Sync(); err != nil {
		w.err = err
		return err
	}
	if w.onSync != nil {
		w.onSync(records)
	}
	return nil
}

// syncCohort detaches the current cohort and fsyncs on its behalf. All
// of a cohort's frames, and every frame written before them, are
// already in the file: records are written under w.mu before anyone
// waits on them, and rotation fsyncs the old file, so one fsync of the
// active file covers the whole group. The fsync itself runs
// OUTSIDE w.mu — appenders keep writing frames and joining the next
// cohort while this one's fsync is in flight, which is where the
// group-commit batching actually comes from (holding the mutex across
// the fsync serializes appends behind it and collapses every cohort to
// one or two records).
func (w *Writer) syncCohort() {
	w.mu.Lock()
	c := w.cohort
	w.cohort = nil
	if c == nil {
		w.mu.Unlock()
		return
	}
	c.n, w.unsynced = w.unsynced, 0
	w.last = c
	if w.err != nil {
		c.err = w.err
		w.mu.Unlock()
		close(c.done)
		return
	}
	if w.hook != nil && w.hook.Act(PointSync) == ActCrash {
		w.err = ErrCrashed
		c.err = ErrCrashed
		w.mu.Unlock()
		close(c.done)
		return
	}
	f := w.f
	w.mu.Unlock()

	err := f.Sync()

	w.mu.Lock()
	if err != nil && w.f != f && w.err == nil {
		// The active segment rotated while the fsync was in flight:
		// rotateLocked fsyncs the outgoing file before closing it, so the
		// cohort's frames are already durable and the error is just a
		// sync racing the close of a stale handle.
		err = nil
	}
	if err != nil {
		if w.err == nil {
			w.err = err
		}
	} else if w.onSync != nil {
		w.onSync(c.n)
	}
	w.mu.Unlock()
	c.err = err
	close(c.done)
}

// syncLoop is the group-commit syncer: each kick syncs whatever cohort
// accumulated, immediately. Cohort creation always sends (or leaves
// pending) a kick, so no cohort is stranded; appends that land while a
// sync is in flight join the next cohort, which is the whole batching
// effect.
func (w *Writer) syncLoop() {
	defer close(w.done)
	for {
		select {
		case <-w.kick:
		case <-w.stop:
			w.syncCohort()
			return
		}
		// Let every runnable appender write its frame and join the cohort
		// before detaching it. On a loaded (or single-core) machine the
		// syncer can otherwise wake ahead of the appenders released by the
		// previous sync and detach a cohort of one; a single yield costs
		// nanoseconds and routinely multiplies the records per fsync.
		runtime.Gosched()
		w.syncCohort()
	}
}

// LastLSN returns the highest batch LSN appended to the active segment.
func (w *Writer) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.curLSN
}

// SegmentCount returns sealed+active segment counts (tests, metrics).
func (w *Writer) SegmentCount() (sealed, total int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sealed), len(w.sealed) + 1
}

// LogBytes returns the total size of all segment files.
func (w *Writer) LogBytes() int64 {
	w.mu.Lock()
	segs := append([]segInfo(nil), w.sealed...)
	active := w.off
	w.mu.Unlock()
	total := active
	for _, s := range segs {
		if fi, err := os.Stat(s.path); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// Rotate seals the active segment (so PruneTo can consider it) and
// starts a new one. Checkpoint uses it before pruning.
func (w *Writer) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.err != nil {
		return w.err
	}
	if w.off == 0 {
		return nil // empty active segment: nothing to seal
	}
	if err := w.rotateLocked(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// PruneTo deletes sealed segments whose every record is covered by a
// snapshot at (snapLSN, auxSeq): maxLSN <= snapLSN and maxSeq <= auxSeq.
// Segments with unknown stamps (sealed before this process opened the
// log) are scanned on demand. Returns the number of files removed.
func (w *Writer) PruneTo(snapLSN, auxSeq uint64) (int, error) {
	w.mu.Lock()
	segs := append([]segInfo(nil), w.sealed...)
	w.mu.Unlock()

	removed := 0
	var keep []segInfo
	for _, s := range segs {
		if s.maxLSN == ^uint64(0) { // unknown: scan the file
			maxLSN, maxSeq, err := scanStamps(s.path)
			if err != nil {
				keep = append(keep, s)
				continue
			}
			s.maxLSN, s.maxSeq = maxLSN, maxSeq
		}
		if s.maxLSN <= snapLSN && s.maxSeq <= auxSeq {
			if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
				keep = append(keep, s)
				continue
			}
			removed++
		} else {
			keep = append(keep, s)
		}
	}
	w.mu.Lock()
	// Concurrent rotations may have sealed more segments meanwhile; keep
	// any not in our scanned set.
	have := make(map[int]bool, len(keep))
	for _, s := range keep {
		have[s.index] = true
	}
	for _, s := range segs {
		have[s.index] = true // scanned (kept or removed)
	}
	for _, s := range w.sealed {
		if !have[s.index] {
			keep = append(keep, s)
		}
	}
	sort.Slice(keep, func(a, b int) bool { return keep[a].index < keep[b].index })
	w.sealed = keep
	w.mu.Unlock()
	return removed, nil
}

// scanStamps reads a sealed segment and returns its max batch LSN and
// aux seq.
func scanStamps(path string) (maxLSN, maxSeq uint64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	recs, _ := DecodeFrames(b)
	for _, r := range recs {
		if r.IsBatch() && r.LSN > maxLSN {
			maxLSN = r.LSN
		}
		if r.IsAux() && r.Seq > maxSeq {
			maxSeq = r.Seq
		}
	}
	return maxLSN, maxSeq, nil
}

// Close flushes and closes the writer.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.stop)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		if w.err == nil {
			w.f.Sync()
		}
		return w.f.Close()
	}
	return nil
}
