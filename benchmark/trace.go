package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/storage/driver"
)

// Span names. The benchmark records spans only from its own files: a
// root around every Submit and one around each call that crosses a seam
// the program already exposes (site.Config.Net, site.Config.Storage).
const (
	spanSubmit uint8 = iota
	spanSend
	spanSaveQueues
	spanCheckpoint
	numSpanNames
)

var spanNames = [numSpanNames]string{"submit", "transport.send", "wal.savequeues", "wal.checkpoint"}

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch. Parent is the index of the causing span, -1 for a root; the
// seams carry no transaction identity, so seam spans are roots with
// txn -1 (spans inside the program are a later change).
type span struct {
	start, end int64
	txn        int64
	parent     int32
	name       uint8
}

// tracer is a preallocated in-memory span buffer. A nil tracer records
// nothing, so the untraced pass pays one nil check per call site.
type tracer struct {
	epoch   time.Time
	buf     []span
	mapped  []byte // buf's backing memory when it is off the Go heap
	next    atomic.Int64
	dropped atomic.Int64
	// stopped and active fence the seam decorators off the buffer: the
	// queue layer flushes from timer goroutines that Cluster.Close does
	// not wait for, so a Send can arrive after the pass has ended.
	stopped atomic.Bool
	active  atomic.Int64
}

// traceCap bounds the buffer (about 130 MB when full, touched lazily).
// A pass that outruns it stops recording and reports the drop count;
// the per-transaction ratios are taken over what was recorded.
const traceCap = 1 << 22

// newTracer allocates the buffer outside the Go heap where it can: a
// 130 MB live object would quintuple the heap and so the interval
// between collections, and the traced pass would outrun the untraced
// one it is compared with. release returns the memory.
func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now()}
	size := capacity * int(unsafe.Sizeof(span{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.buf = make([]span, capacity)
		return t
	}
	t.mapped = mem
	t.buf = unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), capacity)
	return t
}

// stop ends recording through the seams: it returns once every seam
// call already admitted has left, and later ones record nothing. Root
// spans need no fence; the load loops that record them are joined.
func (t *tracer) stop() {
	t.stopped.Store(true)
	for t.active.Load() != 0 {
		runtime.Gosched()
	}
}

// release frees the buffer of a stopped tracer; every slice spans
// returned is dead afterwards.
func (t *tracer) release() {
	if t.mapped != nil {
		_ = syscall.Munmap(t.mapped) // nothing to do about a failed unmap
	}
	t.buf, t.mapped = nil, nil
}

// seam records a span around one call through a decorated seam, unless
// the tracer has stopped.
func (t *tracer) seam(name uint8, call func() error) error {
	t.active.Add(1)
	defer t.active.Add(-1)
	if t.stopped.Load() {
		return call()
	}
	id := t.begin(name, -1, -1)
	err := call()
	t.end(id)
	return err
}

// begin opens a span and returns its index, -1 when not recording.
func (t *tracer) begin(name uint8, parent int32, txn int64) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return -1
	}
	t.buf[i] = span{start: int64(time.Since(t.epoch)), txn: txn, parent: parent, name: name}
	return int32(i)
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if id >= 0 {
		t.buf[id].end = int64(time.Since(t.epoch))
	}
}

// spans returns the recorded spans. Call it once the traced work has
// stopped.
func (t *tracer) spans() []span {
	n := t.next.Load()
	if n > int64(len(t.buf)) {
		n = int64(len(t.buf))
	}
	return t.buf[:n]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap one
// another and may stick out of the parent; the covered part is the
// union of the children clipped to the parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	kids := make(map[int32][]int32)
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent >= 0 && int(s.parent) < len(spans) {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	for p, ks := range kids {
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		lo, hi := spans[p].start, spans[p].end
		var covered int64
		reach := lo // everything before reach is already counted
		for _, k := range ks {
			s, e := spans[k].start, spans[k].end
			if s < reach {
				s = reach
			}
			if e > hi {
				e = hi
			}
			if e > s {
				covered += e - s
				reach = e
			}
		}
		self[p] -= covered
	}
	return self
}

// spanTotals sums self time and counts per span name.
type spanTotals struct {
	selfNs [numSpanNames]int64
	count  [numSpanNames]int64
}

func totalsOf(spans []span) spanTotals {
	var t spanTotals
	self := selfTimes(spans)
	for i, s := range spans {
		if s.end == 0 {
			continue // still open when the pass ended
		}
		t.selfNs[s.name] += self[i]
		t.count[s.name]++
	}
	return t
}

// writeSpans appends one workload's spans to the -trace-out file as
// JSON lines.
func writeSpans(w *bufio.Writer, workload string, spans []span) error {
	for i, s := range spans {
		if _, err := fmt.Fprintf(w,
			"{\"workload\":%q,\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"txn\":%d}\n",
			workload, i, spanNames[s.name], s.start, s.end, s.parent, s.txn); err != nil {
			return err
		}
	}
	return nil
}

// createTraceOut opens the span file.
func createTraceOut(path string) (*os.File, *bufio.Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, bufio.NewWriterSize(f, 1<<20), nil
}

// tracedNet times Send on the wire seam; every other simnet.Net method
// is forwarded by embedding.
type tracedNet struct {
	simnet.Net
	tr *tracer
}

func (n tracedNet) Send(msg simnet.Message) error {
	return n.tr.seam(spanSend, func() error { return n.Net.Send(msg) })
}

// tracedDriver hands out backends that time the durability calls.
type tracedDriver struct {
	driver.Driver
	tr *tracer
}

func (d tracedDriver) Open(site string, init map[storage.Key]metric.Value) (driver.Backend, error) {
	be, err := d.Driver.Open(site, init)
	if err != nil {
		return nil, err
	}
	return tracedBackend{Backend: be, tr: d.tr}, nil
}

// tracedBackend times SaveQueues and Checkpoint; the rest of
// driver.Backend is forwarded by embedding.
type tracedBackend struct {
	driver.Backend
	tr *tracer
}

func (b tracedBackend) SaveQueues(st queue.State) error {
	return b.tr.seam(spanSaveQueues, func() error { return b.Backend.SaveQueues(st) })
}

func (b tracedBackend) Checkpoint() error {
	return b.tr.seam(spanCheckpoint, b.Backend.Checkpoint)
}

// walCounter counts fsyncs through driver.Params.Obs.
type walCounter struct {
	fsyncs  atomic.Uint64
	records atomic.Uint64
}

func (c *walCounter) WALSynced(site string, records int) {
	c.fsyncs.Add(1)
	c.records.Add(uint64(records))
}
func (c *walCounter) Recovered(site string, entries int, tornBytes int64) {}
func (c *walCounter) Checkpointed(site string, prunedSegments int)        {}
