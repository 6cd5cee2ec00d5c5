package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ProcSpans is one process's span-store dump: the unit the loadbench
// -multi barrier ships from children to the parent for merging.
type ProcSpans struct {
	Proc    string `json:"proc"`
	Spans   []Span `json:"spans"`
	Total   uint64 `json:"total"`
	Evicted uint64 `json:"evicted"`
}

// mergedSpan is a span qualified by the store that recorded it.
type mergedSpan struct {
	Span
	Proc string
}

// spanKey globally identifies a span: IDs are only unique per store.
type spanKey struct {
	proc string
	id   uint64
}

// MergedTrace is one transaction's reassembled cross-process span
// tree.
type MergedTrace struct {
	Trace uint64
	// Spans holds every span of the trace (duplicates collapsed),
	// qualified by recording process.
	Spans []mergedSpan
	// Root indexes the txn span in Spans, -1 when the root was lost
	// (evicted or never recorded).
	Root int
	// Orphans counts spans whose parent edge dangles: the parent span
	// is absent from the merge (evicted from its store's bounded ring,
	// or the sender traced with spans off). These are the propagation
	// failures the bounded buffer can silently create; the merge
	// counts them instead.
	Orphans int
	// Connected reports a complete tree: a root exists and every span
	// reaches it through parent edges.
	Connected bool
}

// Merged is the canonical cross-process trace: every trace reassembled
// from the per-process dumps, plus the propagation-failure accounting.
type Merged struct {
	Traces []*MergedTrace
	Procs  []string
	// Spans counts merged spans; Orphans counts dangling parent edges
	// across all traces; Evicted sums the per-process ring evictions.
	Spans   int
	Orphans int
	Evicted uint64
}

// ConnectedFraction returns the fraction of traces that have a fully
// connected span tree (1.0 when there are no traces).
func (m *Merged) ConnectedFraction() float64 {
	if len(m.Traces) == 0 {
		return 1.0
	}
	n := 0
	for _, t := range m.Traces {
		if t.Connected {
			n++
		}
	}
	return float64(n) / float64(len(m.Traces))
}

// MergeSpans reassembles one cross-process trace set from per-process
// span dumps. Duplicate spans (same store, same ID — redelivered hops
// re-recorded after a crash) collapse to the last copy. The result is
// deterministic: traces sort by ID, spans within a trace by a stable
// structural key.
func MergeSpans(dumps []ProcSpans) *Merged {
	m := &Merged{}
	byTrace := make(map[uint64]map[spanKey]mergedSpan)
	for _, d := range dumps {
		m.Procs = append(m.Procs, d.Proc)
		m.Evicted += d.Evicted
		for _, sp := range d.Spans {
			t := byTrace[sp.Trace]
			if t == nil {
				t = make(map[spanKey]mergedSpan)
				byTrace[sp.Trace] = t
			}
			t[spanKey{d.Proc, sp.ID}] = mergedSpan{Span: sp, Proc: d.Proc}
		}
	}
	sort.Strings(m.Procs)
	for trace, set := range byTrace {
		mt := &MergedTrace{Trace: trace, Root: -1}
		for _, sp := range set {
			mt.Spans = append(mt.Spans, sp)
		}
		sort.Slice(mt.Spans, func(i, j int) bool {
			a, b := &mt.Spans[i], &mt.Spans[j]
			if a.ID != b.ID {
				return a.ID < b.ID
			}
			return a.Proc < b.Proc
		})
		// Resolve parent edges and find the root.
		children := make(map[spanKey][]int, len(mt.Spans))
		for i := range mt.Spans {
			sp := &mt.Spans[i]
			if sp.Kind == SpanTxn && sp.Parent == 0 {
				mt.Root = i
				continue
			}
			pp := sp.ParentProc
			if pp == "" {
				pp = sp.Proc
			}
			pk := spanKey{pp, sp.Parent}
			if sp.Parent == 0 {
				// Parentless non-root: the sender never stamped a
				// context (tracing off upstream) — a dangling edge.
				mt.Orphans++
				continue
			}
			if _, ok := set[pk]; !ok {
				mt.Orphans++
				continue
			}
			children[pk] = append(children[pk], i)
		}
		// Connectivity: BFS from the root over resolved edges.
		reach := 0
		if mt.Root >= 0 {
			queue := []int{mt.Root}
			for len(queue) > 0 {
				i := queue[0]
				queue = queue[1:]
				reach++
				k := spanKey{mt.Spans[i].Proc, mt.Spans[i].ID}
				queue = append(queue, children[k]...)
			}
		}
		mt.Connected = mt.Root >= 0 && reach == len(mt.Spans)
		m.Orphans += mt.Orphans
		m.Spans += len(mt.Spans)
		m.Traces = append(m.Traces, mt)
	}
	sort.Slice(m.Traces, func(i, j int) bool { return m.Traces[i].Trace < m.Traces[j].Trace })
	return m
}

// spanSig renders the seed-deterministic content of one structural
// span: everything except timestamps, Lamport clocks, and raw IDs
// (which depend on scheduling, not on the seed).
func spanSig(sp mergedSpan) string {
	var b strings.Builder
	b.WriteString(sp.Kind)
	b.WriteString("/ph=")
	b.WriteString(sp.Phase.String())
	b.WriteString("/pc=")
	b.WriteString(strconv.Itoa(int(sp.Piece)))
	if sp.Comp {
		b.WriteString("/comp")
	}
	if sp.Site != "" {
		b.WriteString("/site=")
		b.WriteString(sp.Site)
	}
	if sp.Name != "" {
		b.WriteString("/name=")
		b.WriteString(sp.Name)
	}
	b.WriteString("/proc=")
	b.WriteString(sp.Proc)
	if sp.Kind == SpanTxn {
		if sp.Committed {
			b.WriteString("/ok")
		} else {
			b.WriteString("/aborted")
		}
	}
	return b.String()
}

// ExportCanonicalSpans writes the seed-deterministic span export: only
// structural spans (deterministic IDs — roots, pieces, hops), with
// content signatures in place of timestamps, traces re-identified by
// signature so instance-ID assignment order doesn't leak in. Two runs
// of the same seeded scenario produce byte-identical output; CI diffs
// them with cmp.
func ExportCanonicalSpans(w io.Writer, m *Merged) error {
	type canonTrace struct {
		sig   string
		spans []string
	}
	traces := make([]canonTrace, 0, len(m.Traces))
	for _, mt := range m.Traces {
		var spans []string
		for _, sp := range mt.Spans {
			if !LogicalSpan(sp.Span) {
				continue
			}
			spans = append(spans, spanSig(sp))
		}
		if len(spans) == 0 {
			continue
		}
		sort.Strings(spans)
		traces = append(traces, canonTrace{sig: strings.Join(spans, "|"), spans: spans})
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].sig < traces[j].sig })

	var b strings.Builder
	b.WriteString("{\"spanTraces\":[")
	for i, ct := range traces {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "{\"id\":\"t%d\",\"spans\":[", i)
		for j, s := range ct.spans {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(s))
		}
		b.WriteString("]}")
	}
	fmt.Fprintf(&b, "],\"traces\":%d}\n", len(traces))
	_, err := io.WriteString(w, b.String())
	return err
}

// ExportWallSpans writes the merged trace as Chrome trace-event JSON
// with real wall-clock timestamps: one pid per process, one tid per
// trace, spans as complete events. Load it in chrome://tracing or
// Perfetto.
func ExportWallSpans(w io.Writer, m *Merged) error {
	e := newEmitter()
	procID := make(map[string]int, len(m.Procs))
	for i, p := range m.Procs {
		procID[p] = i + 1
		e.meta("process_name", i+1, 0, "proc "+p)
	}
	var t0 int64
	for _, mt := range m.Traces {
		for _, sp := range mt.Spans {
			if t0 == 0 || (sp.Start > 0 && sp.Start < t0) {
				t0 = sp.Start
			}
		}
	}
	tid := 0
	for _, mt := range m.Traces {
		tid++
		for _, sp := range mt.Spans {
			pid := procID[sp.Proc]
			if pid == 0 {
				pid = 1
			}
			name := sp.Kind
			if sp.Name != "" {
				name = sp.Kind + ":" + sp.Name
			}
			dur := (sp.End - sp.Start) / 1e3
			if dur < 0 {
				dur = 0
			}
			args := fmt.Sprintf(`"trace":%d,"phase":%q,"piece":%d,"site":%q`,
				mt.Trace, sp.Phase.String(), sp.Piece, sp.Site)
			e.span(name, sp.Phase.String(), pid, tid, (sp.Start-t0)/1e3, dur, args)
		}
	}
	return e.finish(w)
}

// emitter accumulates Chrome trace-event JSON objects.
type emitter struct {
	b     strings.Builder
	first bool
}

func newEmitter() *emitter {
	e := &emitter{first: true}
	e.b.WriteString(`{"traceEvents":[`)
	return e
}

func (e *emitter) raw(s string) {
	if !e.first {
		e.b.WriteByte(',')
	}
	e.first = false
	e.b.WriteString(s)
}

// span emits one "X" complete event.
func (e *emitter) span(name, cat string, pid, tid int, ts, dur int64, args string) {
	var b strings.Builder
	b.WriteString(`{"name":`)
	b.WriteString(strconv.Quote(name))
	b.WriteString(`,"cat":`)
	b.WriteString(strconv.Quote(cat))
	b.WriteString(`,"ph":"X","pid":`)
	b.WriteString(strconv.Itoa(pid))
	b.WriteString(`,"tid":`)
	b.WriteString(strconv.Itoa(tid))
	b.WriteString(`,"ts":`)
	b.WriteString(strconv.FormatInt(ts, 10))
	b.WriteString(`,"dur":`)
	b.WriteString(strconv.FormatInt(dur, 10))
	if args != "" {
		b.WriteString(`,"args":{`)
		b.WriteString(args)
		b.WriteByte('}')
	}
	b.WriteByte('}')
	e.raw(b.String())
}

// meta emits one "M" metadata event (process/thread naming).
func (e *emitter) meta(kind string, pid, tid int, name string) {
	e.raw(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":%q,"args":{"name":%q}}`,
		pid, tid, kind, name))
}

func (e *emitter) finish(w io.Writer) error {
	e.b.WriteString("]}\n")
	_, err := io.WriteString(w, e.b.String())
	return err
}
