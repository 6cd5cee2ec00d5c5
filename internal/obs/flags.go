package obs

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// Flags is the shared -spans/-metrics CLI surface every bench command
// registers (cmd/perfbench, distbench, chaosbench, conformance,
// bankbench, distsim, loadbench). All destinations are optional; with
// none set, Build returns a nil plane and the instrumented pipeline
// keeps its zero-cost disabled paths.
type Flags struct {
	// Metrics is the Prometheus exposition listen address (e.g.
	// "127.0.0.1:9090"); empty disables the listener.
	Metrics string
	// MetricsDump is a file to write one final Prometheus exposition
	// snapshot to at stop time (usable without the listener).
	MetricsDump string
	// Ledger turns the plane's ε-provenance ledger on. No flag sets it;
	// a caller that reads the ledger sets it before Build.
	Ledger bool
	// Spans is the canonical (deterministic) merged span export
	// destination; SpansWall is the wall-clock Chrome export. Either
	// enables the distributed span store. CritPath prints the top-N
	// slowest transactions' phase breakdowns (0 disables the report).
	Spans     string
	SpansWall string
	CritPath  int
	// SpanProc names this process's span store in the merge (defaults
	// to "p0"); SpanLimit bounds the ring (0 = DefaultSpanLimit).
	SpanProc  string
	SpanLimit int
	// FlightDump arms the anomaly flight recorder: on the first trigger
	// (chain stall, invariant violation) the recent span tail is dumped
	// to this path ("-" = stderr). StallAfter arms the chain-stall
	// watchdog: any transaction unsettled past this age fires the
	// recorder. Either implies span recording.
	FlightDump string
	StallAfter time.Duration
}

// Register adds the observability flags to fs and returns the struct
// they populate.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Metrics, "metrics", "", "serve Prometheus metrics on this address (e.g. 127.0.0.1:9090)")
	fs.StringVar(&f.MetricsDump, "metricsdump", "", "write a final Prometheus exposition snapshot to file")
	fs.StringVar(&f.Spans, "spans", "", "write canonical (deterministic) merged distributed-span export to file")
	fs.StringVar(&f.SpansWall, "spanswall", "", "write wall-clock merged span Chrome trace-event JSON to file")
	fs.IntVar(&f.CritPath, "criticalpath", 0, "print phase breakdowns for the N slowest transactions (enables span recording)")
	fs.IntVar(&f.SpanLimit, "spanlimit", 0, "bound the per-process span ring (0 = default)")
	fs.StringVar(&f.FlightDump, "flightdump", "", "dump recent spans here on the first anomaly (\"-\" = stderr; enables span recording)")
	fs.DurationVar(&f.StallAfter, "stallafter", 0, "fire the flight recorder when a transaction is unsettled past this age (enables span recording)")
	return f
}

// SpansEnabled reports whether any span consumer was requested.
func (f *Flags) SpansEnabled() bool {
	return f.Spans != "" || f.SpansWall != "" || f.CritPath > 0 ||
		f.FlightDump != "" || f.StallAfter > 0
}

// enabled reports whether any observability consumer was requested.
func (f *Flags) enabled() bool {
	return f.Metrics != "" || f.MetricsDump != "" || f.Ledger || f.SpansEnabled()
}

// Build assembles the requested plane and starts the metrics listener
// if one was asked for. It returns a nil plane (and a no-op stop) when
// nothing was requested. The stop function writes the requested
// exports and shuts the listener down; call it exactly once, after the
// measured work.
func (f *Flags) Build() (*Plane, func() error, error) {
	if !f.enabled() {
		return nil, func() error { return nil }, nil
	}
	var lg *Ledger
	if f.Ledger {
		lg = NewLedger()
	}
	var reg *Registry
	var closeHTTP func() error
	if f.Metrics != "" || f.MetricsDump != "" {
		reg = NewRegistry()
	}
	if f.Metrics != "" {
		addr, closeFn, err := reg.Serve(f.Metrics)
		if err != nil {
			return nil, nil, fmt.Errorf("obs: metrics listener: %w", err)
		}
		closeHTTP = closeFn
		fmt.Fprintf(os.Stderr, "obs: serving metrics on http://%s/metrics\n", addr)
	}
	p := NewPlane(lg, reg)
	stopWatch := func() {}
	if f.SpansEnabled() {
		proc := f.SpanProc
		if proc == "" {
			proc = "p0"
		}
		p.EnableSpans(proc, f.SpanLimit)
		if f.FlightDump != "" || f.StallAfter > 0 {
			p.EnableFlightRecorder(f.FlightDump, 256)
			if f.StallAfter > 0 {
				stopWatch = p.StartStallWatch(f.StallAfter, 0)
			}
		}
	}
	stop := func() error {
		stopWatch()
		var firstErr error
		writeFile := func(path string, write func(f *os.File) error) {
			if path == "" {
				return
			}
			out, err := os.Create(path)
			if err == nil {
				err = write(out)
				if cerr := out.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		writeFile(f.MetricsDump, func(out *os.File) error { return reg.WriteProm(out) })
		if p.Spans != nil {
			m := MergeSpans([]ProcSpans{p.Spans.Dump()})
			writeFile(f.Spans, func(out *os.File) error { return ExportCanonicalSpans(out, m) })
			writeFile(f.SpansWall, func(out *os.File) error { return ExportWallSpans(out, m) })
			fmt.Fprintf(os.Stderr, "obs: spans: %d in %d traces, %.2f%% connected, %d orphaned, %d evicted\n",
				m.Spans, len(m.Traces), 100*m.ConnectedFraction(), m.Orphans, m.Evicted)
			if f.CritPath > 0 {
				r := AnalyzeCriticalPath(m, f.CritPath)
				r.FeedMetrics(reg)
				r.WriteText(os.Stderr)
			}
		}
		if closeHTTP != nil {
			if err := closeHTTP(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	return p, stop, nil
}
