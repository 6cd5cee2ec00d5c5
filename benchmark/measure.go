package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"
)

// metricDef names one metric, its unit and which way is better. bound
// is the share of the reference value by which an end-to-end metric may
// worsen before -compare (and the driver, through BENCHMARK.json) calls
// it a regression; layer metrics have none.
type metricDef struct {
	name        string
	unit        string
	lowerBetter bool
	bound       float64
}

// endToEndDefs are the gated metrics, the same on every workload.
// BENCHMARK.json repeats this table (a test holds the two together).
// A bound is one number per metric, so the noisiest workload sets it,
// and that is dist-wal: its medians follow the shared disk's fsync rate
// and spread 4-12% between runs where the other four workloads stay
// within 1-4%. The bounds are about three times the widest spread
// measured, capped at the driver's 25%.
var endToEndDefs = []metricDef{
	{"settled_tps", "1/s", false, 0.25},
	{"update_p50_us", "us", true, 0.25},
	{"query_p50_us", "us", true, 0.25},
	{"init_p50_us", "us", true, 0.20},
	{"setup_s", "s", true, 0.25},
}

// failFracBound is fail_frac's absolute bound; setupFloorS is the
// absolute slack -compare grants setup_s on top of its relative bound.
const (
	failFracBound = 0.001
	setupFloorS   = 0.5
)

// perLayerDefs are the layer metrics, in report order. A layer the
// workload does not cross reports 0.
var perLayerDefs = []metricDef{
	{name: "transport.encode_ns", unit: "ns", lowerBetter: true},
	{name: "transport.decode_ns", unit: "ns", lowerBetter: true},
	{name: "transport.frame_bytes", unit: "bytes", lowerBetter: true},
	{name: "transport.allocs_per_frame", unit: "count", lowerBetter: true},
	{name: "transport.send_self_us_per_txn", unit: "us", lowerBetter: true},
	{name: "transport.frames_per_txn", unit: "count", lowerBetter: true},
	{name: "queue.msgs_per_frame", unit: "count", lowerBetter: false},
	{name: "queue.roundtrip_ns", unit: "ns", lowerBetter: true},
	{name: "site.async_gap_us", unit: "us", lowerBetter: true},
	{name: "site.gap_residual_us", unit: "us", lowerBetter: true},
	{name: "wal.fsyncs_per_txn", unit: "count", lowerBetter: true},
	{name: "wal.records_per_fsync", unit: "count", lowerBetter: false},
	{name: "wal.bytes_per_txn", unit: "bytes", lowerBetter: true},
	{name: "wal.savequeues_self_ms_per_txn", unit: "ms", lowerBetter: true},
	{name: "lock.acquire_release_ns", unit: "ns", lowerBetter: true},
	{name: "lock.block_ratio", unit: "ratio", lowerBetter: true},
	{name: "lock.deadlocks", unit: "count", lowerBetter: true},
	{name: "dc.absorb_ns", unit: "ns", lowerBetter: true},
	{name: "dc.absorb_ratio", unit: "ratio", lowerBetter: false},
	{name: "rdc.commit_ratio", unit: "ratio", lowerBetter: false},
	{name: "rdc.repaired_ops_per_commit", unit: "count", lowerBetter: true},
	{name: "storage.apply_ns", unit: "ns", lowerBetter: true},
	{name: "storage.get_ns", unit: "ns", lowerBetter: true},
	{name: "core.pieces_per_txn", unit: "count", lowerBetter: false},
	{name: "core.retries_per_commit", unit: "count", lowerBetter: true},
	{name: "chop.analyze_ms", unit: "ms", lowerBetter: true},
	{name: "trace.settled_tps", unit: "1/s", lowerBetter: false},
	{name: "trace.cpu_us_per_txn", unit: "us", lowerBetter: true},
	{name: "trace.unexplained_us_per_txn", unit: "us", lowerBetter: true},
}

// metricValue is one reported number. Percentile and Samples are set on
// tail latencies, whose percentile depends on how many samples there
// were.
type metricValue struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Percentile float64 `json:"percentile,omitempty"`
	Samples    uint64  `json:"samples,omitempty"`
}

// reconcileRow sets one layer's replayed cost beside how often a
// transaction pays it.
type reconcileRow struct {
	Layer string `json:"layer"`
	// Kind is kindCPU for a replayed cost, kindWall for a span's self
	// time.
	Kind      string  `json:"kind"`
	NsPerOp   float64 `json:"ns_per_op"`
	OpsPerTxn float64 `json:"ops_per_txn"`
	UsPerTxn  float64 `json:"us_per_txn"`
}

const (
	kindCPU  = "cpu"
	kindWall = "wall"
)

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Load states the loop: clients or rate.
	Load string `json:"load"`
	// Seconds is the untraced pass's timed window as run; TracedSeconds
	// the traced pass's.
	Seconds       float64 `json:"seconds"`
	TracedSeconds float64 `json:"traced_seconds"`
	Offered       int     `json:"offered"`
	Settled       int     `json:"settled"`
	Failed        int     `json:"failed"`
	Shed          int     `json:"shed"`
	// EndToEnd holds the gated metrics (from the untraced pass) plus
	// fail_frac; Reported the ungated ones; PerLayer the traced pass and
	// the replays.
	EndToEnd      map[string]metricValue `json:"end_to_end,omitempty"`
	Reported      map[string]metricValue `json:"reported,omitempty"`
	PerLayer      map[string]metricValue `json:"per_layer,omitempty"`
	TraceOverhead *float64               `json:"trace_overhead,omitempty"`
	SpansRecorded int                    `json:"spans_recorded,omitempty"`
	SpansDropped  int64                  `json:"spans_dropped,omitempty"`
	Reconcile     []reconcileRow         `json:"reconcile,omitempty"`
}

// runOpts sizes one measurement.
type runOpts struct {
	seed int64
	// untraced and traced are the two passes' timed windows; 0 skips
	// the pass.
	untraced, traced time.Duration
	smoke            bool
	// tmp is where a WAL workload makes its directory.
	tmp string
	// spanSink, when non-nil, receives the traced pass's spans.
	spanSink func(workload string, spans []span) error
}

// setupRepeats is how many times the untraced pass sets up: setup_s is
// the median, because one set-up is short enough for a scheduler hiccup
// to double.
const setupRepeats = 3

// live is a set-up workload ready to be timed.
type live struct {
	in  *inputs
	tgt target
	tr  *tracer
	// analyzeMs is the off-line analysis time inside set-up.
	analyzeMs float64
}

// setUp generates the inputs, builds the system and warms it up.
func setUp(ctx context.Context, def workloadDef, o runOpts, window time.Duration, traced bool) (*live, error) {
	in, err := genInputs(def, o.seed, window)
	if err != nil {
		return nil, err
	}
	l := &live{in: in}
	if traced {
		l.tr = newTracer(traceCap)
	}
	if def.dist {
		t, err := openDist(def, in, l.tr, o.tmp)
		if err != nil {
			return nil, err
		}
		l.tgt, l.analyzeMs = t, t.registerMs
	} else {
		t, err := openLocal(def, in)
		if err != nil {
			return nil, err
		}
		l.tgt, l.analyzeMs = t, t.analyzeMs
	}
	warm := def.warmup
	if o.smoke {
		warm /= 10
	}
	warmUp(ctx, l.tgt, in, warm)
	return l, nil
}

// onePass sets the workload up, times one pass over it, audits and
// tears down; then it sets up and tears down repeats-1 more times, for
// the set-up timings only. The extra set-ups come after the pass
// because before it they disturbed it: three WAL directories made and
// removed ahead of dist-wal's pass cost it a fifth of its throughput.
// It returns the pass, the set-up times and the live handle (closed)
// for its inputs and tracer.
func onePass(ctx context.Context, def workloadDef, o runOpts, window, mark time.Duration, traced bool, repeats int) (*passResult, []float64, *live, error) {
	timedSetUp := func() (*live, float64, error) {
		// Collect first and hand freed pages back, so that earlier garbage
		// is neither collected on this set-up's clock nor counted in this
		// pass's rss_mb.
		debug.FreeOSMemory()
		t0 := time.Now()
		l, err := setUp(ctx, def, o, window, traced)
		return l, time.Since(t0).Seconds(), err
	}
	l, first, err := timedSetUp()
	if err != nil {
		return nil, nil, nil, err
	}
	setups := []float64{first}
	pass := runPass(ctx, def, l.in, l.tgt, window, mark, l.tr)
	err = l.tgt.audit()
	l.tgt.close()
	if l.tr != nil {
		l.tr.stop()
	}
	if err != nil {
		return pass, setups, l, fmt.Errorf("audit: %w", err)
	}
	for rep := 1; rep < repeats; rep++ {
		again, took, err := timedSetUp()
		if err != nil {
			return nil, nil, nil, err
		}
		again.tgt.close()
		setups = append(setups, took)
	}
	return pass, setups, l, nil
}

// measure runs def's passes and replays and assembles its result. A
// failed audit is an error: the numbers of an incorrect run mean
// nothing.
func measure(ctx context.Context, def workloadDef, o runOpts) (*workloadResult, error) {
	res := &workloadResult{Name: def.name, Why: def.why, Load: def.load()}
	counts := func(p *passResult) {
		res.Offered, res.Settled, res.Failed, res.Shed = p.offered, p.settled, p.failed(), p.shed
	}
	var untracedTPS float64 // over the stretch the traced pass also covers
	if o.untraced > 0 {
		mark := min(o.traced, o.untraced)
		pass, setups, _, err := onePass(ctx, def, o, o.untraced, mark, false, setupRepeats)
		if err != nil {
			return nil, err
		}
		res.Seconds = pass.elapsed.Seconds()
		counts(pass)
		res.EndToEnd, res.Reported = endToEnd(pass, medianFloat(setups))
		if mark > 0 {
			untracedTPS = float64(pass.settledByMark) / mark.Seconds()
		}
	}
	if o.traced > 0 {
		pass, _, l, err := onePass(ctx, def, o, o.traced, o.traced, true, 1)
		if err != nil {
			return nil, err
		}
		res.TracedSeconds = pass.elapsed.Seconds()
		if o.untraced == 0 {
			counts(pass)
		}
		spans := l.tr.spans()
		res.SpansRecorded, res.SpansDropped = len(spans), l.tr.dropped.Load()
		if o.spanSink != nil {
			if err := o.spanSink(def.name, spans); err != nil {
				return nil, err
			}
		}
		totals := totalsOf(spans)
		l.tr.release()
		rep, err := runReplays(def, l.in, o.smoke)
		if err != nil {
			return nil, err
		}
		res.PerLayer, res.Reconcile = perLayer(def, l, pass, o.traced, totals, rep)
		if untracedTPS > 0 {
			overhead := 1 - res.PerLayer["trace.settled_tps"].Value/untracedTPS
			res.TraceOverhead = &overhead
		}
	}
	return res, nil
}

// load states the workload's loop for the report.
func (d workloadDef) load() string {
	if d.rate > 0 {
		return fmt.Sprintf("open loop, Poisson %.0f/s, in-flight cap %d", d.rate, openInFlightCap)
	}
	return fmt.Sprintf("closed loop, %d clients", d.clients)
}

// endToEnd derives the gated and the reported-only metrics of a pass.
func endToEnd(p *passResult, setupS float64) (gated, reported map[string]metricValue) {
	p50 := func(h *hist) metricValue {
		return metricValue{Value: h.percentile(50) / 1e3, Unit: "us", Samples: h.n}
	}
	gated = map[string]metricValue{
		"settled_tps":   {Value: float64(p.settled) / p.elapsed.Seconds(), Unit: "1/s"},
		"update_p50_us": p50(&p.update),
		"query_p50_us":  p50(&p.query),
		"init_p50_us":   p50(&p.init),
		"setup_s":       {Value: setupS, Unit: "s"},
		"fail_frac":     {Value: float64(p.failed()) / float64(max(p.offered, 1)), Unit: "ratio"},
	}
	tail := func(h *hist) metricValue {
		pc := tailPercentile(h.n)
		return metricValue{Value: h.percentile(pc) / 1e3, Unit: "us", Percentile: pc, Samples: h.n}
	}
	reported = map[string]metricValue{
		"update_p99_us": tail(&p.update),
		"query_p99_us":  tail(&p.query),
		"init_p99_us":   tail(&p.init),
		"rss_mb":        {Value: p.rssMB, Unit: "MB"},
	}
	if p.genLate.n > 0 {
		reported["gen_late_p99_us"] = tail(&p.genLate)
	}
	return gated, reported
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the layer metrics of a traced pass and its replays,
// and the reconciliation of replayed layer cost against the CPU time a
// transaction actually took.
func perLayer(def workloadDef, l *live, p *passResult, window time.Duration, totals spanTotals, rep replayResult) (map[string]metricValue, []reconcileRow) {
	txns := float64(p.settled)
	roots := float64(totals.count[spanSubmit]) // transactions the span buffer saw
	b, a := p.before, p.after
	netSent := float64(a.net.Sent - b.net.Sent)
	netDelivered := float64(a.net.Delivered - b.net.Delivered)
	netPayloads := float64(a.net.Payloads - b.net.Payloads)
	fsyncs := float64(a.fsyncs - b.fsyncs)
	lockReqs := float64((a.lock.Grants + a.lock.FuzzyGrants + a.lock.Blocks + a.lock.Deadlocks) -
		(b.lock.Grants + b.lock.FuzzyGrants + b.lock.Blocks + b.lock.Deadlocks))
	absorbed := float64(a.dc.Absorbed - b.dc.Absorbed)
	arbitrated := absorbed + float64(a.dc.Refused-b.dc.Refused)
	commits := float64(a.rdc.Commits - b.rdc.Commits)

	pieces, updatePieces := l.piecesPerTxn()
	v := map[string]float64{
		"transport.encode_ns":         rep.encodeNs,
		"transport.decode_ns":         rep.decodeNs,
		"transport.frame_bytes":       rep.frameBytes,
		"transport.allocs_per_frame":  rep.allocsPerFrame,
		"transport.frames_per_txn":    ratio(netSent, txns),
		"queue.msgs_per_frame":        ratio(netPayloads, netDelivered),
		"queue.roundtrip_ns":          rep.queueRoundtripNs,
		"lock.acquire_release_ns":     rep.lockAcquireReleaseNs,
		"lock.block_ratio":            ratio(float64(a.lock.Blocks-b.lock.Blocks), lockReqs),
		"lock.deadlocks":              float64(a.lock.Deadlocks - b.lock.Deadlocks),
		"dc.absorb_ns":                rep.dcAbsorbNs,
		"dc.absorb_ratio":             ratio(absorbed, arbitrated),
		"rdc.commit_ratio":            ratio(commits, commits+float64(a.rdc.Aborts-b.rdc.Aborts)),
		"rdc.repaired_ops_per_commit": ratio(float64(a.rdc.RepairedOps-b.rdc.RepairedOps), commits),
		"storage.apply_ns":            rep.storeApplyNs,
		"storage.get_ns":              rep.storeGetNs,
		"core.pieces_per_txn":         pieces,
		"core.retries_per_commit":     ratio(float64(a.retries-b.retries), txns),
		"chop.analyze_ms":             l.analyzeMs,
		"trace.settled_tps":           float64(p.settledByMark) / window.Seconds(),
		"trace.cpu_us_per_txn":        ratio(float64(p.cpu)/1e3, txns),
	}
	if def.dist {
		v["transport.send_self_us_per_txn"] = ratio(float64(totals.selfNs[spanSend])/1e3, roots)
		v["site.async_gap_us"] = (p.update.percentile(50) - p.init.percentile(50)) / 1e3
	}
	if def.wal {
		v["wal.fsyncs_per_txn"] = ratio(fsyncs, txns)
		v["wal.records_per_fsync"] = ratio(float64(a.fsyncRecords-b.fsyncRecords), fsyncs)
		v["wal.bytes_per_txn"] = ratio(float64(a.walBytes-b.walBytes), txns)
		v["wal.savequeues_self_ms_per_txn"] = ratio(float64(totals.selfNs[spanSaveQueues])/1e6, roots)
	}

	// Reconciliation. CPU rows: a replayed layer's ns/op times how many
	// of its ops a transaction made, summed and set beside the process
	// CPU a transaction really cost. Wall rows: a seam span's self time,
	// which is mostly waiting (fsync, a full send queue) and adds up with
	// nothing; they are listed, not summed. Send contains the encode.
	var rows []reconcileRow
	var cpuExplained, gapPath float64
	add := func(layer, kind string, onSettlePath bool, nsPerOp, opsPerTxn float64) {
		if nsPerOp <= 0 || opsPerTxn <= 0 {
			return
		}
		us := nsPerOp * opsPerTxn / 1e3
		rows = append(rows, reconcileRow{layer, kind, nsPerOp, opsPerTxn, us})
		if kind == kindCPU {
			cpuExplained += us
		}
		if onSettlePath {
			gapPath += us
		}
	}
	spanRow := func(layer string, name uint8, onSettlePath bool) {
		add(layer, kindWall, onSettlePath, ratio(float64(totals.selfNs[name]), float64(totals.count[name])),
			ratio(float64(totals.count[name]), roots))
	}
	add("transport.encode", kindCPU, true, rep.encodeNs, ratio(netSent, txns))
	add("transport.decode", kindCPU, true, rep.decodeNs, ratio(netDelivered, txns))
	add("queue.roundtrip", kindCPU, true, rep.queueRoundtripNs, ratio(netPayloads, txns))
	add("lock.acquire_release", kindCPU, false, rep.lockAcquireReleaseNs, ratio(lockReqs, txns))
	add("dc.absorb", kindCPU, false, rep.dcAbsorbNs, ratio(arbitrated, txns))
	add("storage.get", kindCPU, false, rep.storeGetNs, l.in.opsPerTxn())
	add("storage.apply", kindCPU, false, rep.storeApplyNs, updatePieces)
	spanRow("submit", spanSubmit, false)
	spanRow("transport.send", spanSend, false)
	spanRow("wal.savequeues", spanSaveQueues, def.wal)
	spanRow("wal.checkpoint", spanCheckpoint, false)
	v["trace.unexplained_us_per_txn"] = v["trace.cpu_us_per_txn"] - cpuExplained
	if def.dist {
		// What of the asynchrony gap the codec, queue and durability work
		// on the settle path does not account for: waiting in coalescing
		// windows, timers and run queues, which no replay can see.
		v["site.gap_residual_us"] = v["site.async_gap_us"] - gapPath
	}

	out := make(map[string]metricValue, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
	}
	return out, rows
}

// opsPerTxn returns the mean number of operations per scheduled
// transaction.
func (in *inputs) opsPerTxn() float64 {
	var nOps int
	for _, ti := range in.sched[0] {
		nOps += len(in.w.Programs[ti].Ops)
	}
	return float64(nOps) / float64(len(in.sched[0]))
}

// piecesPerTxn is the mean piece count of a scheduled transaction, and
// the mean count of its pieces that commit a write batch: the runner's
// prepared chopping for local workloads, the site-boundary chopping for
// distributed ones.
func (l *live) piecesPerTxn() (pieces, updatePieces float64) {
	n := len(l.in.w.Programs)
	all, upd := make([]int, n), make([]int, n)
	for ti, p := range l.in.w.Programs {
		if lt, ok := l.tgt.(*localTarget); ok {
			for _, v := range lt.r.Set().TxnPieces(ti) {
				all[ti]++
				if lt.r.Set().Piece(v).UpdatePiece {
					upd[ti]++
				}
			}
			continue
		}
		// Every site piece, reads included, journals its applied-marker.
		all[ti] = sitePieces(p)
		upd[ti] = all[ti]
	}
	var nAll, nUpd int
	for _, ti := range l.in.sched[0] {
		nAll += all[ti]
		nUpd += upd[ti]
	}
	sched := float64(len(l.in.sched[0]))
	return float64(nAll) / sched, float64(nUpd) / sched
}
