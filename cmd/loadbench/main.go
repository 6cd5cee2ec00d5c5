// Command loadbench drives the YCSB-style open-loop load rig against a
// chopped-transaction cluster — in one process (simnet or TCP loopback)
// or as one OS process per site wired through the real TCP transport.
//
// The workload is a declared program table (Zipfian key skew, read/
// update mix, conserving transfers) built identically in every process
// from the shared seed; arrivals are Poisson (open loop, with shedding
// beyond -maxinflight) or a closed worker loop. Scenario scripts
// (baseline, degraded, partition, high-load) set the wire knobs and a
// timed fault schedule. Every run ends with a settlement audit: queues
// quiesce, the cluster-wide record total must equal the seeded total.
//
// With -tenants N the rig instead stands up the multi-tenant serving
// layer (internal/tenant) in one process: N key-disjoint tenants over
// partition-parallel runners, tenant-selection skew set by -skew, and
// per-tenant admission budgets (-tenantrate, -tenanteps) deciding how
// much hot-tenant overflow is served degraded (spending ε on stale
// reads) before shedding. The stderr report folds in the observability
// plane's per-tenant admitted/degraded/shed/ε breakdown.
//
// The JSON report uses the perfbench schema, so CI gates it with
// `perfbench -compare BENCH_net.json new.json`.
//
// Usage:
//
//	loadbench -quick -out load.json                # in-process simnet
//	loadbench -net tcp -scenarios baseline         # in-process TCP loopback
//	loadbench -multi -txns 1000000 -mode closed    # one OS process per site
//	loadbench -tenants 16 -skew 0.99 -rate 800 \
//	          -tenantrate 30 -tenanteps 100000     # serving-layer mode
//	perfbench -compare BENCH_net.json load.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"asynctp/internal/fault"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/simnet"
	"asynctp/internal/site"
	"asynctp/internal/storage"
	"asynctp/internal/transport"
	"asynctp/internal/workload"
)

// Environment variables carrying a child process's parameters. The
// child is this same binary re-executed (the kill9 pattern): main
// diverts on ASYNCTP_LOAD_CHILD before flag parsing.
const (
	envChild = "ASYNCTP_LOAD_CHILD"
	envSite  = "ASYNCTP_LOAD_SITE"
	envAddrs = "ASYNCTP_LOAD_ADDRS" // site=host:port, comma-separated
	envCfg   = "ASYNCTP_LOAD_CFG"   // sharedConfig JSON
)

// sharedConfig is everything parent and children must agree on; it
// rides one env var as JSON so the program tables, placement, and
// arrival draws are built identically in every process.
type sharedConfig struct {
	Records        int      `json:"records"`
	Sites          []string `json:"sites"`
	Theta          float64  `json:"theta"`
	ReadFraction   float64  `json:"read_fraction"`
	ProgramTypes   int      `json:"program_types"`
	ReadSpan       int      `json:"read_span"`
	TransferAmount int64    `json:"transfer_amount"`
	InitialBalance int64    `json:"initial_balance"`
	Epsilon        int64    `json:"epsilon"`
	Seed           int64    `json:"seed"`

	Mode        string  `json:"mode"` // open | closed
	Rate        float64 `json:"rate"` // per-process arrivals/sec (open)
	Txns        int     `json:"txns"` // per-process arrivals to offer
	Workers     int     `json:"workers"`
	MaxInFlight int     `json:"max_in_flight"`
	Scenario    string  `json:"scenario"`

	// Spans turns on the child's span store (proc = site ID); the dump
	// ships back over the SPANS barrier for the parent to merge.
	// MetricsDump, when set, makes each child write one Prometheus
	// snapshot to MetricsDump+"."+site before the EXIT barrier.
	// StallAfterNS arms the child's chain-stall flight recorder.
	Spans        bool   `json:"spans,omitempty"`
	SpanLimit    int    `json:"span_limit,omitempty"`
	MetricsDump  string `json:"metrics_dump,omitempty"`
	StallAfterNS int64  `json:"stall_after_ns,omitempty"`
}

func (sc sharedConfig) siteIDs() []simnet.SiteID {
	ids := make([]simnet.SiteID, len(sc.Sites))
	for i, s := range sc.Sites {
		ids[i] = simnet.SiteID(s)
	}
	return ids
}

func (sc sharedConfig) workload() (*workload.Workload, error) {
	return workload.NewYCSB(workload.YCSBConfig{
		Records:        sc.Records,
		Sites:          sc.siteIDs(),
		Theta:          sc.Theta,
		ReadFraction:   sc.ReadFraction,
		ProgramTypes:   sc.ProgramTypes,
		ReadSpan:       sc.ReadSpan,
		TransferAmount: metric.Value(sc.TransferAmount),
		InitialBalance: metric.Value(sc.InitialBalance),
		Epsilon:        metric.Fuzz(sc.Epsilon),
		Seed:           sc.Seed,
	})
}

// Result is one measured (suite, variant, workers) cell in the
// perfbench schema; suite/variant/workers key the -compare gate, tps is
// the gated metric, and the trailing fields carry the open-loop
// accounting (perfbench ignores fields it does not know).
type Result struct {
	Suite   string  `json:"suite"` // load-open | load-closed
	Variant string  `json:"variant"`
	Workers int     `json:"workers"`
	Txns    int     `json:"txns"` // offered arrivals
	TPS     float64 `json:"tps"`  // committed/sec (settlement)
	P50us   float64 `json:"p50_us"`
	P99us   float64 `json:"p99_us"`
	// InitP50us/InitP99us are initiation-latency percentiles — the
	// user-visible latency the paper's chopping is supposed to shrink.
	InitP50us   float64 `json:"init_p50_us"`
	InitP99us   float64 `json:"init_p99_us"`
	Started     int     `json:"started"`
	Shed        int     `json:"shed"`
	Committed   int     `json:"committed"`
	RolledBack  int     `json:"rolledback"`
	Errors      int     `json:"errors"`
	Procs       int     `json:"procs"`
	Net         string  `json:"net"` // sim | tcp | tcp-multi | local
	OfferedRate float64 `json:"offered_rate"`
	Conserved   bool    `json:"conserved"`
	// Degraded/EpsCharged carry the -tenants mode's ε-spend shedding
	// accounting (zero elsewhere).
	Degraded   int   `json:"degraded,omitempty"`
	EpsCharged int64 `json:"eps_charged,omitempty"`
}

// File is the serialized report (perfbench-compatible superset).
type File struct {
	Schema  string    `json:"schema"`
	Date    time.Time `json:"date"`
	GOOS    string    `json:"goos"`
	GOARCH  string    `json:"goarch"`
	CPUs    int       `json:"cpus"`
	Quick   bool      `json:"quick"`
	Mode    string    `json:"mode"`
	Net     string    `json:"net"`
	Results []Result  `json:"results"`
}

func main() {
	if os.Getenv(envChild) == "1" {
		if err := childMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "loadbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	scenariosArg := fs.String("scenarios", "baseline", "comma-separated scenarios: baseline,degraded,partition,high-load")
	mode := fs.String("mode", "open", "arrival process: open (Poisson) or closed (worker loop)")
	netKind := fs.String("net", "sim", "wire for single-process runs: sim or tcp (loopback)")
	multi := fs.Bool("multi", false, "one OS process per site over real TCP (overrides -net)")
	rate := fs.Float64("rate", 20000, "open-loop offered arrivals/sec (total, split across processes)")
	txns := fs.Int("txns", 0, "arrivals to offer per scenario (0 = 20000, or 4000 with -quick)")
	workers := fs.Int("workers", 32, "closed-loop workers (total, split across processes)")
	maxInFlight := fs.Int("maxinflight", 4096, "open-loop in-flight cap per process; beyond it arrivals shed")
	records := fs.Int("records", 0, "YCSB records (0 = 2000, or 500 with -quick)")
	theta := fs.Float64("theta", 0.9, "Zipfian skew in [0,1)")
	readFrac := fs.Float64("readfrac", 0.25, "fraction of program types that are span reads")
	types := fs.Int("types", 64, "program-table size")
	span := fs.Int("span", 4, "records per read program")
	amount := fs.Int64("amount", 5, "max transfer delta")
	balance := fs.Int64("balance", 1000, "initial balance per record")
	epsilon := fs.Int64("epsilon", 1_000_000, "ε-spec for the program table")
	sitesArg := fs.String("sites", "NY,LA,CHI", "comma-separated site IDs")
	seed := fs.Int64("seed", 42, "table + arrival RNG seed")
	quick := fs.Bool("quick", false, "CI mode: smaller stream")
	out := fs.String("out", "", "write JSON report to this file (default stdout)")
	nTenants := fs.Int("tenants", 0, "run the multi-tenant serving layer with this many tenants instead of the cluster rig")
	parts := fs.Int("parts", 8, "partitions for -tenants mode (capped at the tenant count)")
	skew := fs.Float64("skew", 0.99, "tenant-selection Zipfian skew for -tenants mode")
	tenantRate := fs.Float64("tenantrate", 0, "per-tenant admitted txn/s budget for -tenants mode (0 = unlimited)")
	tenantEps := fs.Float64("tenanteps", 0, "per-tenant ε/s degrade allowance for -tenants mode (0 = unlimited)")
	spanGate := fs.Float64("spangate", 0, "fail unless at least this fraction of span trees merge fully connected (0 disables)")
	obsFlags := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	nTxns, nRecords := 20000, 2000
	if *quick {
		nTxns, nRecords = 4000, 500
	}
	if *txns > 0 {
		nTxns = *txns
	}
	if *records > 0 {
		nRecords = *records
	}
	switch *mode {
	case "open", "closed":
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	switch *netKind {
	case "sim", "tcp":
	default:
		return fmt.Errorf("unknown net %q", *netKind)
	}
	var sites []string
	for _, s := range strings.Split(*sitesArg, ",") {
		if s = strings.TrimSpace(s); s != "" {
			sites = append(sites, s)
		}
	}
	if len(sites) < 1 {
		return fmt.Errorf("need at least one site")
	}

	shared := sharedConfig{
		Records:        nRecords,
		Sites:          sites,
		Theta:          *theta,
		ReadFraction:   *readFrac,
		ProgramTypes:   *types,
		ReadSpan:       *span,
		TransferAmount: *amount,
		InitialBalance: *balance,
		Epsilon:        *epsilon,
		Seed:           *seed,
		Mode:           *mode,
		Rate:           *rate,
		Txns:           nTxns,
		Workers:        *workers,
		MaxInFlight:    *maxInFlight,
	}
	wire := *netKind
	if *multi {
		wire = "tcp-multi"
	}
	// In multi mode span recording happens in the children (one store
	// per OS process); the parent merges their dumps over the SPANS
	// barrier and writes the exports itself. Strip the span and
	// metricsdump destinations from the parent's plane so stopObs does
	// not overwrite them with an empty single-process merge.
	spanOut := *obsFlags
	if *multi {
		shared.Spans = obsFlags.SpansEnabled()
		shared.SpanLimit = obsFlags.SpanLimit
		shared.MetricsDump = obsFlags.MetricsDump
		shared.StallAfterNS = int64(obsFlags.StallAfter)
		obsFlags.Spans, obsFlags.SpansWall, obsFlags.CritPath = "", "", 0
		obsFlags.FlightDump, obsFlags.StallAfter = "", 0
		obsFlags.MetricsDump = ""
	}
	plane, stopObs, err := obsFlags.Build()
	if err != nil {
		return err
	}
	defer func() {
		if oerr := stopObs(); oerr != nil {
			fmt.Fprintln(os.Stderr, "loadbench: obs:", oerr)
		}
	}()
	if *nTenants > 0 {
		wire = "local"
	}
	file := &File{
		Schema: "asynctp/perfbench/v1",
		Date:   time.Now().UTC(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Quick:  *quick,
		Mode:   *mode,
		Net:    wire,
	}
	if *nTenants > 0 {
		// Multi-tenant serving-layer mode: the per-tenant breakdown in
		// plane.Summary() is part of the report, so a plane is always
		// built even when no -spans/-metrics destination was requested.
		if plane == nil {
			plane = obs.NewPlane(nil, obs.NewRegistry())
		}
		row, err := runTenantsMode(tenantsConfig{
			Tenants:     *nTenants,
			Partitions:  *parts,
			Skew:        *skew,
			Epsilon:     metric.Fuzz(*epsilon),
			Rate:        *tenantRate,
			EpsRate:     *tenantEps,
			Mode:        *mode,
			OfferedRate: *rate,
			Txns:        nTxns,
			Workers:     *workers,
			MaxInFlight: *maxInFlight,
			Seed:        *seed,
		}, plane)
		if err != nil {
			return err
		}
		if !row.Conserved {
			return fmt.Errorf("tenants mode: value not conserved — measurement void")
		}
		file.Results = append(file.Results, row)
		fmt.Fprintf(os.Stderr, "%-12s %-10s procs=%d %9.0f txn/s  p50=%7.0fµs p99=%7.0fµs  offered=%d degraded=%d shed=%d ε=%d\n",
			row.Suite, row.Variant, row.Procs, row.TPS, row.P50us, row.P99us, row.Txns, row.Degraded, row.Shed, row.EpsCharged)
		reportSummary(plane)
		return writeReport(file, *out)
	}
	var spanDumps []obs.ProcSpans
	for _, name := range strings.Split(*scenariosArg, ",") {
		sc, err := workload.ScenarioByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		shared.Scenario = sc.Name
		var row Result
		if *multi {
			var dumps []obs.ProcSpans
			row, dumps, err = runMulti(shared, sc)
			if dumps != nil {
				// With several scenarios the instance sequences restart
				// per run, so only one scenario's dumps can merge; the
				// last wins (CI runs a single scenario).
				spanDumps = dumps
			}
		} else {
			row, err = runLocal(shared, sc, *netKind, plane)
		}
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		if !row.Conserved {
			return fmt.Errorf("scenario %s: value not conserved — measurement void", sc.Name)
		}
		file.Results = append(file.Results, row)
		fmt.Fprintf(os.Stderr, "%-12s %-10s procs=%d %9.0f txn/s  settle p50=%7.0fµs p99=%7.0fµs  offered=%d shed=%d\n",
			row.Suite, row.Variant, row.Procs, row.TPS, row.P50us, row.P99us, row.Txns, row.Shed)
	}
	if *multi && shared.Spans {
		if err := exportMergedSpans(spanOut, spanDumps, *spanGate); err != nil {
			return err
		}
	} else if *spanGate > 0 && plane.SpansOn() {
		m := obs.MergeSpans([]obs.ProcSpans{plane.Spans.Dump()})
		if err := checkSpanGate(m, *spanGate); err != nil {
			return err
		}
	}
	reportSummary(plane)
	return writeReport(file, *out)
}

// exportMergedSpans merges the child span dumps into the canonical
// cross-process trace, writes the requested exports, reports the
// connectivity/orphan accounting on stderr, and applies the -spangate
// connectivity floor.
func exportMergedSpans(spanOut obs.Flags, dumps []obs.ProcSpans, gate float64) error {
	m := obs.MergeSpans(dumps)
	write := func(path string, export func(io.Writer, *obs.Merged) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := export(f, m); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(spanOut.Spans, obs.ExportCanonicalSpans); err != nil {
		return err
	}
	if err := write(spanOut.SpansWall, obs.ExportWallSpans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spans: %d merged from %d procs, %d traces, %.2f%% connected, %d orphaned, %d evicted\n",
		m.Spans, len(m.Procs), len(m.Traces), 100*m.ConnectedFraction(), m.Orphans, m.Evicted)
	if spanOut.CritPath > 0 {
		obs.AnalyzeCriticalPath(m, spanOut.CritPath).WriteText(os.Stderr)
	}
	return checkSpanGate(m, gate)
}

// checkSpanGate fails the run when the fully-connected span-tree
// fraction is below the gate (a CI floor on trace propagation).
func checkSpanGate(m *obs.Merged, gate float64) error {
	if gate <= 0 {
		return nil
	}
	if frac := m.ConnectedFraction(); frac < gate {
		return fmt.Errorf("spangate: %.4f of %d span trees fully connected, need %.4f (%d orphans, %d evicted)",
			frac, len(m.Traces), gate, m.Orphans, m.Evicted)
	}
	return nil
}

// reportSummary folds the observability plane's headline counters —
// including the per-tenant admitted/degraded/shed/ε breakdown when the
// serving layer ran — into the stderr report. Nil-safe.
func reportSummary(plane *obs.Plane) {
	for _, line := range plane.Summary() {
		fmt.Fprintln(os.Stderr, "obs:", line)
	}
}

func writeReport(file *File, out string) error {
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// ---------------------------------------------------------------------
// Single-process runs (simnet or TCP loopback)
// ---------------------------------------------------------------------

func runLocal(shared sharedConfig, sc workload.Scenario, netKind string, plane *obs.Plane) (Result, error) {
	w, err := shared.workload()
	if err != nil {
		return Result{}, err
	}
	cfg := site.Config{
		Strategy:          site.ChoppedQueues,
		Placement:         workload.YCSBPlacement,
		Initial:           workload.SplitInitial(w.Initial, workload.YCSBPlacement),
		RetransmitEvery:   5 * time.Millisecond,
		AllowCompensation: true,
		Seed:              shared.Seed,
		Latency:           sc.Latency,
		Jitter:            sc.Jitter,
		LossRate:          sc.LossRate,
		Obs:               plane,
	}
	if netKind == "tcp" {
		listen := make(map[simnet.SiteID]string, len(shared.Sites))
		for _, id := range shared.siteIDs() {
			listen[id] = "127.0.0.1:0"
		}
		cfg.Net = transport.New(transport.Config{
			Listen:   listen,
			LossRate: sc.LossRate,
			Latency:  sc.Latency,
			Jitter:   sc.Jitter,
			Seed:     shared.Seed,
		})
	}
	c, err := site.NewCluster(cfg)
	if err != nil {
		return Result{}, err
	}
	defer c.Close()
	if err := c.RegisterPrograms(w.Programs); err != nil {
		return Result{}, err
	}
	var sched *fault.Schedule
	if sc.Script != nil {
		sched = sc.Script(shared.Seed, shared.siteIDs())
		sched.Run(c)
		defer sched.Stop()
	}
	all := make([]int, len(w.Programs))
	for i := range all {
		all[i] = i
	}
	res, err := runArrivals(c, shared, sc, all, shared.Txns, shared.Rate*sc.RateFactor, shared.Workers)
	if err != nil {
		return Result{}, err
	}
	if sched != nil {
		sched.Stop()
	}
	total, err := quiesceAndSum(c, shared.siteIDs())
	if err != nil {
		return Result{}, err
	}
	row := rowFrom(shared, sc, res, 1, netKind)
	row.Conserved = total == w.Total()
	return row, nil
}

func runArrivals(sub workload.Submitter, shared sharedConfig, sc workload.Scenario, programs []int, txns int, rate float64, workers int) (*workload.ArrivalResult, error) {
	acfg := workload.ArrivalConfig{
		Total:       txns,
		Programs:    programs,
		Seed:        shared.Seed,
		MaxInFlight: shared.MaxInFlight,
	}
	if shared.Mode == "open" {
		acfg.Mode = workload.OpenLoop
		acfg.Rate = rate
	} else {
		acfg.Mode = workload.ClosedLoop
		acfg.Workers = workers
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
	defer cancel()
	return workload.RunArrivals(ctx, sub, acfg)
}

// quiesceAndSum waits for every local site's queues to drain (stable
// across consecutive polls, so a remote retransmit arriving between
// checks restarts the clock) and returns the cluster-wide record total,
// skipping the sites' "__"-prefixed exactly-once logs.
func quiesceAndSum(c *site.Cluster, sites []simnet.SiteID) (metric.Value, error) {
	deadline := time.Now().Add(60 * time.Second)
	stable := 0
	for stable < 3 {
		idle := true
		for _, id := range sites {
			if s := c.Site(id); s != nil && !s.QueuesIdle() {
				idle = false
			}
		}
		if idle {
			stable++
		} else {
			stable = 0
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("queues did not quiesce")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var total metric.Value
	for _, id := range sites {
		s := c.Site(id)
		if s == nil {
			continue
		}
		for _, k := range s.Store.Keys() {
			if strings.HasPrefix(string(k), "__") {
				continue
			}
			total += s.Store.Get(k)
		}
	}
	return total, nil
}

func rowFrom(shared sharedConfig, sc workload.Scenario, res *workload.ArrivalResult, procs int, wire string) Result {
	return Result{
		Suite:       "load-" + shared.Mode,
		Variant:     sc.Name,
		Workers:     shared.Workers,
		Txns:        res.Offered,
		TPS:         res.ThroughputTPS,
		P50us:       float64(res.Settlement.Percentile(50).Microseconds()),
		P99us:       float64(res.Settlement.Percentile(99).Microseconds()),
		InitP50us:   float64(res.Initiation.Percentile(50).Microseconds()),
		InitP99us:   float64(res.Initiation.Percentile(99).Microseconds()),
		Started:     res.Started,
		Shed:        res.Shed,
		Committed:   res.Committed,
		RolledBack:  res.RolledBack,
		Errors:      res.Errors,
		Procs:       procs,
		Net:         wire,
		OfferedRate: shared.Rate * sc.RateFactor,
	}
}

// ---------------------------------------------------------------------
// Multi-process runs: one OS process per site, real TCP between them
// ---------------------------------------------------------------------

// childReport is what each site process sends back over the RESULT
// line: its arrival accounting plus the post-quiesce local ledger sum
// (the parent checks global conservation as Σ local sums).
type childReport struct {
	Offered, Started, Shed                     int
	Committed, RolledBack, Compensated, Errors int
	ElapsedNS                                  int64
	InitP50us, InitP99us                       float64
	SettleP50us, SettleP99us                   float64
	LocalSum                                   int64
}

// childProc is the parent's handle on one spawned site process.
type childProc struct {
	site  simnet.SiteID
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string
	errs  chan error
}

func (cp *childProc) expect(want string, timeout time.Duration) (string, error) {
	select {
	case line, ok := <-cp.lines:
		if !ok {
			return "", fmt.Errorf("%s: child exited before %s", cp.site, want)
		}
		if !strings.HasPrefix(line, want) {
			return "", fmt.Errorf("%s: got %q, want %s", cp.site, line, want)
		}
		return line, nil
	case err := <-cp.errs:
		return "", fmt.Errorf("%s: %w", cp.site, err)
	case <-time.After(timeout):
		return "", fmt.Errorf("%s: timed out waiting for %s", cp.site, want)
	}
}

func (cp *childProc) send(line string) error {
	_, err := io.WriteString(cp.stdin, line+"\n")
	return err
}

// readLine returns the next raw stdout line (the SPANS block's span
// payload, which has no fixed prefix to expect()).
func (cp *childProc) readLine(timeout time.Duration) (string, error) {
	select {
	case line, ok := <-cp.lines:
		if !ok {
			return "", fmt.Errorf("%s: child exited mid-block", cp.site)
		}
		return line, nil
	case err := <-cp.errs:
		return "", fmt.Errorf("%s: %w", cp.site, err)
	case <-time.After(timeout):
		return "", fmt.Errorf("%s: timed out reading span block", cp.site)
	}
}

// readSpanDump consumes one child's SPANS barrier block:
//
//	SPANS <proc> <total> <evicted> <n>
//	<span JSON> × n
//	ENDSPANS
func (cp *childProc) readSpanDump() (obs.ProcSpans, error) {
	header, err := cp.expect("SPANS ", 2*time.Minute)
	if err != nil {
		return obs.ProcSpans{}, err
	}
	var ps obs.ProcSpans
	var n int
	if _, err := fmt.Sscanf(header, "SPANS %s %d %d %d", &ps.Proc, &ps.Total, &ps.Evicted, &n); err != nil {
		return obs.ProcSpans{}, fmt.Errorf("%s: bad SPANS header %q: %w", cp.site, header, err)
	}
	ps.Spans = make([]obs.Span, 0, n)
	for i := 0; i < n; i++ {
		line, err := cp.readLine(time.Minute)
		if err != nil {
			return obs.ProcSpans{}, err
		}
		var sp obs.Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			return obs.ProcSpans{}, fmt.Errorf("%s: bad span line %d: %w", cp.site, i, err)
		}
		ps.Spans = append(ps.Spans, sp)
	}
	if _, err := cp.expect("ENDSPANS", time.Minute); err != nil {
		return obs.ProcSpans{}, err
	}
	return ps, nil
}

// allocPorts reserves one loopback port per site by binding and
// immediately closing a listener. The tiny window between close and the
// child's re-bind is the standard pre-allocation race; SO_REUSE
// semantics on loopback make it reliable in practice.
func allocPorts(sites []string) (map[string]string, error) {
	addrs := make(map[string]string, len(sites))
	for _, s := range sites {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[s] = l.Addr().String()
		l.Close()
	}
	return addrs, nil
}

func runMulti(shared sharedConfig, sc workload.Scenario) (Result, []obs.ProcSpans, error) {
	bin, err := os.Executable()
	if err != nil {
		return Result{}, nil, err
	}
	addrs, err := allocPorts(shared.Sites)
	if err != nil {
		return Result{}, nil, err
	}
	var addrParts []string
	for s, a := range addrs {
		addrParts = append(addrParts, s+"="+a)
	}
	sort.Strings(addrParts)

	// Per-process shares of the offered load. The table partition by
	// origin site is what each child draws from, so the global stream
	// is the union of disjoint local streams.
	perTxns := shared.Txns / len(shared.Sites)
	perRate := shared.Rate * sc.RateFactor / float64(len(shared.Sites))
	perWorkers := shared.Workers / len(shared.Sites)
	if perWorkers < 1 {
		perWorkers = 1
	}

	children := make([]*childProc, 0, len(shared.Sites))
	defer func() {
		for _, cp := range children {
			cp.stdin.Close()
			cp.cmd.Process.Kill()
			cp.cmd.Wait()
		}
	}()
	for i, s := range shared.Sites {
		per := shared
		per.Txns = perTxns
		if i == 0 {
			per.Txns += shared.Txns % len(shared.Sites)
		}
		per.Rate = perRate
		per.Workers = perWorkers
		perJSON, err := json.Marshal(per)
		if err != nil {
			return Result{}, nil, err
		}
		cmd := exec.Command(bin)
		cmd.Env = append(os.Environ(),
			envChild+"=1",
			envSite+"="+s,
			envAddrs+"="+strings.Join(addrParts, ","),
			envCfg+"="+string(perJSON),
		)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return Result{}, nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return Result{}, nil, err
		}
		if err := cmd.Start(); err != nil {
			return Result{}, nil, err
		}
		cp := &childProc{
			site:  simnet.SiteID(s),
			cmd:   cmd,
			stdin: stdin,
			lines: make(chan string, 8),
			errs:  make(chan error, 1),
		}
		go func(r io.Reader) {
			scan := bufio.NewScanner(r)
			scan.Buffer(make([]byte, 0, 1<<20), 1<<20)
			for scan.Scan() {
				cp.lines <- scan.Text()
			}
			if err := scan.Err(); err != nil {
				cp.errs <- err
			}
			close(cp.lines)
		}(stdout)
		children = append(children, cp)
	}

	for _, cp := range children {
		if _, err := cp.expect("READY", 60*time.Second); err != nil {
			return Result{}, nil, err
		}
	}
	start := time.Now()
	for _, cp := range children {
		if err := cp.send("GO"); err != nil {
			return Result{}, nil, err
		}
	}
	for _, cp := range children {
		if _, err := cp.expect("DONE", 30*time.Minute); err != nil {
			return Result{}, nil, err
		}
	}
	for _, cp := range children {
		if err := cp.send("AUDIT"); err != nil {
			return Result{}, nil, err
		}
	}
	reports := make([]childReport, 0, len(children))
	for _, cp := range children {
		line, err := cp.expect("RESULT ", 2*time.Minute)
		if err != nil {
			return Result{}, nil, err
		}
		var rep childReport
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "RESULT ")), &rep); err != nil {
			return Result{}, nil, fmt.Errorf("%s: bad RESULT: %w", cp.site, err)
		}
		reports = append(reports, rep)
	}
	var dumps []obs.ProcSpans
	if shared.Spans {
		for _, cp := range children {
			ps, err := cp.readSpanDump()
			if err != nil {
				return Result{}, nil, err
			}
			dumps = append(dumps, ps)
		}
	}
	for _, cp := range children {
		if err := cp.send("EXIT"); err != nil {
			return Result{}, nil, err
		}
	}
	for _, cp := range children {
		if err := cp.cmd.Wait(); err != nil {
			return Result{}, nil, fmt.Errorf("%s: %w", cp.site, err)
		}
	}
	elapsed := time.Since(start)

	row := Result{
		Suite:       "load-" + shared.Mode,
		Variant:     sc.Name,
		Workers:     shared.Workers,
		Procs:       len(children),
		Net:         "tcp-multi",
		OfferedRate: shared.Rate * sc.RateFactor,
	}
	var localSum int64
	var maxElapsed time.Duration
	for _, rep := range reports {
		row.Txns += rep.Offered
		row.Started += rep.Started
		row.Shed += rep.Shed
		row.Committed += rep.Committed
		row.RolledBack += rep.RolledBack
		row.Errors += rep.Errors
		localSum += rep.LocalSum
		if d := time.Duration(rep.ElapsedNS); d > maxElapsed {
			maxElapsed = d
		}
		// Percentiles cannot be merged exactly across processes; take
		// the worst child's, the conservative bound.
		if rep.SettleP50us > row.P50us {
			row.P50us = rep.SettleP50us
		}
		if rep.SettleP99us > row.P99us {
			row.P99us = rep.SettleP99us
		}
		if rep.InitP50us > row.InitP50us {
			row.InitP50us = rep.InitP50us
		}
		if rep.InitP99us > row.InitP99us {
			row.InitP99us = rep.InitP99us
		}
	}
	if maxElapsed <= 0 {
		maxElapsed = elapsed
	}
	row.TPS = float64(row.Committed) / maxElapsed.Seconds()
	w, err := shared.workload()
	if err != nil {
		return Result{}, nil, err
	}
	row.Conserved = metric.Value(localSum) == w.Total()
	if !row.Conserved {
		fmt.Fprintf(os.Stderr, "conservation: sum of local ledgers %d, want %d (drift %d)\n",
			localSum, int64(w.Total()), localSum-int64(w.Total()))
	}
	return row, dumps, nil
}

// ---------------------------------------------------------------------
// Child mode: one site, run by the parent over a stdin/stdout barrier
// ---------------------------------------------------------------------

// childMain runs one site process: build the (identical) program table,
// bring up the TCP transport, then follow the parent's barrier protocol
// — READY → GO → run local-origin arrivals → DONE → AUDIT → quiesce +
// local ledger sum → RESULT {json} → EXIT.
func childMain(stdin io.Reader, stdout io.Writer) error {
	var shared sharedConfig
	if err := json.Unmarshal([]byte(os.Getenv(envCfg)), &shared); err != nil {
		return fmt.Errorf("bad %s: %w", envCfg, err)
	}
	self := simnet.SiteID(os.Getenv(envSite))
	addrs := map[simnet.SiteID]string{}
	for _, part := range strings.Split(os.Getenv(envAddrs), ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) == 2 {
			addrs[simnet.SiteID(kv[0])] = kv[1]
		}
	}
	if addrs[self] == "" {
		return fmt.Errorf("site %q has no address in %s", self, envAddrs)
	}
	sc, err := workload.ScenarioByName(shared.Scenario)
	if err != nil {
		return err
	}
	w, err := shared.workload()
	if err != nil {
		return err
	}
	peers := make(map[simnet.SiteID]string)
	for id, a := range addrs {
		if id != self {
			peers[id] = a
		}
	}
	tn := transport.New(transport.Config{
		Listen:   map[simnet.SiteID]string{self: addrs[self]},
		Peers:    peers,
		LossRate: sc.LossRate,
		Latency:  sc.Latency,
		Jitter:   sc.Jitter,
		Seed:     shared.Seed + int64(len(peers)),
	})
	// Disjoint instance-ID ranges per process: two processes minting
	// from the same sequence would give different instances one ID, and
	// span IDs derive from it.
	instBase := uint64(0)
	for i, s := range shared.Sites {
		if simnet.SiteID(s) == self {
			instBase = uint64(i+1) << 40
		}
	}
	// The child's own observability plane: a span store named after the
	// site (the merge key), a metrics registry when the parent asked for
	// per-child dumps, and the chain-stall flight recorder (dumping to
	// stderr, which the parent forwards).
	var plane *obs.Plane
	var reg *obs.Registry
	stopWatch := func() {}
	if shared.Spans || shared.MetricsDump != "" {
		if shared.MetricsDump != "" {
			reg = obs.NewRegistry()
		}
		plane = obs.NewPlane(nil, reg)
		if shared.Spans {
			plane.EnableSpans(string(self), shared.SpanLimit)
			if shared.StallAfterNS > 0 {
				plane.EnableFlightRecorder("", 256)
				stopWatch = plane.StartStallWatch(time.Duration(shared.StallAfterNS), 0)
			}
		}
	}
	defer stopWatch()
	split := workload.SplitInitial(w.Initial, workload.YCSBPlacement)
	c, err := site.NewCluster(site.Config{
		Strategy:          site.ChoppedQueues,
		Placement:         workload.YCSBPlacement,
		Initial:           map[simnet.SiteID]map[storage.Key]metric.Value{self: split[self]},
		Net:               tn,
		RetransmitEvery:   5 * time.Millisecond,
		AllowCompensation: true,
		Seed:              shared.Seed,
		InstanceBase:      instBase,
		Obs:               plane,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.RegisterPrograms(w.Programs); err != nil {
		return err
	}
	local := w.LocalPrograms(workload.YCSBPlacement, self)
	if len(local) == 0 {
		return fmt.Errorf("site %s owns no program origins; grow -types", self)
	}

	in := bufio.NewScanner(stdin)
	expect := func(want string) error {
		if !in.Scan() {
			return fmt.Errorf("parent closed stdin before %s", want)
		}
		if got := strings.TrimSpace(in.Text()); got != want {
			return fmt.Errorf("got %q, want %s", got, want)
		}
		return nil
	}
	fmt.Fprintln(stdout, "READY")
	if err := expect("GO"); err != nil {
		return err
	}
	var sched *fault.Schedule
	if sc.Script != nil {
		// Every child runs the same script with the same seed, so cuts
		// are applied (symmetrically) on both sides of each link.
		sched = sc.Script(shared.Seed, shared.siteIDs())
		sched.Run(c)
	}
	res, err := runArrivals(c, shared, sc, local, shared.Txns, shared.Rate, shared.Workers)
	if err != nil {
		return err
	}
	if sched != nil {
		sched.Stop()
	}
	fmt.Fprintln(stdout, "DONE")
	if err := expect("AUDIT"); err != nil {
		return err
	}
	localSum, err := quiesceAndSum(c, []simnet.SiteID{self})
	if err != nil {
		return err
	}
	rep := childReport{
		Offered: res.Offered, Started: res.Started, Shed: res.Shed,
		Committed: res.Committed, RolledBack: res.RolledBack,
		Compensated: res.Compensated, Errors: res.Errors,
		ElapsedNS:   int64(res.Elapsed),
		InitP50us:   float64(res.Initiation.Percentile(50).Microseconds()),
		InitP99us:   float64(res.Initiation.Percentile(99).Microseconds()),
		SettleP50us: float64(res.Settlement.Percentile(50).Microseconds()),
		SettleP99us: float64(res.Settlement.Percentile(99).Microseconds()),
		LocalSum:    int64(localSum),
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "RESULT "+string(data))
	if shared.Spans {
		if err := writeSpanDump(stdout, plane.Spans.Dump()); err != nil {
			return err
		}
	}
	// Flush the metrics snapshot BEFORE the EXIT barrier: once EXIT is
	// acknowledged the parent may reap the process at any point, and a
	// dump racing SIGKILL is how children used to lose their metrics.
	if shared.MetricsDump != "" {
		path := shared.MetricsDump + "." + string(self)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := reg.WriteProm(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return expect("EXIT")
}

// writeSpanDump streams this process's span-store dump to the parent
// over the stdout barrier: a sized header, one span JSON per line, and
// a terminator. Line-oriented so the parent's scanner handles it with a
// bounded buffer regardless of how many spans the ring holds.
func writeSpanDump(stdout io.Writer, ps obs.ProcSpans) error {
	bw := bufio.NewWriterSize(stdout, 1<<16)
	fmt.Fprintf(bw, "SPANS %s %d %d %d\n", ps.Proc, ps.Total, ps.Evicted, len(ps.Spans))
	for _, sp := range ps.Spans {
		line, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	fmt.Fprintln(bw, "ENDSPANS")
	return bw.Flush()
}
