// Command perfbench is the hot-path regression harness: it runs the E1
// method-comparison and E5 engine-comparison bank workloads plus the
// divergence-control absorb micro-benchmark at several worker counts,
// measuring throughput, latency percentiles, and allocations per
// committed transaction. Results are written as JSON so CI can compare a
// fresh run against the committed baseline (BENCH_baseline.json).
//
// The wal suite (not in the default set; baseline BENCH_wal.json)
// benchmarks the disk driver's write-ahead log appender directly:
// fsync-per-append vs group-commit, plus the group-commit speedup ratio
// at each worker count — the number that justifies sharing one fsync
// across a commit cohort.
//
// The contention suite (not in the default set; baseline
// BENCH_contention.json) sweeps Zipfian skew θ ∈ {0.6, 0.9, 0.99} over a
// hot-key transfer stream and compares abort-retry (optimistic DC)
// against the repair engine with and without ε-skip. Ratio rows
// (variant "repair-speedup/theta=…") carry repair ÷ abort-retry
// throughput so the compare gate — and the -minspeedup assertion —
// catch a collapse of the repair win itself.
//
// The tenants suite (not in the default set; baseline
// BENCH_tenants.json) measures the multi-tenant serving layer
// (internal/tenant): partition-parallel capacity against the
// single-runner architecture ("partition-speedup", gated by
// -minpartspeedup), and ε-spend load shedding under 2× hot-tenant
// overload ("shed-headroom" = 2× uncontended p99 ÷ overload admitted
// p99, gated by -minshedheadroom).
//
// Usage:
//
//	perfbench [-suites e1,e5,absorb,wal,contention,tenants]
//	          [-workers 1,4,8,16]
//	          [-quick] [-minspeedup X]
//	          [-minpartspeedup X] [-minshedheadroom X]
//	          [-out BENCH.json] [-opdelay 50us] [-seed N]
//	          [-cpuprofile f] [-memprofile f] [-mutexprofile f]
//	          [-trace f] [-tracewall f] [-tracetext f]
//	          [-metrics addr] [-metricsdump f]
//	perfbench -compare BENCH_baseline.json BENCH_new.json
//
// Compare mode exits non-zero only on a ≥2× throughput regression; drift
// beyond ±30% is reported but tolerated (single-run numbers on shared CI
// machines are noisy — the hard gate is reserved for collapse-sized
// regressions). Baseline cells with no counterpart in the new run are
// warned about per suite — a silently skipped suite must not read as a
// green gate — but do not fail the comparison.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"asynctp"
	"asynctp/internal/core"
	"asynctp/internal/obs"
	"asynctp/internal/profiling"
	"asynctp/internal/stats"
	"asynctp/internal/storage/wal"
	"asynctp/internal/workload"
)

// Result is one measured (suite, variant, workers) cell.
type Result struct {
	Suite   string `json:"suite"`
	Variant string `json:"variant"`
	Workers int    `json:"workers"`
	// Txns is the number of committed transactions measured.
	Txns int `json:"txns"`
	// TPS is committed transactions per second.
	TPS float64 `json:"tps"`
	// P50us and P99us are per-transaction latency percentiles (µs).
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
	// AllocsPerTxn is heap allocations per committed transaction,
	// measured with runtime.MemStats over the whole run (includes
	// harness overhead; comparable run-to-run, not an absolute).
	AllocsPerTxn float64 `json:"allocs_per_txn"`
	// Retries counts system-abort resubmissions.
	Retries int `json:"retries"`
}

// File is the serialized benchmark report.
type File struct {
	Schema  string    `json:"schema"`
	Date    time.Time `json:"date"`
	GOOS    string    `json:"goos"`
	GOARCH  string    `json:"goarch"`
	CPUs    int       `json:"cpus"`
	Quick   bool      `json:"quick"`
	OpDelay string    `json:"op_delay"`
	Results []Result  `json:"results"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	suitesArg := fs.String("suites", "e1,e5,absorb", "comma-separated suites: e1,e5,absorb,wal,contention,tenants")
	workersArg := fs.String("workers", "1,4,8,16", "comma-separated worker counts")
	quick := fs.Bool("quick", false, "CI mode: smaller stream, workers 1,4 unless -workers given")
	out := fs.String("out", "", "write JSON report to this file (default stdout)")
	opDelay := fs.Duration("opdelay", 50*time.Microsecond, "simulated per-operation work for e1/e5")
	seed := fs.Int64("seed", 42, "workload seed")
	minSpeedup := fs.Float64("minspeedup", 0,
		"fail unless every contention repair-speedup/theta=0.99 row is at least this ratio (0 disables)")
	minPartSpeedup := fs.Float64("minpartspeedup", 0,
		"fail unless every tenants partition-speedup row is at least this ratio (0 disables)")
	minShedHeadroom := fs.Float64("minshedheadroom", 0,
		"fail unless every tenants shed-headroom row is at least this ratio (0 disables)")
	compare := fs.Bool("compare", false, "compare two report files: perfbench -compare old.json new.json")
	prof := profiling.Register(fs)
	obsFlags := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two report files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}

	workersDefault := !flagSet(fs, "workers")
	var workers []int
	src := *workersArg
	if *quick && workersDefault {
		src = "1,4"
	}
	for _, part := range strings.Split(src, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return fmt.Errorf("bad worker count %q", part)
		}
		workers = append(workers, n)
	}

	stopProfiles, err := prof.Start()
	if err != nil {
		return err
	}
	plane, stopObs, err := obsFlags.Build()
	if err != nil {
		return err
	}

	file := &File{
		Schema:  "asynctp/perfbench/v1",
		Date:    time.Now().UTC(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Quick:   *quick,
		OpDelay: opDelay.String(),
	}
	for _, suite := range strings.Split(*suitesArg, ",") {
		suite = strings.TrimSpace(suite)
		for _, w := range workers {
			var (
				res []Result
				err error
			)
			switch suite {
			case "e1":
				res, err = runE1(w, *quick, *opDelay, *seed, plane)
			case "e5":
				res, err = runE5(w, *quick, *opDelay, *seed, plane)
			case "absorb":
				res, err = runAbsorb(w, *quick, plane)
			case "wal":
				res, err = runWAL(w, *quick)
			case "contention":
				res, err = runContention(w, *quick, *seed, plane)
			case "tenants":
				res, err = runTenants(w, *quick, *seed, plane)
			default:
				err = fmt.Errorf("unknown suite %q", suite)
			}
			if err != nil {
				return fmt.Errorf("%s/workers=%d: %w", suite, w, err)
			}
			file.Results = append(file.Results, res...)
			for _, r := range res {
				fmt.Fprintf(os.Stderr, "%-8s %-12s workers=%-3d %9.0f txn/s  p50=%6.0fµs p99=%6.0fµs  %5.1f allocs/txn\n",
					r.Suite, r.Variant, r.Workers, r.TPS, r.P50us, r.P99us, r.AllocsPerTxn)
			}
		}
	}
	if err := stopProfiles(); err != nil {
		return err
	}
	if *minSpeedup > 0 {
		if err := checkMinSpeedup(file.Results, *minSpeedup); err != nil {
			return err
		}
	}
	if *minPartSpeedup > 0 {
		if err := checkMinRatio(file.Results, "tenants", "partition-speedup", *minPartSpeedup); err != nil {
			return err
		}
	}
	if *minShedHeadroom > 0 {
		if err := checkMinRatio(file.Results, "tenants", "shed-headroom", *minShedHeadroom); err != nil {
			return err
		}
	}
	if plane != nil {
		for _, line := range plane.Summary() {
			fmt.Fprintln(os.Stderr, "obs:", line)
		}
	}
	if err := stopObs(); err != nil {
		return err
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// flagSet reports whether a flag was explicitly provided.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// bankFor builds the shared E1/E5 bank workload.
func bankFor(quick bool, seed int64) (*workload.Workload, error) {
	transfers, audits := 20, 10
	if quick {
		transfers, audits = 10, 4
	}
	return workload.NewBank(workload.BankConfig{
		Branches: 1, AccountsPerBranch: 4,
		InitialBalance: 1 << 30, TransferAmount: 100,
		TransferTypes: 2, TransferCount: transfers, AuditCount: audits,
		Epsilon: 8000, IntraBranch: true, Seed: seed,
	})
}

// measureWorkload runs one (method, engine) bank configuration and
// converts the workload result plus alloc counters into a Result.
func measureWorkload(suite, variant string, method core.Method, engine core.EngineKind,
	w *workload.Workload, workers int, opDelay time.Duration, seed int64, plane *obs.Plane) (Result, error) {
	cfg := workload.ConfigFor(w, method, core.Static, false)
	cfg.OpDelay = opDelay
	cfg.Engine = engine
	cfg.Obs = plane
	r, err := core.NewRunner(cfg)
	if err != nil {
		return Result{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := workload.Run(context.Background(), r, w, workers, seed)
	runtime.ReadMemStats(&after)
	if err != nil {
		return Result{}, err
	}
	out := Result{
		Suite:   suite,
		Variant: variant,
		Workers: workers,
		Txns:    res.Committed,
		TPS:     res.ThroughputTPS,
		Retries: res.Retries,
	}
	if res.Latency.N() > 0 {
		out.P50us = float64(res.Latency.Percentile(50).Microseconds())
		out.P99us = float64(res.Latency.Percentile(99).Microseconds())
	}
	if res.Committed > 0 {
		out.AllocsPerTxn = float64(after.Mallocs-before.Mallocs) / float64(res.Committed)
	}
	return out, nil
}

// runE1 is the Section 5 method comparison: the three headline methods
// on the contended bank stream.
func runE1(workers int, quick bool, opDelay time.Duration, seed int64, plane *obs.Plane) ([]Result, error) {
	methods := []core.Method{core.BaselineSRCC, core.BaselineESRDC, core.Method1SRChopDC}
	var out []Result
	for _, m := range methods {
		w, err := bankFor(quick, seed)
		if err != nil {
			return nil, err
		}
		r, err := measureWorkload("e1", m.String(), m, core.EngineLocking, w, workers, opDelay, seed, plane)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// runE5 is the engine-family comparison: locking vs optimistic
// divergence control on the same stream.
func runE5(workers int, quick bool, opDelay time.Duration, seed int64, plane *obs.Plane) ([]Result, error) {
	engines := []core.EngineKind{core.EngineLocking, core.EngineOptimistic}
	var out []Result
	for _, e := range engines {
		w, err := bankFor(quick, seed)
		if err != nil {
			return nil, err
		}
		r, err := measureWorkload("e5", e.String(), core.BaselineESRDC, e, w, workers, opDelay, seed, plane)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// contentionThetas is the Zipfian skew sweep: mild, skewed, and the
// classic YCSB hot-spot where nearly every transfer hits the same keys.
var contentionThetas = []float64{0.6, 0.9, 0.99}

// contentionReps mirrors absorbReps: best-of-N suppresses scheduler
// hiccups on shared runners without hiding real regressions.
const contentionReps = 3

// contentionOpDelay is the per-op work for the contention suite. Unlike
// e1/e5 it sits at SimWork's sleep scale on purpose: the suite measures
// how engines handle overlapping transactions, and ops that model
// blocking work (I/O, messages — the paper's asynchronous setting) let
// workers overlap even on a single-core runner, where sub-millisecond
// spinning work would serialize the stream and hide the contention
// entirely. It deliberately ignores -opdelay so the committed baseline
// is reproducible.
const contentionOpDelay = time.Millisecond

// runContention sweeps Zipfian skew over the hot-key transfer stream and
// compares abort-retry (optimistic DC) against the repair engine with
// and without ε-skip. At each θ it adds a dimensionless
// "repair-speedup/theta=…" row (repair ÷ abort-retry throughput): under
// heavy skew the abort-retry engine redoes whole transactions per
// validation failure while repair re-executes only the stale hot ops,
// and the ratio row is what the -compare gate and -minspeedup hold on to.
func runContention(workers int, quick bool, seed int64, plane *obs.Plane) ([]Result, error) {
	transfers, audits := 60, 16
	if quick {
		transfers, audits = 25, 8
	}
	engines := []core.EngineKind{core.EngineOptimistic, core.EngineRepair, core.EngineRepairSkip}
	var out []Result
	for _, theta := range contentionThetas {
		w, err := workload.NewContention(workload.ContentionConfig{
			Keys: 8, Theta: theta,
			TransferTypes: 8, TransferCount: transfers,
			AuditCount: audits, AuditSpan: 0,
			Amount: 10, InitialBalance: 1 << 30,
			Epsilon: 50000, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		byEngine := make(map[core.EngineKind]Result, len(engines))
		for _, e := range engines {
			variant := fmt.Sprintf("%s/theta=%.2f", e, theta)
			best := Result{}
			for rep := 0; rep < contentionReps; rep++ {
				r, err := measureWorkload("contention", variant, core.BaselineESRDC, e, w, workers, contentionOpDelay, seed, plane)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", variant, err)
				}
				if r.TPS > best.TPS {
					best = r
				}
			}
			byEngine[e] = best
			out = append(out, best)
		}
		ratio := Result{
			Suite:   "contention",
			Variant: fmt.Sprintf("repair-speedup/theta=%.2f", theta),
			Workers: workers,
			Txns:    byEngine[core.EngineRepair].Txns,
		}
		if abortRetry := byEngine[core.EngineOptimistic].TPS; abortRetry > 0 {
			ratio.TPS = byEngine[core.EngineRepair].TPS / abortRetry
		}
		out = append(out, ratio)
	}
	return out, nil
}

// checkMinSpeedup enforces the ISSUE acceptance bar: at the YCSB
// hot-spot skew the repair engine must beat abort-retry by the given
// factor. It fails if no θ=0.99 ratio row was produced (e.g. the
// contention suite was not in -suites), so the CI gate cannot silently
// pass by not measuring.
func checkMinSpeedup(results []Result, min float64) error {
	checked := 0
	for _, r := range results {
		if r.Suite != "contention" || !strings.HasPrefix(r.Variant, "repair-speedup/theta=0.99") {
			continue
		}
		checked++
		if r.TPS < min {
			return fmt.Errorf("contention %s workers=%d: repair speedup %.2fx < required %.2fx",
				r.Variant, r.Workers, r.TPS, min)
		}
		fmt.Fprintf(os.Stderr, "minspeedup: %s workers=%d %.2fx >= %.2fx ok\n",
			r.Variant, r.Workers, r.TPS, min)
	}
	if checked == 0 {
		return fmt.Errorf("-minspeedup set but no contention repair-speedup/theta=0.99 rows were measured")
	}
	return nil
}

// checkMinRatio enforces a floor on a suite's ratio rows (variants with
// the given prefix carry their ratio in the TPS field). Like
// checkMinSpeedup it fails when no matching row was measured, so a gate
// cannot silently pass by not running its suite.
func checkMinRatio(results []Result, suite, variantPrefix string, min float64) error {
	checked := 0
	for _, r := range results {
		if r.Suite != suite || !strings.HasPrefix(r.Variant, variantPrefix) {
			continue
		}
		checked++
		if r.TPS < min {
			return fmt.Errorf("%s %s workers=%d: ratio %.2fx < required %.2fx",
				suite, r.Variant, r.Workers, r.TPS, min)
		}
		fmt.Fprintf(os.Stderr, "min %s: %s workers=%d %.2fx >= %.2fx ok\n",
			variantPrefix, r.Variant, r.Workers, r.TPS, min)
	}
	if checked == 0 {
		return fmt.Errorf("-min gate set but no %s %s rows were measured", suite, variantPrefix)
	}
	return nil
}

// runAbsorb is the divergence-control absorb micro-benchmark: an update
// stream holding a hot key while an audit stream reads through it, all
// conflicts absorbed (unbounded ε). No simulated op work — this measures
// the arbitration hot path itself.
// absorbReps is how many times each absorb measurement repeats; the
// best repetition is reported. The absorb suite has no simulated op
// work, so a single pass lasts well under a second and a scheduler
// hiccup on a shared 1-core runner can halve one pass's throughput —
// best-of-N suppresses those dips without hiding real regressions
// (a real regression slows every repetition).
const absorbReps = 3

func runAbsorb(workers int, quick bool, plane *obs.Plane) ([]Result, error) {
	total := 200000
	if quick {
		total = 50000
	}
	best := Result{}
	for rep := 0; rep < absorbReps; rep++ {
		res, err := runAbsorbOnce(workers, total, plane)
		if err != nil {
			return nil, err
		}
		if res.TPS > best.TPS {
			best = res
		}
	}
	return []Result{best}, nil
}

func runAbsorbOnce(workers, total int, plane *obs.Plane) (Result, error) {
	store := asynctp.NewStoreFrom(map[asynctp.Key]asynctp.Value{"x": 1 << 40, "y": 0})
	r, err := asynctp.NewRunner(asynctp.Config{
		Method: asynctp.BaselineESRDC,
		Store:  store,
		Obs:    plane,
		Programs: []*asynctp.Program{
			asynctp.MustProgram("xfer",
				asynctp.AddOp("x", -1), asynctp.AddOp("y", 1)).WithSpec(asynctp.Unbounded),
			asynctp.MustProgram("audit",
				asynctp.ReadOp("x"), asynctp.ReadOp("y")).WithSpec(asynctp.Unbounded),
		},
		Counts: []int{1 << 20, 1 << 20},
	})
	if err != nil {
		return Result{}, err
	}
	ctx := context.Background()
	lat := stats.NewRecorder()
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	perWorker := total / workers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				t0 := time.Now()
				_, err := r.Submit(ctx, (id+j)%2)
				d := time.Since(t0)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				lat.Add(d)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if firstErr != nil {
		return Result{}, firstErr
	}
	n := perWorker * workers
	res := Result{
		Suite:   "absorb",
		Variant: "esr-dc",
		Workers: workers,
		Txns:    n,
		TPS:     float64(n) / elapsed.Seconds(),
		P50us:   float64(lat.Percentile(50).Microseconds()),
		P99us:   float64(lat.Percentile(99).Microseconds()),
	}
	if n > 0 {
		res.AllocsPerTxn = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	return res, nil
}

// runWAL benchmarks the disk driver's WAL appender in its two durability
// modes on the same record stream: fsync-per-append (SyncEvery <= 0,
// every commit pays a full fsync) vs group-commit (a 200µs window shares
// one fsync across the cohort of concurrent appenders). A third
// dimensionless row reports the speedup ratio group-commit/fsync-each so
// the compare gate catches a collapse of the batching win itself, not
// just absolute drift. At workers=1 the ratio is expected to sit below
// 1 — a lone appender pays the window latency with nobody to share the
// fsync — which is exactly the tradeoff the row documents.
func runWAL(workers int, quick bool) ([]Result, error) {
	total := 2000
	if quick {
		total = 800
	}
	each, err := runWALBest("fsync-each", 0, workers, total)
	if err != nil {
		return nil, err
	}
	group, err := runWALBest("group-commit", 200*time.Microsecond, workers, total)
	if err != nil {
		return nil, err
	}
	ratio := Result{Suite: "wal", Variant: "speedup", Workers: workers, Txns: group.Txns}
	if each.TPS > 0 {
		ratio.TPS = group.TPS / each.TPS
	}
	return []Result{each, group, ratio}, nil
}

// walReps mirrors absorbReps: a single WAL pass is fsync-bound and
// short, so one scheduler hiccup can halve a pass; best-of-N suppresses
// the dips without hiding a real regression.
const walReps = 3

func runWALBest(variant string, window time.Duration, workers, total int) (Result, error) {
	best := Result{}
	for rep := 0; rep < walReps; rep++ {
		res, err := runWALOnce(variant, window, workers, total)
		if err != nil {
			return Result{}, err
		}
		if res.TPS > best.TPS {
			best = res
		}
	}
	return best, nil
}

// runWALOnce appends total batch records (shaped like a settled piece
// commit: two account deltas, an applied marker, a watermark) from
// workers concurrent goroutines and reports durable appends per second.
func runWALOnce(variant string, window time.Duration, workers, total int) (Result, error) {
	dir, err := os.MkdirTemp("", "perfbench-wal-*")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)
	opts := []wal.Option{wal.WithSegmentBytes(8 << 20)}
	if window > 0 {
		opts = append(opts, wal.WithGroupCommit(window, 256))
	}
	w, err := wal.Open(dir, opts...)
	if err != nil {
		return Result{}, err
	}
	defer w.Close()

	lat := stats.NewRecorder()
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	perWorker := total / workers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				lsn := uint64(id*perWorker + j + 1)
				rec := wal.BatchRecord(lsn, []wal.KV{
					{Key: "acct/A", Val: int64(j)},
					{Key: "acct/B", Val: -int64(j)},
					{Key: "__applied/1/2", Val: 1},
					{Key: "__wm/NY", Val: int64(lsn)},
				})
				t0 := time.Now()
				err := w.Append(rec)
				d := time.Since(t0)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				lat.Add(d)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if firstErr != nil {
		return Result{}, firstErr
	}
	n := perWorker * workers
	res := Result{
		Suite:   "wal",
		Variant: variant,
		Workers: workers,
		Txns:    n,
		TPS:     float64(n) / elapsed.Seconds(),
		P50us:   float64(lat.Percentile(50).Microseconds()),
		P99us:   float64(lat.Percentile(99).Microseconds()),
	}
	if n > 0 {
		res.AllocsPerTxn = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	return res, nil
}

// ---------------------------------------------------------------------
// Compare mode: the CI regression gate.
// ---------------------------------------------------------------------

// driftTolerance is the report-only drift band: single-run numbers on a
// shared machine wobble, so ±30% only warns.
const driftTolerance = 0.30

// failFactor is the hard gate: new throughput below old/2 fails the run.
const failFactor = 2.0

func loadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func key(r Result) string {
	return fmt.Sprintf("%s/%s/workers=%d", r.Suite, r.Variant, r.Workers)
}

func compareFiles(oldPath, newPath string) error {
	oldF, err := loadFile(oldPath)
	if err != nil {
		return err
	}
	newF, err := loadFile(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]Result, len(oldF.Results))
	for _, r := range oldF.Results {
		oldBy[key(r)] = r
	}
	newKeys := make(map[string]bool, len(newF.Results))
	for _, r := range newF.Results {
		newKeys[key(r)] = true
	}
	// Baseline coverage: a suite present in the baseline but absent from
	// the run usually means a CI invocation drifted (-suites or -workers
	// narrowed) and its gate silently stopped measuring. Warn — grouped
	// per suite, tolerated — so the drift is visible without failing
	// deliberate partial runs.
	missingBySuite := make(map[string]int)
	for _, or := range oldF.Results {
		if !newKeys[key(or)] {
			missingBySuite[or.Suite]++
		}
	}
	for suite, n := range missingBySuite {
		fmt.Printf("WARN    suite %q: %d baseline cell(s) not present in this run (gate not exercised)\n", suite, n)
	}
	failures := 0
	for _, nr := range newF.Results {
		or, ok := oldBy[key(nr)]
		if !ok {
			fmt.Printf("NEW     %-40s %9.0f txn/s (no baseline)\n", key(nr), nr.TPS)
			continue
		}
		if or.TPS <= 0 {
			continue
		}
		ratio := nr.TPS / or.TPS
		status := "ok"
		switch {
		case ratio < 1/failFactor:
			status = "FAIL"
			failures++
		case ratio < 1-driftTolerance:
			status = "slower (tolerated)"
		case ratio > 1+driftTolerance:
			status = "faster"
		}
		fmt.Printf("%-7s %-40s %9.0f -> %9.0f txn/s  (%.2fx)\n", status, key(nr), or.TPS, nr.TPS, ratio)
	}
	if failures > 0 {
		return fmt.Errorf("%d cell(s) regressed by more than %.0fx", failures, failFactor)
	}
	return nil
}
