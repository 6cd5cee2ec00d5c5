// Command distbench benchmarks the distributed piece pipeline over the
// simulated WAN: three sites, NY→LA→CHI transfer chains chopped into
// three pieces, activations and settlement reports riding the
// recoverable queues, at a given one-way latency and loss rate.
//
// Suites:
//
//	pieces — distributed piece throughput (pieces/s; latency columns
//	         are initiation percentiles, the user-visible latency)
//	settle — settled chains per second (latency columns are settlement
//	         percentiles: every piece committed)
//
// Both suites come from the same run per workers cell.
// The JSON report uses the perfbench schema, so CI gates it with
// `perfbench -compare BENCH_4.json new.json`.
//
// Usage:
//
//	distbench -quick -out dist.json
//	distbench -suites pieces -latency 1ms -workers 1,4
//	distbench -quick -dc -trace trace.json -metricsdump prom.txt
//	perfbench -compare BENCH_4.json dist.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"asynctp/internal/experiments"
	"asynctp/internal/obs"
	"asynctp/internal/profiling"
)

// Result is one measured (suite, workers) cell. The first fields mirror
// perfbench's schema — suite/variant/workers key the -compare gate
// (variant is always "batched", the key of BENCH_4.json's rows), tps is
// the gated metric — and the trailing fields add the wire-cost
// accounting. perfbench ignores fields it does not know.
type Result struct {
	Suite   string  `json:"suite"`
	Variant string  `json:"variant"`
	Workers int     `json:"workers"`
	Txns    int     `json:"txns"`
	TPS     float64 `json:"tps"`
	P50us   float64 `json:"p50_us"`
	P99us   float64 `json:"p99_us"`
	// FramesPerTxn is network frames per settled chain; MsgsPerTxn is
	// application messages per chain. Their ratio is the coalescing
	// factor the batch transport achieves.
	FramesPerTxn float64 `json:"frames_per_txn"`
	MsgsPerTxn   float64 `json:"msgs_per_txn"`
	Conserved    bool    `json:"conserved"`
}

// File is the serialized report (perfbench-compatible superset).
type File struct {
	Schema  string    `json:"schema"`
	Date    time.Time `json:"date"`
	GOOS    string    `json:"goos"`
	GOARCH  string    `json:"goarch"`
	CPUs    int       `json:"cpus"`
	Quick   bool      `json:"quick"`
	Latency string    `json:"latency"`
	Loss    float64   `json:"loss"`
	Results []Result  `json:"results"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "distbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("distbench", flag.ContinueOnError)
	suitesArg := fs.String("suites", "pieces,settle", "comma-separated suites: pieces,settle")
	workersArg := fs.String("workers", "4", "comma-separated per-site worker-pool sizes")
	latency := fs.Duration("latency", time.Millisecond, "simulated one-way WAN latency")
	jitter := fs.Float64("jitter", 0, "latency jitter fraction (0..1)")
	loss := fs.Float64("loss", 0, "silent frame-loss fraction (0..1)")
	seed := fs.Int64("seed", 42, "network RNG seed")
	txns := fs.Int("txns", 0, "chain transactions per cell (0 = 1500, or 600 with -quick)")
	submitters := fs.Int("submitters", 0, "closed-loop submitters (0 = 64, or 48 with -quick)")
	quick := fs.Bool("quick", false, "CI mode: smaller stream")
	useDC := fs.Bool("dc", false, "run sites under divergence control and interleave ε-audits")
	audits := fs.Int("audits", 0, "audit transactions to interleave with -dc (0 = txns/10)")
	out := fs.String("out", "", "write JSON report to this file (default stdout)")
	prof := profiling.Register(fs)
	obsFlags := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// 600 chains over 48 submitters keeps -quick to a couple of seconds.
	nTxns, nSub := 1500, 64
	if *quick {
		nTxns, nSub = 600, 48
	}
	if *txns > 0 {
		nTxns = *txns
	}
	if *submitters > 0 {
		nSub = *submitters
	}
	var workers []int
	for _, part := range strings.Split(*workersArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return fmt.Errorf("bad worker count %q", part)
		}
		workers = append(workers, n)
	}
	suites := strings.Split(*suitesArg, ",")
	for _, s := range suites {
		switch strings.TrimSpace(s) {
		case "pieces", "settle":
		default:
			return fmt.Errorf("unknown suite %q", s)
		}
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
		Latency: latency.String(),
		Loss:    *loss,
	}
	for _, w := range workers {
		res, err := experiments.RunDistBench(experiments.DistBenchConfig{
			Latency:    *latency,
			Jitter:     *jitter,
			LossRate:   *loss,
			Seed:       *seed,
			Workers:    w,
			Submitters: nSub,
			Txns:       nTxns,
			UseDC:      *useDC,
			Audits:     *audits,
			Plane:      plane,
		})
		if err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
		if !res.Conserved {
			return fmt.Errorf("workers=%d: money not conserved — measurement void", w)
		}
		for _, suite := range suites {
			suite = strings.TrimSpace(suite)
			row := Result{
				Suite:        "dist-" + suite,
				Variant:      "batched",
				Workers:      w,
				Txns:         res.Txns,
				FramesPerTxn: res.FramesPerTxn,
				MsgsPerTxn:   res.MsgsPerTxn,
				Conserved:    res.Conserved,
			}
			switch suite {
			case "pieces":
				row.TPS = res.PiecesPerSec
				row.P50us = float64(res.InitP50.Microseconds())
				row.P99us = float64(res.InitP99.Microseconds())
			case "settle":
				row.TPS = res.TPS
				row.P50us = float64(res.SettleP50.Microseconds())
				row.P99us = float64(res.SettleP99.Microseconds())
			}
			file.Results = append(file.Results, row)
			fmt.Fprintf(os.Stderr, "%-12s workers=%-3d %9.0f /s  p50=%7.0fµs p99=%7.0fµs  %5.1f frames/txn %5.1f msgs/txn\n",
				row.Suite, row.Workers, row.TPS, row.P50us, row.P99us,
				row.FramesPerTxn, row.MsgsPerTxn)
		}
	}
	if err := stopProfiles(); err != nil {
		return err
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
