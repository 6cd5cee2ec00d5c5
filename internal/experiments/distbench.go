package experiments

// This file drives the distributed piece pipeline end to end over the
// simulated WAN and measures it: settled chains per second, piece
// throughput, initiation/settlement latency percentiles, and the wire
// cost in frames vs application messages. cmd/distbench wraps it in a
// perfbench-compatible CLI; CI compares its rows with the committed
// BENCH_4.json.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/simnet"
	"asynctp/internal/site"
	"asynctp/internal/stats"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// DistBenchConfig parameterizes one distributed pipeline run.
type DistBenchConfig struct {
	// Latency is the simulated one-way WAN latency (default 1ms).
	Latency time.Duration
	// Jitter is the latency jitter fraction.
	Jitter float64
	// LossRate silently drops this fraction of frames in flight.
	LossRate float64
	// Seed drives the network RNG.
	Seed int64
	// Workers sizes each site's piece-worker pool (0 = site default).
	Workers int
	// Submitters is the closed-loop submitter count (default 32).
	Submitters int
	// Txns is the total number of chain transactions (default 1000).
	Txns int
	// Families is the number of disjoint key families; chains in
	// different families touch different keys, so the measured
	// throughput is pipeline cost, not lock contention (default 16).
	Families int
	// UseDC runs every site's lock manager under divergence control and
	// adds an ε-audit program per family (reading the family's three
	// keys under a declared budget); submitter 0 spaces cfg.Audits audit
	// submissions through its chain loop. Off by default so the
	// committed BENCH_4.json baseline measures the unchanged pipeline.
	UseDC bool
	// Audits is how many audit transactions to interleave (UseDC only;
	// default Txns/10).
	Audits int
	// Plane, when non-nil, observes the whole cluster: trace spans,
	// metrics, and the ε-provenance ledger all hang off it
	// (cmd/distbench wires it from -spans/-metrics).
	Plane *obs.Plane
}

// withDefaults fills zero fields.
func (cfg DistBenchConfig) withDefaults() DistBenchConfig {
	if cfg.Latency == 0 {
		cfg.Latency = time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.Submitters <= 0 {
		cfg.Submitters = 32
	}
	if cfg.Txns <= 0 {
		cfg.Txns = 1000
	}
	if cfg.Families <= 0 {
		cfg.Families = 16
	}
	if cfg.UseDC && cfg.Audits <= 0 {
		cfg.Audits = cfg.Txns / 10
	}
	return cfg
}

// DistBenchResult is one run's measurements.
type DistBenchResult struct {
	Workers int
	// Txns is the number of settled chain transactions.
	Txns int
	// Pieces is Txns x pieces-per-chain (3 sites, 3 pieces).
	Pieces  int
	Elapsed time.Duration
	// TPS is settled chains per second; PiecesPerSec is the distributed
	// piece commit rate — the headline number the batching layer moves.
	TPS          float64
	PiecesPerSec float64
	// Initiation percentiles: latency until the first piece committed
	// (the user-visible latency under chopping).
	InitP50, InitP99 time.Duration
	// Settlement percentiles: latency until every piece committed.
	SettleP50, SettleP99 time.Duration
	// FramesPerTxn is network frames sent per settled chain;
	// MsgsPerTxn is delivered application messages per settled chain
	// (their ratio is the coalescing factor).
	FramesPerTxn float64
	MsgsPerTxn   float64
	// Conserved reports the cross-site money supply was intact after
	// quiescence — a benchmark that corrupts the books measures nothing.
	Conserved bool
}

// distPlacement maps distbench keys to sites by prefix.
func distPlacement(k storage.Key) simnet.SiteID {
	switch {
	case len(k) >= 3 && k[:3] == "ny:":
		return "NY"
	case len(k) >= 3 && k[:3] == "la:":
		return "LA"
	default:
		return "CHI"
	}
}

// RunDistBench runs cfg.Txns three-site transfer chains (NY→LA→CHI,
// three pieces each) through the chopped-queue pipeline and measures
// throughput, latency, and wire cost.
func RunDistBench(cfg DistBenchConfig) (*DistBenchResult, error) {
	cfg = cfg.withDefaults()
	perKey := metric.Value(cfg.Txns) // never overdraw even if one family takes it all
	initial := map[simnet.SiteID]map[storage.Key]metric.Value{
		"NY": {}, "LA": {}, "CHI": {},
	}
	var programs []*txn.Program
	for f := 0; f < cfg.Families; f++ {
		ny := storage.Key(fmt.Sprintf("ny:A%d", f))
		la := storage.Key(fmt.Sprintf("la:B%d", f))
		chi := storage.Key(fmt.Sprintf("chi:C%d", f))
		initial["NY"][ny] = perKey
		initial["LA"][la] = perKey
		initial["CHI"][chi] = perKey
		programs = append(programs, txn.MustProgram(fmt.Sprintf("dist-chain-%d", f),
			txn.AddOp(ny, -1),
			txn.AddOp(la, 1), // passes through LA
			txn.AddOp(la, -1),
			txn.AddOp(chi, 1),
		))
	}
	if cfg.UseDC {
		// Generous budgets: the workload measures pipeline cost with DC
		// compiled in, not refusal behavior. Chains export, audits import.
		eps := metric.Fuzz(4 * cfg.Txns)
		spec := metric.Spec{Import: metric.LimitOf(eps), Export: metric.LimitOf(eps)}
		for i, p := range programs {
			programs[i] = p.WithSpec(spec)
		}
		for f := 0; f < cfg.Families; f++ {
			programs = append(programs, txn.MustProgram(fmt.Sprintf("dist-audit-%d", f),
				txn.ReadOp(storage.Key(fmt.Sprintf("ny:A%d", f))),
				txn.ReadOp(storage.Key(fmt.Sprintf("la:B%d", f))),
				txn.ReadOp(storage.Key(fmt.Sprintf("chi:C%d", f))),
			).WithSpec(spec))
		}
	}

	var opts []site.Option
	if cfg.Workers > 0 {
		opts = append(opts, site.WithWorkers(cfg.Workers))
	}
	c, err := site.NewCluster(site.Config{
		Strategy:        site.ChoppedQueues,
		UseDC:           cfg.UseDC,
		Latency:         cfg.Latency,
		Jitter:          cfg.Jitter,
		LossRate:        cfg.LossRate,
		Seed:            cfg.Seed,
		Placement:       distPlacement,
		Initial:         initial,
		RetransmitEvery: 5 * time.Millisecond,
		Obs:             cfg.Plane,
	}, opts...)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.RegisterPrograms(programs); err != nil {
		return nil, err
	}

	initRec := stats.NewRecorder()
	settleRec := stats.NewRecorder()
	var mu sync.Mutex
	var firstErr error
	before := c.Net.Stats()
	start := time.Now()
	var wg sync.WaitGroup
	per := cfg.Txns / cfg.Submitters
	extra := cfg.Txns % cfg.Submitters
	for sub := 0; sub < cfg.Submitters; sub++ {
		n := per
		if sub < extra {
			n++
		}
		if n == 0 {
			continue
		}
		// Submitter 0 spaces the ε-audits through its chain loop; with one
		// submitter the run stays sequential (and so trace-deterministic),
		// with many the audits overlap foreign chains and exercise DC.
		audits := 0
		if sub == 0 && cfg.UseDC {
			audits = cfg.Audits
		}
		wg.Add(1)
		go func(sub, n, audits int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			auditStep := 1
			if audits > 0 && n > audits {
				auditStep = n / audits
			}
			submitAudit := func(i int) bool {
				res, err := c.Submit(ctx, cfg.Families+i%cfg.Families)
				if err != nil || !res.Committed {
					mu.Lock()
					if firstErr == nil {
						if err == nil {
							err = fmt.Errorf("audit did not commit: %+v", res)
						}
						firstErr = err
					}
					mu.Unlock()
					return false
				}
				return true
			}
			for i := 0; i < n; i++ {
				res, err := c.Submit(ctx, (sub+i)%cfg.Families)
				if err != nil || !res.Committed {
					mu.Lock()
					if firstErr == nil {
						if err == nil {
							err = fmt.Errorf("chain did not commit: %+v", res)
						}
						firstErr = err
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				initRec.Add(res.Initiation)
				settleRec.Add(res.Settlement)
				mu.Unlock()
				if audits > 0 && i%auditStep == auditStep-1 {
					if !submitAudit(i) {
						return
					}
					audits--
				}
			}
			for ; audits > 0; audits-- { // leftovers from integer spacing
				if !submitAudit(audits) {
					return
				}
			}
		}(sub, n, audits)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	after := c.Net.Stats()

	// Quiescence + conservation: every settled chain's money is back on
	// the books (pass-through LA nets to zero; NY lost what CHI gained).
	want := metric.Value(3*cfg.Families) * perKey
	sum := func() metric.Value {
		var total metric.Value
		for id, keys := range initial {
			for k := range keys {
				total += c.Site(id).Store.Get(k)
			}
		}
		return total
	}
	deadline := time.Now().Add(10 * time.Second)
	for sum() != want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	const piecesPerChain = 3
	res := &DistBenchResult{
		Workers:      cfg.Workers,
		Txns:         cfg.Txns,
		Pieces:       cfg.Txns * piecesPerChain,
		Elapsed:      elapsed,
		TPS:          float64(cfg.Txns) / elapsed.Seconds(),
		PiecesPerSec: float64(cfg.Txns*piecesPerChain) / elapsed.Seconds(),
		InitP50:      initRec.Percentile(50),
		InitP99:      initRec.Percentile(99),
		SettleP50:    settleRec.Percentile(50),
		SettleP99:    settleRec.Percentile(99),
		FramesPerTxn: float64(after.Sent-before.Sent) / float64(cfg.Txns),
		MsgsPerTxn:   float64(after.Payloads-before.Payloads) / float64(cfg.Txns),
		Conserved:    sum() == want,
	}
	return res, nil
}
