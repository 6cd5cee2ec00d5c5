// Benchmark harness: one bench per paper table/figure plus the
// micro-benchmarks behind them. The macro benches (Table1, Figure2, E1,
// E2) regenerate the corresponding experiment tables; run them with
// -benchtime=1x for a single regeneration, or let the framework repeat
// them for stable timings. EXPERIMENTS.md records the shape comparison
// against the paper.
package asynctp_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"asynctp"
	"asynctp/internal/chop"
	"asynctp/internal/core"
	"asynctp/internal/experiments"
	"asynctp/internal/metric"
	"asynctp/internal/simnet"
	"asynctp/internal/site"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
	"asynctp/internal/workload"
)

// ---------------------------------------------------------------------
// T1 — Table 1 (macro): regenerate the correctness matrix.
// ---------------------------------------------------------------------

func BenchmarkTable1Matrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Table1(42)
		if err != nil {
			b.Fatal(err)
		}
		if strings.Contains(rep.Table.String(), "VIOLATION") {
			b.Fatal("correctness violation in Table 1")
		}
	}
}

// ---------------------------------------------------------------------
// F1/F3 — chopping analysis on the paper's figures (micro).
// ---------------------------------------------------------------------

func BenchmarkFigure1Analysis(b *testing.B) {
	set := chop.Figure1Example()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := chop.Analyze(set)
		if a.HasSCCycle {
			b.Fatal("unexpected SC-cycle")
		}
	}
}

func BenchmarkFigure3Analysis(b *testing.B) {
	set := chop.Figure3Example()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := chop.Analyze(set)
		if a.InterSibling[0].Cmp(metric.LimitOf(10)) != 0 {
			b.Fatal("wrong Z^is")
		}
	}
}

// ---------------------------------------------------------------------
// F2 — ε-distribution policies (macro): one full stream per iteration.
// ---------------------------------------------------------------------

func BenchmarkStaticVsDynamic(b *testing.B) {
	for _, dist := range []core.Distribution{core.Static, core.Dynamic, core.Proportional, core.Naive} {
		b.Run(dist.String(), func(b *testing.B) {
			w, err := workload.NewBank(workload.BankConfig{
				Branches: 1, AccountsPerBranch: 4,
				InitialBalance: 100000, TransferAmount: 100,
				TransferTypes: 2, TransferCount: 20, AuditCount: 10,
				Epsilon: 6000, IntraBranch: true, Seed: 7,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := workload.RunnerFor(w, core.Method1SRChopDC, dist, false)
				if err != nil {
					b.Fatal(err)
				}
				res, err := workload.Run(context.Background(), r, w, 8, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if res.MaxDeviation > 6000 {
					b.Fatalf("deviation %d > ε", res.MaxDeviation)
				}
				b.ReportMetric(res.ThroughputTPS, "txn/s")
				b.ReportMetric(float64(res.Retries), "retries")
			}
		})
	}
}

// ---------------------------------------------------------------------
// E1 — Section 5 method comparison: per-method throughput of the same
// contended stream.
// ---------------------------------------------------------------------

func BenchmarkMethods(b *testing.B) {
	for _, method := range core.Methods() {
		b.Run(method.String(), func(b *testing.B) {
			w, err := workload.NewBank(workload.BankConfig{
				Branches: 1, AccountsPerBranch: 4,
				InitialBalance: 1000000, TransferAmount: 100,
				TransferTypes: 2, TransferCount: 20, AuditCount: 10,
				Epsilon: 8000, IntraBranch: true, Seed: 7,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := workload.ConfigFor(w, method, core.Static, false)
				cfg.OpDelay = 50 * time.Microsecond
				r, err := core.NewRunner(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := workload.Run(context.Background(), r, w, 12, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.ThroughputTPS, "txn/s")
			}
		})
	}
}

// ---------------------------------------------------------------------
// E2 — Section 4 distributed comparison: one cross-branch transfer per
// iteration on a prepared cluster.
// ---------------------------------------------------------------------

func benchCluster(b *testing.B, strategy site.Strategy, oneWay time.Duration) *site.Cluster {
	b.Helper()
	c, err := site.NewCluster(site.Config{
		Strategy: strategy,
		Latency:  oneWay,
		Seed:     1,
		Placement: func(k storage.Key) simnet.SiteID {
			if strings.HasPrefix(string(k), "ny:") {
				return "NY"
			}
			return "LA"
		},
		Initial: map[simnet.SiteID]map[storage.Key]metric.Value{
			"NY": {"ny:X": 1 << 40},
			"LA": {"la:Y": 1 << 40},
		},
		RetransmitEvery: 5 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	xfer := txn.MustProgram("xfer",
		txn.AddOp("ny:X", -100), txn.AddOp("la:Y", 100))
	if err := c.RegisterPrograms([]*txn.Program{xfer}); err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkDistributed2PCvsQueues(b *testing.B) {
	for _, oneWay := range []time.Duration{0, 5 * time.Millisecond} {
		for _, strategy := range []site.Strategy{site.TwoPhaseCommit, site.ChoppedQueues} {
			name := fmt.Sprintf("%s/oneway=%s", strategy, oneWay)
			b.Run(name, func(b *testing.B) {
				c := benchCluster(b, strategy, oneWay)
				ctx := context.Background()
				var sumInit time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := c.Submit(ctx, 0)
					if err != nil {
						b.Fatal(err)
					}
					sumInit += res.Initiation
				}
				b.StopTimer()
				b.ReportMetric(float64(sumInit.Microseconds())/float64(b.N), "init-µs/txn")
			})
		}
	}
}

// ---------------------------------------------------------------------
// E3 — ε splitting: concurrent transfers and audits under distributed
// divergence control.
// ---------------------------------------------------------------------

func BenchmarkDistributedEpsilonSplit(b *testing.B) {
	c, err := site.NewCluster(site.Config{
		Strategy: site.ChoppedQueues,
		UseDC:    true,
		Seed:     1,
		Placement: func(k storage.Key) simnet.SiteID {
			if strings.HasPrefix(string(k), "ny:") {
				return "NY"
			}
			return "LA"
		},
		Initial: map[simnet.SiteID]map[storage.Key]metric.Value{
			"NY": {"ny:X": 1 << 40},
			"LA": {"la:Y": 1 << 40},
		},
		RetransmitEvery: 5 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	spec := metric.SpecOf(1000000)
	if err := c.RegisterPrograms([]*txn.Program{
		txn.MustProgram("xfer", txn.AddOp("ny:X", -400000), txn.AddOp("la:Y", 400000)).WithSpec(spec),
		txn.MustProgram("audit", txn.ReadOp("ny:X"), txn.ReadOp("la:Y")).WithSpec(spec),
	}); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j := 0; j < 2; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Submit(ctx, 0); err != nil {
					b.Error(err)
				}
			}()
		}
		if _, err := c.Submit(ctx, 1); err != nil {
			b.Fatal(err)
		}
		wg.Wait()
	}
}

// ---------------------------------------------------------------------
// E4 — hazard analysis cost (micro).
// ---------------------------------------------------------------------

func BenchmarkHazardDetection(b *testing.B) {
	set := chop.HazardExample()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := chop.Analyze(set)
		if len(a.UpdateUpdateViolations) == 0 {
			b.Fatal("hazard missed")
		}
	}
}

// ---------------------------------------------------------------------
// Algorithmic micro-benchmarks: the off-line phase itself.
// ---------------------------------------------------------------------

func BenchmarkFindESRStream(b *testing.B) {
	w, err := workload.NewBank(workload.BankConfig{
		Branches: 4, AccountsPerBranch: 8,
		InitialBalance: 100000, TransferAmount: 100,
		TransferTypes: 12, TransferCount: 25, AuditCount: 5,
		Epsilon: 100000, IntraBranch: true, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	stream := make(chop.Stream, len(w.Programs))
	for i, p := range w.Programs {
		stream[i] = chop.StreamItem{Program: p, Count: w.Counts[i]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chop.FindESRStream(stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecutorTransfer(b *testing.B) {
	store := asynctp.NewStoreFrom(map[asynctp.Key]asynctp.Value{"x": 1 << 40, "y": 0})
	r, err := asynctp.NewRunner(asynctp.Config{
		Method: asynctp.BaselineSRCC,
		Store:  store,
		Programs: []*asynctp.Program{
			asynctp.MustProgram("xfer", asynctp.AddOp("x", -1), asynctp.AddOp("y", 1)),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Submit(ctx, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDivergenceControlAbsorb(b *testing.B) {
	// Steady-state fuzzy grants: an update holds X while queries read
	// through it.
	store := asynctp.NewStoreFrom(map[asynctp.Key]asynctp.Value{"x": 1 << 40, "y": 0})
	r, err := asynctp.NewRunner(asynctp.Config{
		Method: asynctp.BaselineESRDC,
		Store:  store,
		Programs: []*asynctp.Program{
			asynctp.MustProgram("xfer",
				asynctp.AddOp("x", -1), asynctp.AddOp("y", 1)).WithSpec(asynctp.Unbounded),
			asynctp.MustProgram("audit",
				asynctp.ReadOp("x"), asynctp.ReadOp("y")).WithSpec(asynctp.Unbounded),
		},
		Counts: []int{1 << 20, 1 << 20},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := r.Submit(ctx, i%2); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// ---------------------------------------------------------------------
// E5 — locking vs optimistic divergence control on one workload.
// ---------------------------------------------------------------------

func BenchmarkEngines(b *testing.B) {
	for _, kind := range []core.EngineKind{core.EngineLocking, core.EngineOptimistic} {
		b.Run(kind.String(), func(b *testing.B) {
			w, err := workload.NewBank(workload.BankConfig{
				Branches: 1, AccountsPerBranch: 4,
				InitialBalance: 1 << 30, TransferAmount: 100,
				TransferTypes: 2, TransferCount: 20, AuditCount: 10,
				Epsilon: 8000, IntraBranch: true, Seed: 7,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := workload.ConfigFor(w, core.BaselineESRDC, core.Static, false)
				cfg.OpDelay = 50 * time.Microsecond
				cfg.Engine = kind
				r, err := core.NewRunner(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := workload.Run(context.Background(), r, w, 12, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if res.MaxDeviation > 8000 {
					b.Fatalf("deviation %d > ε", res.MaxDeviation)
				}
				b.ReportMetric(res.ThroughputTPS, "txn/s")
			}
		})
	}
}
