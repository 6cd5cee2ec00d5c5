package experiments

import (
	"testing"
	"time"

	"asynctp/internal/site"
)

// TestDistBenchSmoke runs a tiny distbench: it must settle every
// chain, conserve money, and coalesce, sending fewer network frames per
// chain than it delivers application messages.
func TestDistBenchSmoke(t *testing.T) {
	cfg := DistBenchConfig{
		Latency:    200 * time.Microsecond,
		Seed:       9,
		Submitters: 8,
		Txns:       64,
		Families:   8,
	}
	res, err := RunDistBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns != cfg.Txns {
		t.Errorf("txns = %d, want %d", res.Txns, cfg.Txns)
	}
	if !res.Conserved {
		t.Error("money not conserved")
	}
	if res.TPS <= 0 || res.PiecesPerSec <= 0 {
		t.Errorf("degenerate throughput %+v", res)
	}
	if res.SettleP50 < res.InitP50 {
		t.Errorf("settlement p50 %v < initiation p50 %v", res.SettleP50, res.InitP50)
	}
	if res.FramesPerTxn >= res.MsgsPerTxn {
		t.Errorf("frames/txn %.2f >= msgs/txn %.2f: coalescing bought nothing",
			res.FramesPerTxn, res.MsgsPerTxn)
	}
}

// TestChaosStormAcrossWorkerPools reruns the crash-storm scenario with
// the worker pool squeezed to 1 and widened to 8: the paper's safety
// argument is scheduling-independent, so both must settle every chain
// and conserve money, and the seeded fault timeline must be identical
// (satellite: WithWorkers under chaos).
func TestChaosStormAcrossWorkerPools(t *testing.T) {
	var refFired []string
	for _, workers := range []int{1, 8} {
		cfg := soakCfg()
		cfg.Workers = workers
		out, err := RunChaosScenario(site.ChoppedQueues, ScenarioCrashStorm, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if out.Settled != cfg.Chains {
			t.Errorf("workers=%d: settled %d/%d (failed %d)",
				workers, out.Settled, cfg.Chains, out.Failed)
		}
		if !out.Conserved {
			t.Errorf("workers=%d: money not conserved", workers)
		}
		if refFired == nil {
			refFired = out.Fired
			continue
		}
		if len(out.Fired) != len(refFired) {
			t.Fatalf("workers=8 fired %v, workers=1 fired %v", out.Fired, refFired)
		}
		for i := range refFired {
			if out.Fired[i] != refFired[i] {
				t.Errorf("fired[%d] = %q with workers=8, %q with workers=1",
					i, out.Fired[i], refFired[i])
			}
		}
	}
}
