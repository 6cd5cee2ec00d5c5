//go:build !race

package site

import (
	"context"
	"testing"

	"asynctp/internal/metric"
	"asynctp/internal/queue"
)

// TestRunPieceAllocs pins the allocations of one piece attempt at a
// site — the registered piece program with its apply-log entry, the
// engine attempt under divergence control and its commit batch — the
// way core's TestSubmitAllocs pins a local submission. The workers are
// stopped and every iteration runs the transfer's LA piece (no
// children to stage) under a fresh instance and delivery. The race
// detector allocates on its own account, so the file builds without it
// only.
func TestRunPieceAllocs(t *testing.T) {
	c := twoBranches(t, ChoppedQueues, true, 0)
	if err := c.RegisterPrograms(bankPrograms(1, metric.SpecOf(1000))); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.sites {
		s.stopWorkersAndWait()
	}
	la := c.Site("LA")
	dp := c.dist.programs[0]
	if len(dp.children[1]) != 0 {
		t.Fatalf("xfer's LA piece has children %v; the test wants a leaf", dp.children[1])
	}
	ctx := context.Background()
	log := newApplyLog(la.Store, 0)
	inst := uint64(1 << 32)
	const pin = 3
	allocs := testing.AllocsPerRun(500, func() {
		inst++
		log.begin()
		done, err := la.runPiece(ctx, activation{Inst: inst, Origin: "NY", Piece: 1}, dp,
			log.entry(queue.Msg{From: "NY", Seq: inst}), nil)
		if err != nil || done.Inst != inst {
			t.Fatalf("runPiece: done=%+v err=%v", done, err)
		}
	})
	t.Logf("runPiece: %.1f allocs", allocs)
	if allocs > pin {
		t.Errorf("runPiece: %.1f allocs, pinned at %d", allocs, pin)
	}
}

// TestPrepareAllocs pins the allocations of one 2PC prepare at a
// participant: LA's registered sub-transaction of the transfer, held
// at its commit point under divergence control, then aborted so that
// the next prepare finds its locks free. No coordinator takes part.
func TestPrepareAllocs(t *testing.T) {
	c := twoBranches(t, TwoPhaseCommit, true, 0)
	if err := c.RegisterPrograms(bankPrograms(1, metric.SpecOf(1000))); err != nil {
		t.Fatal(err)
	}
	la := c.Site("LA")
	payload := laSubTxn(c.dist.programs[0])
	ctx := context.Background()
	const pin = 7
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := la.prepare2PC(ctx, "xfer-1", payload); err != nil {
			t.Fatalf("prepare2PC: %v", err)
		}
		la.abort2PC("xfer-1")
	})
	t.Logf("prepare2PC: %.1f allocs", allocs)
	if allocs > pin {
		t.Errorf("prepare2PC: %.1f allocs, pinned at %d", allocs, pin)
	}
}

// laSubTxn is the prepare payload of dp's sub-transaction at LA.
func laSubTxn(dp *distProgram) subTxn {
	for i, sub := range dp.subs {
		if sub.site == "LA" {
			return subTxn{Inst: 1, TxType: 0, Piece: i}
		}
	}
	panic("no LA sub-transaction")
}
