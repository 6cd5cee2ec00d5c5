package site

import (
	"context"
	"strings"
	"testing"
	"time"

	"asynctp/internal/fault"
	"asynctp/internal/metric"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// hookedCompCluster is compCluster plus a fault hook.
func hookedCompCluster(t *testing.T, hook fault.Hook) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		Strategy:          ChoppedQueues,
		AllowCompensation: true,
		Seed:              5,
		Placement: func(k storage.Key) simnet.SiteID {
			if strings.HasPrefix(string(k), "ny:") {
				return "NY"
			}
			return "LA"
		},
		Initial: map[simnet.SiteID]map[storage.Key]metric.Value{
			"NY": {"ny:X": 10000},
			"LA": {"la:Y": 10000, "la:frozen": 0},
		},
		RetransmitEvery: 10 * time.Millisecond,
		FaultHook:       hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// waitFired polls until the hook's crash has fired.
func waitFired(t *testing.T, hook *fault.CrashOnce, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !hook.Fired() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: fault hook never fired", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCompensationNotDoubledAfterPreAckCrash is the double-compensation
// regression: NY crashes after its compensating piece committed and
// staged everything but BEFORE the queue delivery was acked. The
// redelivered compensation activation must be recognized by its
// apply-log entry and absorbed, not applied again — ny:X ends at exactly its
// initial value, not over-refunded.
func TestCompensationNotDoubledAfterPreAckCrash(t *testing.T) {
	hook := &fault.CrashOnce{
		Point:      fault.PointPreAck,
		Site:       "NY",
		Piece:      -1,
		Compensate: true,
	}
	c := hookedCompCluster(t, hook)
	if err := c.RegisterPrograms([]*txn.Program{guardedTransfer(200)}); err != nil {
		t.Fatal(err)
	}
	// Freeze LA: the second piece rolls back after NY's debit committed,
	// so NY must run a compensating piece — where the hook strikes.
	c.Site("LA").Store.Set("la:frozen", 1)
	done := make(chan *Result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if res, err := c.Submit(ctx, 0); err == nil {
			done <- res
		}
	}()
	waitFired(t, hook, "pre-ack compensation crash")
	time.Sleep(20 * time.Millisecond)
	c.Site("NY").Recover()
	select {
	case res := <-done:
		if !res.RolledBack {
			t.Fatalf("result = %+v, want compensated rollback", res)
		}
	case <-time.After(25 * time.Second):
		t.Fatal("compensated rollback never settled through the injected crash")
	}
	// Let the redelivered compensation activation drain through the
	// apply log before checking the books.
	deadline := time.Now().Add(5 * time.Second)
	for hook.Hits() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if hook.Hits() < 2 {
		t.Fatal("compensation activation was never redelivered after the crash")
	}
	time.Sleep(50 * time.Millisecond)
	if got := c.Site("NY").Store.Get("ny:X"); got != 10000 {
		t.Errorf("ny:X = %d, want 10000 (compensated exactly once, not doubled)", got)
	}
	if got := c.Site("LA").Store.Get("la:Y"); got != 10000 {
		t.Errorf("la:Y = %d, want 10000 (credit never applied)", got)
	}
}

// TestPreReportCrashResurrectsLostStaging crashes LA after its middle
// chain piece committed but BEFORE the successor activation and report
// were staged (fault.PointPreReport). Only the redelivered activation —
// recognized by its apply-log entry, which then re-stages the children — can
// get the chain to settlement, and it must do so without re-applying
// LA's writes.
func TestPreReportCrashResurrectsLostStaging(t *testing.T) {
	hook := &fault.CrashOnce{
		Point: fault.PointPreReport,
		Site:  "LA",
		Piece: 1,
	}
	c, err := NewCluster(Config{
		Strategy: ChoppedQueues,
		Seed:     3,
		Placement: func(k storage.Key) simnet.SiteID {
			switch {
			case strings.HasPrefix(string(k), "ny:"):
				return "NY"
			case strings.HasPrefix(string(k), "la:"):
				return "LA"
			default:
				return "CHI"
			}
		},
		Initial: map[simnet.SiteID]map[storage.Key]metric.Value{
			"NY":  {"ny:A": 10000},
			"LA":  {"la:B": 10000},
			"CHI": {"chi:C": 10000},
		},
		RetransmitEvery: 10 * time.Millisecond,
		FaultHook:       hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.RegisterPrograms([]*txn.Program{chainProgram(100)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if res, err := c.Submit(ctx, 0); err == nil {
			done <- res
		}
	}()
	waitFired(t, hook, "pre-report crash")
	time.Sleep(20 * time.Millisecond)
	c.Site("LA").Recover()
	select {
	case res := <-done:
		if !res.Committed {
			t.Fatalf("result = %+v, want committed", res)
		}
	case <-time.After(25 * time.Second):
		t.Fatal("chain never settled: the lost staging was not resurrected")
	}
	// (The hook is not consulted on the dedup-hit redelivery, so
	// settlement itself is the proof that redelivery happened: the crash
	// destroyed the only other copy of the successor activation.)
	if got := c.Site("NY").Store.Get("ny:A"); got != 9900 {
		t.Errorf("ny:A = %d, want 9900", got)
	}
	if got := c.Site("LA").Store.Get("la:B"); got != 10000 {
		t.Errorf("la:B = %d, want 10000 (pass-through applied exactly once)", got)
	}
	if got := c.Site("CHI").Store.Get("chi:C"); got != 10100 {
		t.Errorf("chi:C = %d, want 10100 (credit applied exactly once)", got)
	}
}
