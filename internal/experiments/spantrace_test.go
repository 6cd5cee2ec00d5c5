package experiments

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"asynctp/internal/core"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/site"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// spanPlane builds a plane with only the distributed span store armed.
func spanPlane(proc string) *obs.Plane {
	p := obs.NewPlane(nil, nil)
	p.EnableSpans(proc, 0)
	return p
}

// runSpanConform drives the conformance job stream (pair, chain, and
// compensating reject programs across three sites) sequentially over
// the given wire and returns the process's merged span set.
func runSpanConform(t *testing.T, seed int64, txns int, tcp bool) *obs.Merged {
	t.Helper()
	initial, programs, total := conformPrograms(2, txns, false)
	plane := spanPlane("p0")
	cfg := site.Config{
		Strategy:          site.ChoppedQueues,
		Placement:         distPlacement,
		Initial:           initial,
		Seed:              seed,
		RetransmitEvery:   5 * time.Millisecond,
		AllowCompensation: true,
		Obs:               plane,
	}
	if tcp {
		cfg.Net = NewLoopbackNet(seed, 0, 0, 0)
	}
	c, err := site.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterPrograms(programs); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < txns; i++ {
		for ti := range programs {
			if _, err := c.Submit(ctx, ti); err != nil {
				t.Fatalf("submit program %d round %d: %v", ti, i, err)
			}
		}
	}
	// Quiesce before dumping: the last settlement acks (and their spans)
	// may still be in flight when the final Submit returns.
	deadline := time.Now().Add(30 * time.Second)
	for {
		idle := true
		for _, id := range conformSites {
			if !c.Site(id).QueuesIdle() {
				idle = false
				break
			}
		}
		if idle || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var sum metric.Value
	for _, id := range conformSites {
		s := c.Site(id)
		for _, k := range s.Store.Keys() {
			if len(k) >= 2 && k[:2] == "__" {
				continue
			}
			sum += s.Store.Get(k)
		}
	}
	if sum != total {
		t.Fatalf("value not conserved: total %d, want %d", sum, total)
	}
	return obs.MergeSpans([]obs.ProcSpans{plane.Spans.Dump()})
}

// TestSpanTreesConnectedSimAndTCP is the wire-independence claim: a
// sequential conformance run — including compensating rollbacks — must
// produce one fully connected span tree per transaction with zero
// orphans, over the in-process simnet AND over real TCP loopback
// sockets, and the two wires' canonical span exports must be
// byte-identical (structural spans are a pure function of the job
// stream, not of the transport).
func TestSpanTreesConnectedSimAndTCP(t *testing.T) {
	const txns = 4
	exports := map[string][]byte{}
	for _, wire := range []string{"sim", "tcp"} {
		m := runSpanConform(t, 11, txns, wire == "tcp")
		if len(m.Traces) == 0 {
			t.Fatalf("%s: no traces recorded", wire)
		}
		for _, mt := range m.Traces {
			if !mt.Connected {
				t.Errorf("%s: trace %d not connected (%d spans, %d orphans, root %d)",
					wire, mt.Trace, len(mt.Spans), mt.Orphans, mt.Root)
			}
		}
		if m.Orphans != 0 {
			t.Errorf("%s: %d orphaned spans, want 0", wire, m.Orphans)
		}
		r := obs.AnalyzeCriticalPath(m, 0)
		if r.Attributed != r.Traces {
			t.Errorf("%s: attributed %d of %d traces", wire, r.Attributed, r.Traces)
		}
		if r.MaxSumErr > 0.05 {
			t.Errorf("%s: phase sums off by %.2f%%, tolerance 5%%", wire, 100*r.MaxSumErr)
		}
		var buf bytes.Buffer
		if err := obs.ExportCanonicalSpans(&buf, m); err != nil {
			t.Fatal(err)
		}
		exports[wire] = buf.Bytes()
	}
	if !bytes.Equal(exports["sim"], exports["tcp"]) {
		t.Errorf("canonical span exports differ between sim and tcp wires: len %d vs %d",
			len(exports["sim"]), len(exports["tcp"]))
	}
}

// TestSpanExportDeterministicAcrossRuns repeats the seeded sim run and
// requires byte-identical canonical exports: the export must not leak
// scheduling (instance IDs, timestamps, Lamport clocks).
func TestSpanExportDeterministicAcrossRuns(t *testing.T) {
	export := func() []byte {
		m := runSpanConform(t, 7, 3, false)
		var buf bytes.Buffer
		if err := obs.ExportCanonicalSpans(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical span exports differ across same-seed runs: len %d vs %d", len(a), len(b))
	}
}

// TestAttributionSumInvariantAcrossEngines is the property test behind
// the critical-path report: for every settled transaction, the
// per-phase durations must sum to the span tree's end-to-end duration
// (within 5% tolerance for interval clamping), across the locking,
// optimistic, and repair engines under real concurrency.
func TestAttributionSumInvariantAcrossEngines(t *testing.T) {
	engines := []struct {
		name   string
		engine core.EngineKind
	}{
		{"locking", core.EngineLocking},
		{"optimistic", core.EngineOptimistic},
		{"repair", core.EngineRepair},
	}
	for _, e := range engines {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			store := storage.NewFrom(map[storage.Key]metric.Value{"X": 5000, "Y": 5000})
			xfer := txn.MustProgram("xfer", txn.AddOp("X", -10), txn.AddOp("Y", 10))
			audit := txn.MustProgram("audit", txn.ReadOp("X"), txn.ReadOp("Y"))
			plane := spanPlane("p0")
			r, err := core.NewRunner(core.Config{
				Method:   core.BaselineSRCC,
				Store:    store,
				Programs: []*txn.Program{xfer, audit},
				Counts:   []int{30, 10},
				Engine:   e.engine,
				Obs:      plane,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var wg sync.WaitGroup
			errs := make(chan error, 40)
			submit := func(ti int) {
				defer wg.Done()
				if _, err := r.Submit(ctx, ti); err != nil {
					errs <- fmt.Errorf("program %d: %w", ti, err)
				}
			}
			for i := 0; i < 30; i++ {
				wg.Add(1)
				go submit(0)
			}
			for i := 0; i < 10; i++ {
				wg.Add(1)
				go submit(1)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			m := obs.MergeSpans([]obs.ProcSpans{plane.Spans.Dump()})
			rep := obs.AnalyzeCriticalPath(m, 0)
			if rep.Attributed != 40 {
				t.Errorf("attributed %d traces, want 40", rep.Attributed)
			}
			if rep.MaxSumErr > 0.05 {
				t.Errorf("phase sums off by %.2f%%, tolerance 5%%", 100*rep.MaxSumErr)
			}
			for _, a := range rep.All {
				if a.Sum() == 0 {
					t.Errorf("trace %d attributed nothing across %v total", a.Trace, a.Total)
				}
			}
		})
	}
}
