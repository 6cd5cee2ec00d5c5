package core_test

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"testing"

	"asynctp/internal/core"
	"asynctp/internal/history"
	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
	"asynctp/internal/workload"
)

// TestSubmitAllocs pins the allocations of one uncontended Submit on
// the contention table the local benchmark workloads run (8 hot keys):
// ESR-chopped under locking divergence control, as local-lock runs it,
// so per-piece goroutines, closures or channels on the walk cannot
// return unnoticed; and unchopped on the repair engine, as local-repair
// runs it, so a per-key side table, a second write per key or a
// validation window on rdc's Repair path cannot either. A drop below a
// pin is welcome: lower the pin.
func TestSubmitAllocs(t *testing.T) {
	w, err := workload.NewContention(workload.ContentionConfig{
		Keys: 8, Theta: 0.99, TransferTypes: 8, TransferCount: 1000, AuditCount: 1000 / 7,
		Amount: 1, InitialBalance: 1 << 40, Epsilon: 1 << 20, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	audit := len(w.Programs) - 1
	for _, tc := range []struct {
		name   string
		method core.Method
		engine core.EngineKind
		ti     int
		pieces int
		pin    float64
	}{
		{"transfer", core.Method3ESRChopDC, core.EngineLocking, 0, 2, 10},
		{"audit", core.Method3ESRChopDC, core.EngineLocking, audit, 8, 19},
		{"repair-transfer", core.BaselineESRDC, core.EngineRepair, 0, 1, 5},
		{"repair-audit", core.BaselineESRDC, core.EngineRepair, audit, 1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := workload.ConfigFor(w, tc.method, core.Static, false)
			cfg.Engine = tc.engine
			r, err := core.NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Set().Chopping(tc.ti).NumPieces(); got != tc.pieces {
				t.Fatalf("%s chopped into %d pieces, want %d; table changed", tc.name, got, tc.pieces)
			}
			ctx := context.Background()
			allocs := testing.AllocsPerRun(500, func() {
				res, err := r.Submit(ctx, tc.ti)
				if err != nil || !res.Committed {
					t.Fatalf("submit: committed=%v err=%v", res != nil && res.Committed, err)
				}
			})
			t.Logf("Submit(%s): %.1f allocs", tc.name, allocs)
			if allocs > tc.pin {
				t.Errorf("Submit(%s): %.1f allocs, pinned at %.0f", tc.name, allocs, tc.pin)
			}
		})
	}
}

// TestGroupPiecesCommitInProgramOrder checks the invariant the serial-
// replay oracle relies on, outside the explorer: with a chopped bank
// workload submitted concurrently, every group's committed pieces are
// disjoint in the recorded history and ordered by piece index, so its
// reads appear in program order.
func TestGroupPiecesCommitInProgramOrder(t *testing.T) {
	w, err := workload.NewBank(workload.BankConfig{
		Branches: 2, AccountsPerBranch: 4, InitialBalance: 1000, TransferAmount: 10,
		TransferTypes: 4, TransferCount: 60, AuditCount: 30, Epsilon: 100000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := workload.RunnerFor(w, core.Method3ESRChopDC, core.Static, true)
	if err != nil {
		t.Fatal(err)
	}
	audit := len(w.Programs) - 1
	if got := r.Set().Chopping(audit).NumPieces(); got < 3 {
		t.Fatalf("audit chopped into %d pieces; the check needs siblings", got)
	}
	if _, err := workload.Run(context.Background(), r, w, 8, 1); err != nil {
		t.Fatal(err)
	}

	txns, ops := r.Recorder().Snapshot()
	groupOf := r.GroupOf()
	// span is one committed piece's interval in the global sequence.
	type span struct {
		piece    int
		min, max uint64
	}
	byOwner := make(map[lock.Owner]*span)
	for _, tx := range txns {
		if tx.Status != history.Committed {
			continue
		}
		piece := 1
		if i := strings.LastIndex(tx.Name, "/p"); i >= 0 {
			if piece, err = strconv.Atoi(tx.Name[i+2:]); err != nil {
				t.Fatalf("piece name %q: %v", tx.Name, err)
			}
		}
		byOwner[tx.Owner] = &span{piece: piece}
	}
	for _, op := range ops {
		s := byOwner[op.Owner]
		if s == nil {
			continue
		}
		if s.min == 0 || op.Seq < s.min {
			s.min = op.Seq
		}
		if op.Seq > s.max {
			s.max = op.Seq
		}
	}
	groups := make(map[history.Group][]*span)
	for owner, s := range byOwner {
		g, ok := groupOf[owner]
		if !ok {
			t.Fatalf("committed owner %d has no group", owner)
		}
		groups[g] = append(groups[g], s)
	}
	chopped := 0
	for g, spans := range groups {
		sort.Slice(spans, func(i, j int) bool { return spans[i].min < spans[j].min })
		for i, s := range spans {
			if s.piece != i+1 {
				t.Fatalf("group %d: piece %d committed in position %d", g, s.piece, i+1)
			}
			if i > 0 && spans[i-1].max >= s.min {
				t.Fatalf("group %d: pieces %d and %d overlap", g, i, i+1)
			}
		}
		if len(spans) > 1 {
			chopped++
		}
	}
	if chopped == 0 {
		t.Fatal("no chopped group committed")
	}
}

// TestRegisterResolvesCells: Register resolves a program's keys to the
// store's cells once (and, on the locking engine, to its lock rows),
// Plan hands the same plan back, and attempts run through it, on both
// engine families.
func TestRegisterResolvesCells(t *testing.T) {
	for _, kind := range []core.EngineKind{core.EngineLocking, core.EngineRepair} {
		t.Run(kind.String(), func(t *testing.T) {
			store := storage.NewFrom(map[storage.Key]metric.Value{"a": 10})
			e := core.NewEngine(core.Config{Store: store, Engine: kind}, false, nil)
			p := txn.MustProgram("p", txn.AddOp("a", -1), txn.ReadOp("a"), txn.AddOp("fresh", 1))
			plan := e.Register(p)
			for i, op := range p.Ops {
				if plan.Cells[i] != store.Cell(op.Key) {
					t.Fatalf("op %d: registered cell is not the store's cell of %q", i, op.Key)
				}
			}
			// Only the locking engine resolves lock rows.
			if kind == core.EngineLocking {
				for i, op := range p.Ops {
					if plan.Rows[i] != e.Locks().Row(op.Key) {
						t.Fatalf("op %d: registered row is not the lock table's row of %q", i, op.Key)
					}
				}
			} else if plan.Rows != nil {
				t.Errorf("the %s engine resolved lock rows", kind)
			}
			if got := e.Plan(p); len(got.Cells) != len(plan.Cells) || &got.Cells[0] != &plan.Cells[0] {
				t.Errorf("Plan(p) is not the plan Register returned")
			}
			if store.Has("fresh") {
				t.Errorf("resolving a key made it present")
			}
			if got := e.Plan(txn.MustProgram("q", txn.ReadOp("a"))); got.Cells != nil || got.Rows != nil {
				t.Errorf("Plan of an unregistered program is not empty")
			}
			for i := 0; i < 2; i++ {
				out, _, _, err := e.Attempt(context.Background(), nil, lock.Owner(i+1), p, plan, metric.Strict, txn.Update)
				if err != nil {
					t.Fatalf("attempt %d: %v", i, err)
				}
				if want := metric.Value(9 - i); len(out.Reads) != 1 || out.Reads[0].Value != want {
					t.Errorf("attempt %d read %+v, want a = %d", i, out.Reads, want)
				}
			}
			if store.Get("a") != 8 || store.Get("fresh") != 2 {
				t.Errorf("store a=%d fresh=%d, want 8, 2", store.Get("a"), store.Get("fresh"))
			}
		})
	}
}
