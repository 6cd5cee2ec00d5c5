package experiments

import (
	"testing"
	"time"
)

// TestNetConformance is the transport-twin equivalence table: for each
// scenario, one seeded run over the in-process simnet and one over real
// TCP loopback sockets must produce identical settlement audits —
// outcome counts, final ledger, conservation, exactly-once counts from
// the history, and the ε bound. The expected values are also asserted
// absolutely (they are pure functions of the job stream), so a bug that
// breaks BOTH transports the same way still fails.
func TestNetConformance(t *testing.T) {
	scenarios := []NetScenario{
		{Name: "clean-dc", Txns: 6, Seed: 11, UseDC: true},
		{Name: "loss", Txns: 5, Seed: 7, LossRate: 0.05},
		{Name: "latency", Txns: 5, Seed: 3, Latency: 2 * time.Millisecond, Jitter: 0.5},
		{Name: "partition", Txns: 4, Seed: 19, Partition: true},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			sim, err := RunNetConformance(sc, nil)
			if err != nil {
				t.Fatalf("simnet run: %v", err)
			}
			tcp, err := RunNetConformance(sc, NewLoopbackNet(sc.Seed, sc.LossRate, sc.Latency, sc.Jitter))
			if err != nil {
				t.Fatalf("tcp run: %v", err)
			}
			if !sim.Equal(tcp) {
				t.Fatalf("transports disagree on settlement:\n%s", sim.Diff(tcp))
			}

			// Absolute expectations, derived from the job stream: per
			// family (2) and per round (Txns), the pair and chain commit
			// (2+3 pieces) and the reject rolls back with pieces 0,1
			// committed then compensated.
			T := sc.Txns
			want := SettlementAudit{
				Settled:       6 * T,
				Committed:     4 * T,
				RolledBack:    2 * T,
				Compensated:   2 * T,
				AppliedPieces: 14 * T,
				CompPieces:    4 * T,
				RolledMarkers: 2 * T,
			}
			for name, got := range map[string][2]int{
				"settled":        {sim.Settled, want.Settled},
				"committed":      {sim.Committed, want.Committed},
				"rolledback":     {sim.RolledBack, want.RolledBack},
				"compensated":    {sim.Compensated, want.Compensated},
				"applied-pieces": {sim.AppliedPieces, want.AppliedPieces},
				"comp-pieces":    {sim.CompPieces, want.CompPieces},
				"duplicates":     {sim.Duplicates, 0},
				"rolled-markers": {sim.RolledMarkers, want.RolledMarkers},
			} {
				if got[0] != got[1] {
					t.Errorf("%s = %d, want %d", name, got[0], got[1])
				}
			}
			if !sim.Conserved {
				t.Errorf("value not conserved: total %d", sim.Total)
			}
			if !sim.EpsilonOK {
				t.Errorf("imported inconsistency exceeded a program's ε-spec")
			}
		})
	}
}
