package tenant

import (
	"context"
	"strings"
	"sync"
	"testing"

	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// The partitions share one observability plane — one ledger, one
// span store. What keeps tenant A's ε accounting out of tenant B's books is
// core.Config.IDBase: partition k mints owner and group IDs from
// (k+1)<<40, so two runners can never bind the same ledger page. These
// tests pin that seam: heavy conflict-and-retry traffic on A's
// partition must not leave a single debit, receipt, or shared group on
// B's accounts.

// contendedTenant builds a tenant whose audit queries import up to eps
// from transfers hammering one hot pair — the E1 bank shape, scoped to
// one tenant's keyspace.
func contendedTenant(name string, eps metric.Fuzz) Tenant {
	hot := storage.Key(name + ":hot")
	sink := storage.Key(name + ":sink")
	xfer := txn.MustProgram(name+"/xfer",
		txn.AddOp(hot, -5),
		txn.AddOp(sink, 5),
	)
	audit := txn.MustProgram(name+"/audit",
		txn.ReadOp(hot),
		txn.ReadOp(sink),
	).WithSpec(metric.Spec{Import: metric.LimitOf(eps), Export: metric.Zero})
	return Tenant{
		Name:     name,
		Programs: []*txn.Program{xfer, audit},
		Initial:  map[storage.Key]metric.Value{hot: 10000, sink: 0},
	}
}

func TestLedgerIsolationAcrossPartitions(t *testing.T) {
	ledger := obs.NewLedger()
	plane := obs.NewPlane(ledger, nil)
	s, err := New(Config{
		Partitions: 2,
		Pools:      2,
		Workers:    2,
		Obs:        plane,
		Assign:     modAssign(2),
	}, []Tenant{contendedTenant("t0", 1000), contendedTenant("t1", 1000)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Drive both partition runners directly and concurrently — below
	// the mailbox, where real engine-level contention (lock conflicts,
	// DC absorption, retries) happens. The serving layer's accessors
	// exist exactly for this kind of audit.
	ctx := context.Background()
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		r := s.Runner(k)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					if _, err := r.Submit(ctx, i%2); err != nil {
						t.Errorf("runner submit: %v", err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()

	accounts := ledger.Accounts()
	if len(accounts) == 0 {
		t.Fatal("no ledger accounts — contention run produced no ε transactions")
	}
	// Partition k's groups must live in ((k+1)<<40, (k+2)<<40).
	lo, hi := int64(1)<<40, int64(2)<<40
	var absorbed bool
	for _, a := range accounts {
		var want string
		switch {
		case a.Group > lo && a.Group < hi:
			want = "t0/"
		case a.Group > hi && a.Group < int64(3)<<40:
			want = "t1/"
		default:
			t.Fatalf("group %d outside any partition's ID range", a.Group)
		}
		if a.Name != "" && !strings.HasPrefix(a.Name, want) {
			t.Errorf("group %d bound to %q — a foreign tenant's program on this partition's ledger range", a.Group, a.Name)
		}
		// Every receipt's peer must be a neighbour from the same
		// partition: a cross-partition peer would mean one tenant's
		// conflict debited against another's transaction.
		for _, ch := range a.Charges {
			if ch.Peer == 0 {
				continue // settled/unknown peer: no attribution
			}
			sameRange := (a.Group < hi) == (ch.Peer < hi)
			if !sameRange {
				t.Errorf("group %d charge on %q has cross-partition peer %d", a.Group, ch.Key, ch.Peer)
			}
			absorbed = true
		}
	}
	if !absorbed {
		t.Log("note: no conflicts were absorbed this run; isolation of group ranges still verified")
	}
}

func TestTenantEpsChargesStayWithTheirTenant(t *testing.T) {
	// Serving-layer view of the same property: tenant A overloads and
	// pays ε on the degrade path; tenant B, co-resident in the same
	// process and plane, must stay at zero charged.
	ta := contendedTenant("t0", 100)
	ta.Rate, ta.Burst = 1000, 1
	tb := contendedTenant("t1", 100)
	now, _ := frozenClock()
	plane := obs.NewPlane(nil, obs.NewRegistry())
	s, err := New(Config{Partitions: 2, Obs: plane, Assign: modAssign(2), Now: now}, []Tenant{ta, tb})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Submit(ctx, "t0", 0); err != nil { // burn t0's burst
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // t0 degrades, charging 100 each
		if res, err := s.Submit(ctx, "t0", 1); err != nil || !res.Degraded {
			t.Fatalf("t0 degrade %d: res=%+v err=%v", i, res, err)
		}
	}
	for i := 0; i < 5; i++ { // t1 cruises on the normal path
		if res, err := s.Submit(ctx, "t1", i%2); err != nil || res.Degraded {
			t.Fatalf("t1 submit %d: res=%+v err=%v", i, res, err)
		}
	}
	if st := s.TenantStats("t0"); st.EpsCharged != 300 {
		t.Errorf("t0 EpsCharged = %d, want 300", st.EpsCharged)
	}
	if st := s.TenantStats("t1"); st.EpsCharged != 0 || st.Degraded != 0 {
		t.Errorf("t1 stats = %+v, want zero ε activity", st)
	}
	// The plane's per-tenant summary reflects the same split.
	var sawT0 bool
	for _, line := range plane.Summary() {
		if strings.Contains(line, "tenant t0:") {
			sawT0 = true
			if !strings.Contains(line, "300 ε charged") {
				t.Errorf("plane summary for t0: %q, want 300 ε charged", line)
			}
		}
		if strings.Contains(line, "tenant t1:") && !strings.Contains(line, "0 ε charged") {
			t.Errorf("plane summary for t1: %q, want 0 ε charged", line)
		}
	}
	if !sawT0 {
		t.Error("plane summary missing tenant t0 line")
	}
}
