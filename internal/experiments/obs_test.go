package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"asynctp/internal/explore"
	"asynctp/internal/obs"
)

// distCanonicalTrace drives the full distributed pipeline (chopped
// queues, DC, audits) with a single sequential submitter — the
// trace-deterministic configuration — and returns the canonical export.
func distCanonicalTrace(t *testing.T) []byte {
	t.Helper()
	tr := obs.NewTracer(0)
	plane := obs.NewPlane(tr, obs.NewLedger(), nil)
	res, err := RunDistBench(DistBenchConfig{
		Latency:    200 * time.Microsecond,
		Seed:       7,
		Workers:    2,
		Submitters: 1,
		Txns:       12,
		Families:   4,
		UseDC:      true,
		Audits:     3,
		Plane:      plane,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conserved {
		t.Fatal("money not conserved")
	}
	var buf bytes.Buffer
	if err := obs.ExportCanonical(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDistPipelineCanonicalTraceDeterministic checks the acceptance
// claim end to end: a seeded distbench run's canonical Chrome trace
// shows the transaction → piece → lock → DC → queue → site span
// hierarchy and is byte-identical across two same-seed runs.
func TestDistPipelineCanonicalTraceDeterministic(t *testing.T) {
	a := distCanonicalTrace(t)
	b := distCanonicalTrace(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("distributed canonical exports differ across same-seed runs: len %d vs %d", len(a), len(b))
	}
	s := string(a)
	for _, want := range []string{
		`"cat":"txn"`, `"cat":"piece"`, `"cat":"lock"`,
		`"cat":"dc"`, `"cat":"queue"`, `"cat":"site"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("distributed canonical export missing %s events", want)
		}
	}
}

// TestLedgerReconciliationMisbudget is the ε-provenance control pair:
// the correctly budgeted run's ledger must charge every query within
// its declared budget, and under BudgetScale=8 the ledger's recorded
// charges must exceed the declared ε on (at least) every query the
// oracle flags — provenance agrees with ground truth about which
// queries went over and why.
func TestLedgerReconciliationMisbudget(t *testing.T) {
	cfg := ConformanceConfig{Seed: 1, Seeds: 8, Budget: 100}.withDefaults()

	good := explore.MisbudgetScenario(1)
	good.Ledger = true
	gRow, err := sweepScenario(good, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !gRow.allOK {
		t.Errorf("correctly budgeted control flagged by the oracle (%d violations)", gRow.violations)
	}
	if gRow.ledgerOver != 0 {
		t.Errorf("correctly budgeted control: ledger flagged %d runs over budget, want 0", gRow.ledgerOver)
	}

	bad := explore.MisbudgetScenario(8)
	bad.Ledger = true
	bRow, err := sweepScenario(bad, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bRow.allOK {
		t.Fatal("mis-budgeted control not caught by the oracle — test needs a hotter schedule")
	}
	if bRow.ledgerOver == 0 {
		t.Error("mis-budgeted control: ledger never flagged an over-budget query")
	}
	if bRow.flaggedMissed != 0 {
		t.Errorf("%d oracle-flagged queries were NOT over budget in the ledger — provenance lost charges",
			bRow.flaggedMissed)
	}
	if bRow.recon == nil {
		t.Fatal("no reconciliation captured")
	}
	var b strings.Builder
	bRow.recon.WriteTable(&b)
	if !strings.Contains(b.String(), "OVER-BUDGET") {
		t.Errorf("representative reconciliation table shows no OVER-BUDGET row:\n%s", b.String())
	}
}
