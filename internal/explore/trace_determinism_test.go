package explore

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"asynctp/internal/core"
	"asynctp/internal/obs"
	"asynctp/internal/oracle"
)

// canonicalTrace runs the DC bank scenario over a few scheduler seeds
// into one shared span store and returns the canonical span export,
// with the number of instances the sweep submitted. The canonical
// export is specified to be a pure function of (scenario, seeds,
// strategy): structural spans only, content signatures in place of
// timestamps and IDs.
func canonicalTrace(t *testing.T, seeds int) ([]byte, int) {
	t.Helper()
	base := obs.NewPlane(nil, nil)
	base.EnableSpans("p0", 0)
	sc := BankScenario(core.Method3ESRChopDC, core.EngineLocking, core.Static, 600)
	sc.Ledger = true
	sc.Base = base
	for seed := 1; seed <= seeds; seed++ {
		if _, err := Run(sc, int64(seed), StrategyConflict, oracle.Config{MaxOrders: 50, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	m := obs.MergeSpans([]obs.ProcSpans{base.Spans.Dump()})
	if m.Orphans != 0 || m.ConnectedFraction() != 1 {
		t.Errorf("grafted sweep: %d orphans, %.2f of traces connected; want 0 and all",
			m.Orphans, m.ConnectedFraction())
	}
	var buf bytes.Buffer
	if err := obs.ExportCanonicalSpans(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), seeds * len(sc.Submissions)
}

// TestCanonicalTraceDeterministic is the trace-determinism regression:
// two complete runs of the same seeded scenario sweep must export
// byte-identical canonical traces (CI repeats the same check end to
// end through cmd/distbench and diffs the files). Every run numbers its
// instances from the same base, so the sweep must still keep one trace
// per submitted instance rather than fold the runs together.
func TestCanonicalTraceDeterministic(t *testing.T) {
	a, submitted := canonicalTrace(t, 3)
	b, _ := canonicalTrace(t, 3)
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical exports differ across identical seeded runs:\nlen %d vs %d", len(a), len(b))
	}
	s := string(a)
	for _, want := range []string{`"txn/`, `"piece/`} {
		if !strings.Contains(s, want) {
			t.Errorf("canonical export missing %s spans", want)
		}
	}
	if want := `"traces":` + strconv.Itoa(submitted) + "}"; !strings.Contains(s, want) {
		t.Errorf("canonical export should hold one trace per submitted instance (%s); tail %q",
			want, s[max(0, len(s)-40):])
	}
}
