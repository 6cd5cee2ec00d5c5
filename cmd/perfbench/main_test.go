package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asynctp/internal/obs"
)

func TestCheckMinRatio(t *testing.T) {
	rows := []Result{
		{Suite: "tenants", Variant: "partition-speedup/parts=8", Workers: 8, TPS: 4.5},
		{Suite: "tenants", Variant: "shed-headroom", Workers: 8, TPS: 1.7},
		{Suite: "tenants", Variant: "uncontended", Workers: 8, TPS: 400},
	}
	if err := checkMinRatio(rows, "tenants", "partition-speedup", 3); err != nil {
		t.Errorf("4.5x vs floor 3: %v", err)
	}
	if err := checkMinRatio(rows, "tenants", "shed-headroom", 1); err != nil {
		t.Errorf("1.7 vs floor 1: %v", err)
	}
	if err := checkMinRatio(rows, "tenants", "partition-speedup", 5); err == nil {
		t.Error("4.5x vs floor 5 must fail")
	}
	// A gate whose rows were never measured must fail loudly, not pass.
	if err := checkMinRatio(rows, "tenants", "no-such-variant", 1); err == nil {
		t.Error("gate with zero matching rows must fail")
	}
	if err := checkMinRatio(nil, "tenants", "partition-speedup", 1); err == nil {
		t.Error("gate over an empty result set must fail")
	}
}

func writeBenchFile(t *testing.T, path string, results []Result) {
	t.Helper()
	data, err := json.Marshal(File{Schema: "asynctp/perfbench/v1", Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	ferr := fn()
	os.Stdout = saved
	w.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := r.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return sb.String(), ferr
}

func TestCompareWarnsOnMissingSuite(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeBenchFile(t, oldPath, []Result{
		{Suite: "e1", Variant: "base", Workers: 8, TPS: 1000},
		{Suite: "tenants", Variant: "partition-speedup/parts=8", Workers: 8, TPS: 4.5},
		{Suite: "tenants", Variant: "shed-headroom", Workers: 8, TPS: 1.5},
	})
	writeBenchFile(t, newPath, []Result{
		{Suite: "e1", Variant: "base", Workers: 8, TPS: 980},
	})
	out, err := captureStdout(t, func() error { return compareFiles(oldPath, newPath) })
	if err != nil {
		t.Fatalf("missing suite must warn, not fail: %v", err)
	}
	if !strings.Contains(out, `WARN    suite "tenants": 2 baseline cell(s)`) {
		t.Errorf("want grouped tenants WARN line, got:\n%s", out)
	}
	if strings.Contains(out, `suite "e1"`) && strings.Contains(out, "WARN    suite \"e1\"") {
		t.Errorf("covered suite must not be warned about:\n%s", out)
	}
}

func TestCompareFailsOnCollapse(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeBenchFile(t, oldPath, []Result{{Suite: "e1", Variant: "base", Workers: 8, TPS: 1000}})
	writeBenchFile(t, newPath, []Result{{Suite: "e1", Variant: "base", Workers: 8, TPS: 400}})
	if _, err := captureStdout(t, func() error { return compareFiles(oldPath, newPath) }); err == nil {
		t.Error("a >2x collapse must fail the comparison")
	}
}

// TestRunnersSharingAPlaneKeepTheirTraces runs E1's three runners on
// one plane, as a sweep with -spans does, and checks that the merged
// spans hold one trace per submitted instance with none orphaned: each
// runner numbers its transactions from its own base, so no two runs
// share a trace ID.
func TestRunnersSharingAPlaneKeepTheirTraces(t *testing.T) {
	plane := obs.NewPlane(nil, nil)
	plane.EnableSpans("perfbench", 0)
	res, err := runE1(1, true, 0, 1, plane)
	if err != nil {
		t.Fatal(err)
	}
	submitted := 0
	for _, r := range res {
		submitted += r.Txns
	}
	if len(res) != 3 || submitted == 0 {
		t.Fatalf("%d runners committed %d instances", len(res), submitted)
	}
	m := obs.MergeSpans([]obs.ProcSpans{plane.Spans.Dump()})
	if len(m.Traces) != submitted || m.Orphans != 0 {
		t.Errorf("merged %d traces with %d orphans, want %d traces (one per instance) and 0 orphans",
			len(m.Traces), m.Orphans, submitted)
	}
}
