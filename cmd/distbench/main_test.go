package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunSmoke drives the CLI end to end on a tiny workload and checks
// the report: both suites, perfbench-compatible keys, and conservation
// on every cell.
func TestRunSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "dist.json")
	err := run([]string{
		"-quick",
		"-txns", "48",
		"-submitters", "8",
		"-latency", "200us",
		"-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != "asynctp/perfbench/v1" {
		t.Errorf("schema = %q, want perfbench-compatible", f.Schema)
	}
	// 2 suites x 1 worker pool.
	if len(f.Results) != 2 {
		t.Fatalf("results = %d, want 2: %+v", len(f.Results), f.Results)
	}
	seen := map[string]bool{}
	for _, r := range f.Results {
		seen[r.Suite+"/"+r.Variant] = true
		if !r.Conserved {
			t.Errorf("%s/%s: not conserved", r.Suite, r.Variant)
		}
		if r.TPS <= 0 {
			t.Errorf("%s/%s: tps = %f", r.Suite, r.Variant, r.TPS)
		}
		if r.Txns != 48 {
			t.Errorf("%s/%s: txns = %d, want 48", r.Suite, r.Variant, r.Txns)
		}
	}
	for _, k := range []string{"dist-pieces/batched", "dist-settle/batched"} {
		if !seen[k] {
			t.Errorf("missing cell %s", k)
		}
	}
}

// TestRunRejectsBadFlags covers flag validation.
func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-suites", "nope"}); err == nil {
		t.Error("bad suite accepted")
	}
	if err := run([]string{"-workers", "zero"}); err == nil {
		t.Error("bad workers accepted")
	}
}
