package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	return &f, nil
}

// comparable refuses pairs of results that cannot be set side by side:
// another core count, another seed, or a smoke run.
func comparable(a, b *resultFile) error {
	switch {
	case a.Smoke || b.Smoke:
		return fmt.Errorf("a -smoke result measures nothing and cannot be compared")
	case a.Env.NProc != b.Env.NProc:
		return fmt.Errorf("nproc differs: %d vs %d", a.Env.NProc, b.Env.NProc)
	case a.Env.GOMAXPROCS != b.Env.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	case a.Seed != b.Seed:
		return fmt.Errorf("seed differs: %d vs %d", a.Seed, b.Seed)
	}
	return nil
}

// worsening returns how much worse the new value is than the old one in
// the metric's bad direction (negative when it improved), and the
// largest worsening its bound allows, both in the metric's unit.
func worsening(d metricDef, old, new float64) (worse, allowed float64) {
	worse = old - new
	if d.lowerBetter {
		worse = new - old
	}
	allowed = d.bound * old
	if d.name == "setup_s" && allowed < setupFloorS {
		allowed = setupFloorS
	}
	return worse, allowed
}

// compareResults prints, per workload and end-to-end metric, both
// values, the relative change and the bound, and returns how many
// metrics regressed past their bound. A workload present in only one
// file is an error: dropping a workload is not a way to pass.
func compareResults(old, new *resultFile, w io.Writer) (regressions int, err error) {
	byName := make(map[string]*workloadResult, len(new.Workloads))
	for _, r := range new.Workloads {
		byName[r.Name] = r
	}
	if len(old.Workloads) != len(new.Workloads) {
		return 0, fmt.Errorf("workload sets differ: %d vs %d", len(old.Workloads), len(new.Workloads))
	}
	fmt.Fprintf(w, "%-13s %-15s %14s %14s %9s %9s\n", "workload", "metric", "old", "new", "change", "bound")
	for _, o := range old.Workloads {
		n, ok := byName[o.Name]
		if !ok {
			return 0, fmt.Errorf("workload %s is missing from the second file", o.Name)
		}
		for _, d := range endToEndDefs {
			ov, nv := o.EndToEnd[d.name].Value, n.EndToEnd[d.name].Value
			worse, allowed := worsening(d, ov, nv)
			verdict := ""
			if worse > allowed {
				verdict = "  REGRESSION"
				regressions++
			}
			sign := "-"
			if d.lowerBetter {
				sign = "+"
			}
			fmt.Fprintf(w, "%-13s %-15s %14.4f %14.4f %+8.2f%% %s%7.1f%%%s\n",
				o.Name, d.name, ov, nv, 100*ratio(nv-ov, ov), sign, 100*ratio(allowed, ov), verdict)
		}
		of, nf := o.EndToEnd["fail_frac"].Value, n.EndToEnd["fail_frac"].Value
		verdict := ""
		if nf-of > failFracBound {
			verdict = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-13s %-15s %14.6f %14.6f %+9.6f +%8g%s\n", o.Name, "fail_frac", of, nf, nf-of, failFracBound, verdict)
	}
	return regressions, nil
}

func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	regressions, err := func() (int, error) {
		old, err := readResult(oldPath)
		if err != nil {
			return 0, err
		}
		new, err := readResult(newPath)
		if err != nil {
			return 0, err
		}
		if err := comparable(old, new); err != nil {
			return 0, err
		}
		return compareResults(old, new, stdout)
	}()
	switch {
	case err != nil:
		fmt.Fprintln(stderr, "benchmark: compare:", err)
		return 2
	case regressions > 0:
		fmt.Fprintf(stderr, "benchmark: %d metrics regressed past their bound\n", regressions)
		return 1
	}
	fmt.Fprintln(stdout, "every end-to-end metric within its bound")
	return 0
}
