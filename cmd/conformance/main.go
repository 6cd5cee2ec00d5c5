// Command conformance runs the E8 conformance harness: the declared
// bank workload swept across every method × engine stack under the
// deterministic seeded scheduler, every recorded history checked by the
// serial-replay ε-oracle; the deliberately mis-budgeted control the
// oracle must catch by query name; and the chopping fuzzer — random
// chopping sets cross-checked against brute-force SC-cycle and
// restricted-piece references, plus random workloads driven end to end.
//
// The whole report is a pure function of -seed: same seed, same
// interleavings, same table, same verdicts. CI diffs `-seed 1 -budget
// 200` against testdata/seed1-budget200.golden, and a second run
// against the first.
//
// Usage:
//
//	conformance [-seed 1] [-budget 200] [-seeds 5]
//	            [-fuzz-choppings 1000] [-fuzz-runs 40] [-json]
//	            [-spans f] [-spanswall f] [-criticalpath N]
//	            [-metrics addr] [-metricsdump f]
//
// Exits non-zero when any conformance claim fails.
package main

import (
	"flag"
	"fmt"
	"os"

	"asynctp/internal/experiments"
	"asynctp/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "conformance:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("conformance", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "master seed (same seed, same report)")
	budget := fs.Int("budget", 200, "oracle serial-order enumeration budget per run")
	seeds := fs.Int("seeds", 5, "scheduler seeds swept per scenario")
	fuzzChoppings := fs.Int("fuzz-choppings", 1000, "random choppings cross-checked vs brute force")
	fuzzRuns := fs.Int("fuzz-runs", 40, "random end-to-end conformance runs")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	obsFlags := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	plane, stopObs, err := obsFlags.Build()
	if err != nil {
		return err
	}
	defer func() {
		if oerr := stopObs(); oerr != nil {
			fmt.Fprintln(os.Stderr, "conformance: obs:", oerr)
		}
	}()
	rep, err := experiments.Conformance(experiments.ConformanceConfig{
		Seed:          *seed,
		Seeds:         *seeds,
		Budget:        *budget,
		FuzzChoppings: *fuzzChoppings,
		FuzzRuns:      *fuzzRuns,
		Plane:         plane,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		out, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	}
	fmt.Println(rep)
	if !rep.Passed() {
		return fmt.Errorf("one or more conformance claims failed")
	}
	return nil
}
