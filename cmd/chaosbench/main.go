// Command chaosbench runs the E7 chaos harness: bank-transfer chains
// under deterministic, seeded fault schedules (baseline, degraded,
// partition, crash-storm), comparing chopped recoverable queues against
// bounded-wait 2PC on the same timeline. Reported per scenario and
// strategy: settled-chain rate, 2PC timeout/presumed aborts,
// conservation of money, and the worst audit deviation against the
// in-flight ε bound.
//
// With -kill9 it runs E9 instead: child processes executing the chain
// workload over the disk driver are SIGKILLed at WAL crash points
// (mid-append, pre-fsync, after a torn write), restarted from their
// real files, and the surviving image is audited for conservation,
// exactly-once application, chain completeness, and the ε bound.
//
// Usage:
//
//	chaosbench [-scenarios baseline,degraded,partition,crash-storm]
//	           [-chains 16] [-amount 5] [-seed 42] [-stagger 10ms] [-json]
//	           [-driver mem|disk] [-dir path]
//	           [-kill9] [-kill9-cycles 3]
//	           [-spans f] [-spanswall f] [-criticalpath N]
//	           [-metrics addr] [-metricsdump f]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"asynctp/internal/experiments"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/profiling"
)

func main() {
	// A kill -9 workload child re-execs this binary with the child
	// environment set; it must not parse parent flags.
	if experiments.Kill9IsChild() {
		if err := experiments.Kill9Child(); err != nil {
			fmt.Fprintln(os.Stderr, "chaosbench (kill9 child):", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "chaosbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("chaosbench", flag.ContinueOnError)
	scenArg := fs.String("scenarios", strings.Join(experiments.ChaosScenarios(), ","),
		"comma-separated chaos scenarios")
	chains := fs.Int("chains", 16, "transfer chains per scenario run")
	amount := fs.Int64("amount", 5, "per-chain transfer amount")
	seed := fs.Int64("seed", 42, "schedule + network seed (same seed, same storm)")
	stagger := fs.Duration("stagger", 10*time.Millisecond,
		"pacing between chain submissions")
	driverName := fs.String("driver", "mem", "storage driver: mem or disk")
	dir := fs.String("dir", "", "disk-driver root (default: a fresh temp dir)")
	kill9 := fs.Bool("kill9", false, "run the E9 kill -9 durability harness instead of E7")
	kill9Cycles := fs.Int("kill9-cycles", 3, "SIGKILL crash/restart cycles before verification")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	prof := profiling.Register(fs)
	obsFlags := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "chaosbench: profile:", perr)
		}
	}()
	plane, stopObs, err := obsFlags.Build()
	if err != nil {
		return err
	}
	defer func() {
		if oerr := stopObs(); oerr != nil {
			fmt.Fprintln(os.Stderr, "chaosbench: obs:", oerr)
		}
	}()

	root := *dir
	if root == "" && (*kill9 || *driverName == "disk") {
		root, err = os.MkdirTemp("", "chaosbench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(root)
	}

	var rep *experiments.Report
	if *kill9 {
		bin, err := os.Executable()
		if err != nil {
			return err
		}
		rep, err = experiments.RunKill9(experiments.Kill9Config{
			Bin:    bin,
			Dir:    root,
			Seed:   *seed,
			Chains: *chains,
			Amount: metric.Value(*amount),
			Cycles: *kill9Cycles,
		})
		if err != nil {
			return err
		}
	} else {
		var scenarios []string
		for _, part := range strings.Split(*scenArg, ",") {
			if s := strings.TrimSpace(part); s != "" {
				scenarios = append(scenarios, s)
			}
		}
		rep, err = experiments.Chaos(experiments.ChaosConfig{
			Scenarios: scenarios,
			Chains:    *chains,
			Amount:    metric.Value(*amount),
			Seed:      *seed,
			Stagger:   *stagger,
			Plane:     plane,
			Driver:    *driverName,
			Dir:       root,
		})
		if err != nil {
			return err
		}
	}
	// Fold the observability plane's headline counters (and, when a
	// tenant serving layer ran, its per-tenant breakdown) into the
	// stderr report alongside the chaos claims.
	for _, line := range plane.Summary() {
		fmt.Fprintln(os.Stderr, "obs:", line)
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
		// An invariant violation is exactly what the flight recorder is
		// armed for: dump the recent span tail before failing.
		if plane.TriggerFlight("chaosbench: chaos claim failed") {
			fmt.Fprintln(os.Stderr, "chaosbench: flight recorder dumped recent spans")
		}
		return fmt.Errorf("one or more chaos claims failed")
	}
	return nil
}
