// Command bankbench regenerates the centralized experiments: Table 1,
// Figures 1–3, and the Section 5 method comparison (E1).
//
// Usage:
//
//	bankbench [-run t1,f1,f2,f3,e1] [-seed N] [-eps 1000,4000,16000]
//	          [-spans f] [-spanswall f] [-criticalpath N]
//	          [-metrics addr] [-metricsdump f]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"asynctp/internal/experiments"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/profiling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bankbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bankbench", flag.ContinueOnError)
	which := fs.String("run", "t1,f1,f2,f3,e1,e4,e5", "comma-separated experiment ids")
	seed := fs.Int64("seed", 42, "workload seed")
	epsArg := fs.String("eps", "1000,4000,16000", "ε sweep for e1 (comma-separated)")
	jsonOut := fs.Bool("json", false, "emit reports as JSON")
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
			fmt.Fprintln(os.Stderr, "bankbench: profile:", perr)
		}
	}()
	plane, stopObs, err := obsFlags.Build()
	if err != nil {
		return err
	}
	experiments.SetObsPlane(plane)
	defer func() {
		if plane != nil {
			for _, line := range plane.Summary() {
				fmt.Fprintln(os.Stderr, "obs:", line)
			}
		}
		if oerr := stopObs(); oerr != nil {
			fmt.Fprintln(os.Stderr, "bankbench: obs:", oerr)
		}
	}()
	var epsilons []metric.Fuzz
	for _, part := range strings.Split(*epsArg, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return fmt.Errorf("bad ε %q: %w", part, err)
		}
		epsilons = append(epsilons, metric.Fuzz(v))
	}

	for _, id := range strings.Split(*which, ",") {
		var (
			rep *experiments.Report
			err error
		)
		switch strings.TrimSpace(id) {
		case "t1":
			rep, err = experiments.Table1(*seed)
		case "f1":
			rep, err = experiments.Figure1()
		case "f2":
			rep, err = experiments.Figure2Distribution(*seed)
		case "f3":
			rep, err = experiments.Figure3()
		case "e1":
			rep, err = experiments.MethodComparison(*seed, epsilons)
		case "e4":
			rep, err = experiments.UpdateUpdateHazard()
		case "e5":
			rep, err = experiments.EngineComparison(*seed)
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *jsonOut {
			out, err := rep.JSON()
			if err != nil {
				return err
			}
			fmt.Println(out)
		} else {
			fmt.Println(rep.String())
		}
	}
	return nil
}
