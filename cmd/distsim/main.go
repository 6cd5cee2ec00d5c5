// Command distsim regenerates the distributed experiments of Section 4:
// 2PC vs chopped recoverable queues across WAN latencies (E2), the
// availability comparison under a site crash (E2b), and the ε-spec
// splitting example (E3).
//
// Usage:
//
//	distsim [-run e2,e2b,e3] [-latencies 1ms,10ms,40ms] [-n 5]
//	        [-spans f] [-spanswall f] [-criticalpath N]
//	        [-metrics addr] [-metricsdump f]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"asynctp/internal/experiments"
	"asynctp/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "distsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("distsim", flag.ContinueOnError)
	which := fs.String("run", "e2,e2b,e3", "comma-separated experiment ids")
	latArg := fs.String("latencies", "1ms,10ms,40ms", "one-way latencies for e2")
	n := fs.Int("n", 5, "transactions per latency point (e2)")
	jsonOut := fs.Bool("json", false, "emit reports as JSON")
	obsFlags := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
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
			fmt.Fprintln(os.Stderr, "distsim: obs:", oerr)
		}
	}()
	var lats []time.Duration
	for _, part := range strings.Split(*latArg, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad latency %q: %w", part, err)
		}
		lats = append(lats, d)
	}

	for _, id := range strings.Split(*which, ",") {
		var (
			rep *experiments.Report
			err error
		)
		switch strings.TrimSpace(id) {
		case "e2":
			rep, err = experiments.Distributed2PCvsQueues(lats, *n)
		case "e2b":
			rep, err = experiments.DistributedAvailability()
		case "e3":
			rep, err = experiments.DistributedEpsilonSplit()
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
