// Command benchmark is the repository's one performance harness: five
// workloads driven only through the program's public functions, the
// same end-to-end metrics on each, per-layer numbers taken from outside
// the program, and correctness audits inside every run. README.md in
// this directory says what each number means and why each workload
// exists.
//
//	go run . [-seed 42] [-workloads a,b] [-out result.json] [-trace-out spans.jsonl] [-smoke]
//	go run . -compare a.json b.json
//	go run . -workload dist-open -seed 7 -seconds 10 -trace 0     (one pass, one JSON line)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

const schema = "asynctp-benchmark/v1"

// Full-run pass lengths; -smoke shrinks both to about a second per
// workload in all.
const (
	fullUntraced  = 20 * time.Second
	fullTraced    = 5 * time.Second
	smokeUntraced = 600 * time.Millisecond
	smokeTraced   = 300 * time.Millisecond
)

// envInfo fingerprints the box a result was taken on. Results from
// boxes that differ in nproc or GOMAXPROCS are not comparable.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func readEnv() envInfo {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: kernel, GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// resultFile is the JSON a full run writes and -compare reads.
type resultFile struct {
	Schema    string            `json:"schema"`
	Date      time.Time         `json:"date"`
	Env       envInfo           `json:"env"`
	Seed      int64             `json:"seed"`
	Smoke     bool              `json:"smoke"`
	Workloads []*workloadResult `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 42, "seed of every generated input")
	subset := fs.String("workloads", "", "comma-separated workloads to run (default: all of "+strings.Join(workloadNames(), ",")+")")
	out := fs.String("out", "", "write the JSON result to this file")
	traceOut := fs.String("trace-out", "", "write the traced passes' spans to this file (JSON lines)")
	smoke := fs.Bool("smoke", false, "about a second per workload: exercises every path and audit, measures nothing")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	tmp := fs.String("tmp", "", "directory for the WAL workload's files (default: the system temp dir)")
	one := fs.String("workload", "", "driver mode: run one pass of this workload and end with one JSON line")
	seconds := fs.Int("seconds", 10, "driver mode: length of the timed pass")
	trace := fs.Int("trace", 0, "driver mode: 0 reports the end-to-end metrics of an untraced pass, 1 the per-layer metrics of a traced one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	ctx := context.Background()
	opts := runOpts{seed: *seed, smoke: *smoke, tmp: *tmp}

	if *one != "" {
		def, ok := findWorkload(*one)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q (have %s)", *one, strings.Join(workloadNames(), ", ")))
		}
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			return fail(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
		}
		if *trace == 1 {
			opts.traced = time.Duration(*seconds) * time.Second
		} else {
			opts.untraced = time.Duration(*seconds) * time.Second
		}
		return driverRun(ctx, def, opts, stdout, stderr)
	}

	defs := workloadDefs
	if *subset != "" {
		defs = nil
		for _, name := range strings.Split(*subset, ",") {
			def, ok := findWorkload(strings.TrimSpace(name))
			if !ok {
				return fail(fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", ")))
			}
			defs = append(defs, def)
		}
	}
	opts.untraced, opts.traced = fullUntraced, fullTraced
	if *smoke {
		opts.untraced, opts.traced = smokeUntraced, smokeTraced
	}
	if *traceOut != "" {
		f, w, err := createTraceOut(*traceOut)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		defer w.Flush()
		opts.spanSink = func(workload string, spans []span) error { return writeSpans(w, workload, spans) }
	}
	file := &resultFile{Schema: schema, Date: time.Now().UTC(), Env: readEnv(), Seed: *seed, Smoke: *smoke}
	printEnv(stdout, file)
	for _, def := range defs {
		res, err := measure(ctx, def, opts)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", def.name, err))
		}
		printWorkload(stdout, res)
		file.Workloads = append(file.Workloads, res)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	return 0
}

// driverRun is the BENCHMARK.json contract: one pass of one workload,
// every metric printed by name, and as the last line one JSON object
// with the keys correct, attempted, failed and metrics.
func driverRun(ctx context.Context, def workloadDef, o runOpts, stdout, stderr io.Writer) int {
	res, err := measure(ctx, def, o)
	if err != nil {
		// A failed audit voids the run: no result line, non-zero exit.
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.name, err)
		return 1
	}
	printWorkload(stdout, res)
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Attempted: res.Offered, Failed: res.Failed, Metrics: map[string]metricValue{}}
	if o.traced > 0 {
		for name, v := range res.PerLayer {
			line.Metrics[name] = metricValue{Value: v.Value, Unit: v.Unit}
		}
	} else {
		for _, d := range endToEndDefs {
			v := res.EndToEnd[d.name]
			line.Metrics[d.name] = metricValue{Value: v.Value, Unit: v.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
