package main

import (
	"fmt"
	"io"
	"sort"
)

func printEnv(w io.Writer, f *resultFile) {
	mode := ""
	if f.Smoke {
		mode = "  SMOKE (numbers mean nothing)"
	}
	fmt.Fprintf(w, "asynctp benchmark  seed=%d  nproc=%d GOMAXPROCS=%d %s kernel=%s %s/%s%s\n",
		f.Seed, f.Env.NProc, f.Env.GOMAXPROCS, f.Env.GoVersion, f.Env.Kernel, f.Env.GOOS, f.Env.GOARCH, mode)
}

// printMetric prints one metric by name with its unit.
func printMetric(w io.Writer, name string, v metricValue, note string) {
	extra := ""
	if v.Percentile != 0 {
		extra = fmt.Sprintf("  (p%g of %d samples)", v.Percentile, v.Samples)
	} else if v.Samples != 0 {
		extra = fmt.Sprintf("  (%d samples)", v.Samples)
	}
	if note != "" {
		extra += "  " + note
	}
	fmt.Fprintf(w, "  %-34s %14.4f %-6s%s\n", name, v.Value, v.Unit, extra)
}

// printWorkload prints everything measured on one workload: the
// end-to-end metrics with their bounds, the reported-only ones, the
// layer metrics and the reconciliation.
func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s  [%s]\n   %s\n", r.Name, r.Load, r.Why)
	fmt.Fprintf(w, "   offered %d, settled %d, failed %d (shed %d); audits passed\n", r.Offered, r.Settled, r.Failed, r.Shed)
	if r.EndToEnd != nil {
		fmt.Fprintf(w, " end to end (untraced pass, %.2f s):\n", r.Seconds)
		for _, d := range endToEndDefs {
			sign := "-"
			if d.lowerBetter {
				sign = "+"
			}
			printMetric(w, d.name, r.EndToEnd[d.name], fmt.Sprintf("[regression past %s%.0f%%]", sign, d.bound*100))
		}
		printMetric(w, "fail_frac", r.EndToEnd["fail_frac"], fmt.Sprintf("[regression past +%g absolute]", failFracBound))
		fmt.Fprintln(w, " reported, not gated:")
		for _, name := range sortedKeys(r.Reported) {
			printMetric(w, name, r.Reported[name], "")
		}
	}
	if r.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, " per layer (traced pass, %.2f s, %d spans, %d dropped; and layer replays):\n",
		r.TracedSeconds, r.SpansRecorded, r.SpansDropped)
	for _, d := range perLayerDefs {
		printMetric(w, d.name, r.PerLayer[d.name], "")
	}
	if r.TraceOverhead != nil {
		printMetric(w, "trace_overhead", metricValue{Value: *r.TraceOverhead, Unit: "ratio"}, "(1 - traced/untraced settled_tps over the traced pass's stretch)")
	}
	fmt.Fprintln(w, " reconciliation (cpu rows: replayed ns/op x ops per transaction; wall rows: span self time, mostly waiting, not summed):")
	fmt.Fprintf(w, "  %-24s %-5s %12s %12s %12s\n", "layer", "kind", "ns/op", "ops/txn", "us/txn")
	var explained float64
	for _, row := range r.Reconcile {
		fmt.Fprintf(w, "  %-24s %-5s %12.1f %12.3f %12.3f\n", row.Layer, row.Kind, row.NsPerOp, row.OpsPerTxn, row.UsPerTxn)
		if row.Kind == kindCPU {
			explained += row.UsPerTxn
		}
	}
	cpu := r.PerLayer["trace.cpu_us_per_txn"].Value
	fmt.Fprintf(w, "  %-56s %12.3f\n", "cpu rows together", explained)
	fmt.Fprintf(w, "  %-56s %12.3f\n", "process CPU per transaction", cpu)
	fmt.Fprintf(w, "  %-56s %12.3f  (executor, scheduling, sockets, the load generator: no replay covers them)\n",
		"unexplained residual", cpu-explained)
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
