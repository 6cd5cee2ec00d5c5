package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/storage/driver"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {5_000_000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p != 0 && float64(c.n)*(100-p)/100 < minBeyond {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond it", c.n, p, minBeyond)
		}
	}
}

func TestHistogramPercentilesWithinOnePercent(t *testing.T) {
	var h hist
	if h.percentile(50) != 0 {
		t.Fatal("percentile of nothing is not 0")
	}
	// Exact below 256 ns.
	for v := int64(1); v <= 100; v++ {
		h.add(v)
	}
	for _, p := range []float64{1, 50, 99, 100} {
		if got := h.percentile(p); math.Abs(got-p) > 1 {
			t.Errorf("p%g of 1..100 = %g", p, got)
		}
	}
	// A log-uniform sample from 1µs to 1s against its exact percentiles.
	rng := rand.New(rand.NewSource(1))
	var big hist
	exact := make([]float64, 200000)
	for i := range exact {
		v := int64(math.Exp(math.Log(1e3) + rng.Float64()*math.Log(1e6)))
		exact[i] = float64(v)
		big.add(v)
	}
	sort.Float64s(exact)
	for _, p := range []float64{10, 50, 90, 99, 99.9} {
		want := exact[int(p/100*float64(len(exact)))-1]
		if got := big.percentile(p); math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%g = %g, exact %g: more than 1%% off", p, got, want)
		}
	}
	// Every value lands in the bucket whose range holds it.
	for _, v := range []int64{0, 1, 127, 128, 255, 256, 257, 1000, 65535, 65536, 1 << 40, math.MaxInt64} {
		low, width := bucketRange(bucketOf(v))
		if v < low || v-low >= width {
			t.Errorf("%d filed under [%d, %d+%d)", v, low, low, width)
		}
	}
	var merged hist
	merged.merge(&h)
	merged.merge(&big)
	if merged.n != h.n+big.n {
		t.Errorf("merged %d samples, want %d", merged.n, h.n+big.n)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 40, parent: 0},    // 1
		{start: 30, end: 60, parent: 0},    // 2: overlaps 1 on [30,40]
		{start: 90, end: 120, parent: 0},   // 3: sticks out of the root by 20
		{start: 35, end: 38, parent: 0},    // 4: wholly inside 1 and 2
		{start: 15, end: 20, parent: 1},    // 5: grandchild, charged to 1 only
		{start: 200, end: 250, parent: -1}, // 6: another root, no children
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [90,100] of the root: 60 of its 100.
	want := []int64{40, 25, 30, 30, 3, 5, 50}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestTracerDropsPastCapacityAndNilRecordsNothing(t *testing.T) {
	var none *tracer
	none.end(none.begin(spanSubmit, -1, 1)) // must not panic
	tr := newTracer(2)
	a := tr.begin(spanSubmit, -1, 1)
	b := tr.begin(spanSend, a, 1)
	c := tr.begin(spanSend, a, 1)
	tr.end(c)
	tr.end(b)
	tr.end(a)
	if c != -1 || tr.dropped.Load() != 1 || len(tr.spans()) != 2 {
		t.Fatalf("third span id %d, dropped %d, kept %d; want -1, 1, 2", c, tr.dropped.Load(), len(tr.spans()))
	}
	if s := tr.spans()[1]; s.parent != a || s.end < s.start {
		t.Fatalf("child span %+v", s)
	}
}

func TestSameSeedSameScheduleAcrossLocalPair(t *testing.T) {
	lock, _ := findWorkload("local-lock")
	repair, _ := findWorkload("local-repair")
	a, err := genInputs(lock, 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInputs(repair, 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.sched, b.sched) {
		t.Fatal("local-lock and local-repair got different submission schedules from one seed")
	}
	if len(a.w.Programs) != len(b.w.Programs) {
		t.Fatal("program tables differ in size")
	}
	for ti := range a.w.Programs {
		pa, pb := a.w.Programs[ti], b.w.Programs[ti]
		if pa.Name != pb.Name || !reflect.DeepEqual(pa.ReadSet(), pb.ReadSet()) || !reflect.DeepEqual(pa.WriteSet(), pb.WriteSet()) {
			t.Fatalf("program %d differs: %s vs %s", ti, pa.Name, pb.Name)
		}
	}
	c, err := genInputs(lock, 8, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.sched, c.sched) {
		t.Fatal("another seed gave the same schedule")
	}
	// The audit is 1 in auditEvery submissions.
	audits := 0
	for _, ti := range a.sched[0] {
		if int(ti) == transferTypes {
			audits++
		}
	}
	if share := float64(audits) / schedLen; share < 0.11 || share > 0.14 {
		t.Fatalf("audit share %.3f, want about 1/%d", share, auditEvery)
	}
}

func TestOpenLoopArrivalsComeFromTheSeedAlone(t *testing.T) {
	def, _ := findWorkload("dist-open")
	a, err := genInputs(def, 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genInputs(def, 3, 2*time.Second)
	if !reflect.DeepEqual(a.due, b.due) || !reflect.DeepEqual(a.arrival, b.arrival) {
		t.Fatal("same seed, different arrivals")
	}
	want := def.rate * 2
	if n := float64(len(a.due)); n < 0.95*want || n > 1.05*want {
		t.Fatalf("%d arrivals in 2s at %.0f/s", len(a.due), def.rate)
	}
	for i := 1; i < len(a.due); i++ {
		if a.due[i] < a.due[i-1] {
			t.Fatal("due instants are not ascending")
		}
	}
}

// callLog records which methods of a fake were called.
type callLog map[string]int

type fakeNet struct{ calls callLog }

func (f fakeNet) Send(simnet.Message) error { f.calls["Send"]++; return nil }
func (f fakeNet) AddSite(simnet.SiteID) (<-chan simnet.Message, error) {
	f.calls["AddSite"]++
	return nil, nil
}
func (f fakeNet) SetDown(simnet.SiteID, bool)                       { f.calls["SetDown"]++ }
func (f fakeNet) SetPartitioned(simnet.SiteID, simnet.SiteID, bool) { f.calls["SetPartitioned"]++ }
func (f fakeNet) SetLossRate(float64)                               { f.calls["SetLossRate"]++ }
func (f fakeNet) SetLatency(time.Duration, float64)                 { f.calls["SetLatency"]++ }
func (f fakeNet) Stats() simnet.Stats                               { f.calls["Stats"]++; return simnet.Stats{} }
func (f fakeNet) Close()                                            { f.calls["Close"]++ }

type fakeBackend struct{ calls callLog }

func (f fakeBackend) Store() *storage.Store        { f.calls["Store"]++; return nil }
func (f fakeBackend) SaveQueues(queue.State) error { f.calls["SaveQueues"]++; return nil }
func (f fakeBackend) LoadQueues() (queue.State, bool, error) {
	f.calls["LoadQueues"]++
	return queue.State{}, false, nil
}
func (f fakeBackend) Recover() (*storage.Store, error) { f.calls["Recover"]++; return nil, nil }
func (f fakeBackend) Checkpoint() error                { f.calls["Checkpoint"]++; return nil }
func (f fakeBackend) Close() error                     { f.calls["Close"]++; return nil }

type fakeDriver struct{ calls callLog }

func (f fakeDriver) Name() string { f.calls["Name"]++; return "fake" }
func (f fakeDriver) Open(string, map[storage.Key]metric.Value) (driver.Backend, error) {
	f.calls["Open"]++
	return fakeBackend{f.calls}, nil
}

// callEveryMethod calls each method of the interface type iface on v
// with zero arguments and checks the fake behind v saw exactly one call
// of that name.
func callEveryMethod(t *testing.T, iface reflect.Type, v any, calls callLog) {
	t.Helper()
	rv := reflect.ValueOf(v)
	for i := 0; i < iface.NumMethod(); i++ {
		m := iface.Method(i)
		args := make([]reflect.Value, m.Type.NumIn())
		for a := range args {
			args[a] = reflect.Zero(m.Type.In(a))
		}
		before := calls[m.Name]
		rv.MethodByName(m.Name).Call(args)
		if calls[m.Name] != before+1 {
			t.Errorf("%s.%s was not forwarded to the wrapped value", iface.Name(), m.Name)
		}
	}
}

func TestDecoratorsForwardEveryMethod(t *testing.T) {
	tr := newTracer(64)
	calls := callLog{}
	callEveryMethod(t, reflect.TypeOf((*simnet.Net)(nil)).Elem(), tracedNet{Net: fakeNet{calls}, tr: tr}, calls)

	calls = callLog{}
	drv := tracedDriver{Driver: fakeDriver{calls}, tr: tr}
	callEveryMethod(t, reflect.TypeOf((*driver.Driver)(nil)).Elem(), drv, calls)
	be, err := drv.Open("s0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, wrapped := be.(tracedBackend); !wrapped {
		t.Fatalf("Open returned %T, want a tracedBackend", be)
	}
	callEveryMethod(t, reflect.TypeOf((*driver.Backend)(nil)).Elem(), be, calls)

	got := totalsOf(tr.spans()).count
	if got[spanSend] != 1 || got[spanSaveQueues] != 1 || got[spanCheckpoint] != 1 || got[spanSubmit] != 0 {
		t.Fatalf("span counts %v: want one each of send, savequeues, checkpoint", got)
	}
}

func TestAuditsCatchTampering(t *testing.T) {
	ctx := context.Background()
	opts := runOpts{seed: 5, smoke: true, tmp: t.TempDir()}

	local, _ := findWorkload("local-lock")
	l, err := setUp(ctx, local, opts, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	lt := l.tgt.(*localTarget)
	if err := lt.audit(); err != nil {
		t.Fatalf("clean local audit: %v", err)
	}
	lt.store.Set(lt.pool[0], lt.store.Get(lt.pool[0])+1)
	if err := lt.audit(); err == nil || !strings.Contains(err.Error(), "pool total") {
		t.Fatalf("minted money passed the local audit: %v", err)
	}
	lt.store.Set(lt.pool[0], lt.store.Get(lt.pool[0])-1)
	lt.violations.Add(1)
	if err := lt.audit(); err == nil || !strings.Contains(err.Error(), "ε") {
		t.Fatalf("an audit beyond ε passed: %v", err)
	}

	dist, _ := findWorkload("dist-closed")
	d, err := setUp(ctx, dist, opts, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.tgt.close()
	dt := d.tgt.(*distTarget)
	if err := dt.audit(); err != nil {
		t.Fatalf("clean dist audit: %v", err)
	}
	st := dt.c.Site(distSites[0]).Store
	for _, k := range st.Keys() {
		if !strings.HasPrefix(string(k), "__") {
			st.Set(k, st.Get(k)+1)
			break
		}
	}
	if err := dt.audit(); err == nil || !strings.Contains(err.Error(), "record total") {
		t.Fatalf("minted money passed the dist audit: %v", err)
	}
}

// TestSmoke runs every workload's both passes, replays and audits at
// smoke length through the command's own entry point and checks the
// result file's shape.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("about ten seconds")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "smoke.json")
	spans := filepath.Join(dir, "spans.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "11", "-out", out, "-trace-out", spans, "-tmp", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	f, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if f.Seed != 11 || !f.Smoke || f.Env.NProc < 1 || f.Env.GOMAXPROCS < 1 || f.Env.GoVersion == "" || f.Env.Kernel == "" {
		t.Fatalf("result header %+v", f)
	}
	if len(f.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in the result, want %d", len(f.Workloads), len(workloadDefs))
	}
	for _, r := range f.Workloads {
		if r.Settled == 0 || r.Failed != 0 || r.EndToEnd["fail_frac"].Value != 0 {
			t.Errorf("%s: settled %d, failed %d", r.Name, r.Settled, r.Failed)
		}
		for _, d := range endToEndDefs {
			if v, ok := r.EndToEnd[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v", r.Name, d.name, v)
			}
			if !strings.Contains(stdout.String(), d.name) {
				t.Errorf("metric %s is not printed", d.name)
			}
		}
		for _, d := range perLayerDefs {
			if v, ok := r.PerLayer[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("%s: layer metric %s = %+v", r.Name, d.name, v)
			}
		}
		if r.TraceOverhead == nil {
			t.Errorf("%s: no trace_overhead", r.Name)
		}
		zero := func(names ...string) {
			for _, n := range names {
				if v := r.PerLayer[n].Value; v != 0 {
					t.Errorf("%s: %s = %g, want 0", r.Name, n, v)
				}
			}
		}
		positive := func(names ...string) {
			for _, n := range names {
				if v := r.PerLayer[n].Value; v <= 0 {
					t.Errorf("%s: %s = %g, want > 0", r.Name, n, v)
				}
			}
		}
		if r.Name != "dist-wal" {
			zero("wal.fsyncs_per_txn", "wal.bytes_per_txn")
		}
		switch r.Name {
		case "dist-wal":
			positive("wal.fsyncs_per_txn", "wal.records_per_fsync", "wal.bytes_per_txn", "wal.savequeues_self_ms_per_txn")
			fallthrough
		case "dist-closed", "dist-open":
			positive("transport.encode_ns", "transport.decode_ns", "transport.frame_bytes", "transport.frames_per_txn",
				"transport.send_self_us_per_txn", "queue.msgs_per_frame", "queue.roundtrip_ns", "site.async_gap_us")
			zero("lock.acquire_release_ns", "dc.absorb_ns", "rdc.commit_ratio")
		case "local-lock":
			positive("lock.acquire_release_ns", "dc.absorb_ns", "core.pieces_per_txn", "chop.analyze_ms", "storage.apply_ns", "storage.get_ns")
			zero("rdc.commit_ratio", "rdc.repaired_ops_per_commit", "transport.frames_per_txn")
		case "local-repair":
			positive("rdc.commit_ratio", "storage.apply_ns", "storage.get_ns")
			zero("lock.acquire_release_ns", "lock.block_ratio", "lock.deadlocks", "dc.absorb_ns", "dc.absorb_ratio", "transport.frames_per_txn")
			if v := r.PerLayer["core.pieces_per_txn"].Value; v != 1 {
				t.Errorf("local-repair chops nothing, yet pieces_per_txn = %g", v)
			}
		}
	}
	if info, err := os.Stat(spans); err != nil || info.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

func TestDriverModeEndsWithTheContractLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "local-repair", "--seed", "9", "--seconds", "1", "--trace", trace, "-tmp", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool                  `json:"correct"`
			Attempted *int                   `json:"attempted"`
			Failed    *int                   `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Fatalf("trace %s: line %s", trace, lines[len(lines)-1])
		}
		want := endToEndDefs
		if trace == "1" {
			want = perLayerDefs
		}
		if len(line.Metrics) != len(want) {
			t.Fatalf("trace %s: %d metrics, want %d", trace, len(line.Metrics), len(want))
		}
		for _, d := range want {
			if v, ok := line.Metrics[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v", trace, d.name, v)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &stdout, &stderr); code == 0 {
		t.Fatal("an unknown workload exited 0")
	}
}

// twoResults builds a pair of result files with one workload each.
func twoResults() (a, b *resultFile) {
	mk := func() *resultFile {
		return &resultFile{
			Schema: schema, Seed: 42, Env: envInfo{NProc: 2, GOMAXPROCS: 2},
			Workloads: []*workloadResult{{Name: "dist-closed", EndToEnd: map[string]metricValue{
				"settled_tps":   {Value: 10000, Unit: "1/s"},
				"update_p50_us": {Value: 2000, Unit: "us"},
				"query_p50_us":  {Value: 3000, Unit: "us"},
				"init_p50_us":   {Value: 10, Unit: "us"},
				"setup_s":       {Value: 0.3, Unit: "s"},
				"fail_frac":     {Value: 0, Unit: "ratio"},
			}}},
		}
	}
	return mk(), mk()
}

func TestCompareGatesOnEachMetricsOwnBound(t *testing.T) {
	set := func(f *resultFile, name string, v float64) {
		m := f.Workloads[0].EndToEnd[name]
		m.Value = v
		f.Workloads[0].EndToEnd[name] = m
	}
	regressions := func(a, b *resultFile) int {
		t.Helper()
		n, err := compareResults(a, b, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// worse returns old moved by share in the metric's bad direction.
	worse := func(d metricDef, old, share float64) float64 {
		if d.lowerBetter {
			return old * (1 + share)
		}
		return old * (1 - share)
	}
	for _, d := range endToEndDefs {
		if d.name == "setup_s" {
			continue // has an absolute floor, below
		}
		a, b := twoResults()
		old := a.Workloads[0].EndToEnd[d.name].Value
		set(b, d.name, worse(d, old, 0.9*d.bound))
		if n := regressions(a, b); n != 0 {
			t.Errorf("%s worse by 0.9 of its bound: %d regressions", d.name, n)
		}
		set(b, d.name, worse(d, old, 1.1*d.bound))
		if n := regressions(a, b); n != 1 {
			t.Errorf("%s worse by 1.1 of its bound: %d regressions, want 1", d.name, n)
		}
		set(b, d.name, worse(d, old, -0.5)) // an improvement is never a regression
		if n := regressions(a, b); n != 0 {
			t.Errorf("%s better by half: %d regressions", d.name, n)
		}
	}
	a, b := twoResults()
	set(b, "setup_s", 0.75) // 0.3 s -> 0.75 s: +150%, but under the 0.5 s floor
	if n := regressions(a, b); n != 0 {
		t.Errorf("setup_s inside its absolute floor: %d regressions", n)
	}
	set(b, "setup_s", 0.85)
	set(b, "fail_frac", 0.002)
	if n := regressions(a, b); n != 2 {
		t.Errorf("setup_s +0.55 s and fail_frac +0.002: %d regressions, want 2", n)
	}
	set(a, "setup_s", 4) // a long set-up is held to the relative bound
	set(b, "setup_s", 4.9)
	set(b, "fail_frac", 0.0005)
	if n := regressions(a, b); n != 0 {
		t.Errorf("setup_s 4 s -> 4.9 s: %d regressions", n)
	}
	set(b, "setup_s", 5.1)
	if n := regressions(a, b); n != 1 {
		t.Errorf("setup_s 4 s -> 5.1 s: %d regressions, want 1", n)
	}
}

func TestCompareRefusesIncomparableFiles(t *testing.T) {
	for name, tamper := range map[string]func(*resultFile){
		"seed":       func(f *resultFile) { f.Seed = 43 },
		"nproc":      func(f *resultFile) { f.Env.NProc = 4 },
		"gomaxprocs": func(f *resultFile) { f.Env.GOMAXPROCS = 1 },
		"smoke":      func(f *resultFile) { f.Smoke = true },
	} {
		a, b := twoResults()
		tamper(b)
		if err := comparable(a, b); err == nil {
			t.Errorf("files differing in %s compared", name)
		}
	}
	a, b := twoResults()
	b.Workloads[0].Name = "dist-open"
	if _, err := compareResults(a, b, &bytes.Buffer{}); err == nil {
		t.Error("a missing workload compared")
	}

	// And through the command: exit 0 within bounds, 1 past one, 2 refused.
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		data, _ := json.Marshal(f)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b = twoResults()
	slow, _ := twoResults()
	slow.Workloads[0].EndToEnd["settled_tps"] = metricValue{Value: 5000, Unit: "1/s"}
	other, _ := twoResults()
	other.Seed = 1
	pa, pb, ps, po := write("a.json", a), write("b.json", b), write("slow.json", slow), write("other.json", other)
	for _, c := range []struct {
		old, new string
		want     int
	}{{pa, pb, 0}, {pa, ps, 1}, {ps, pa, 0}, {pa, po, 2}} {
		var stdout, stderr bytes.Buffer
		if got := run([]string{"-compare", c.old, c.new}, &stdout, &stderr); got != c.want {
			t.Errorf("-compare %s %s exited %d, want %d\n%s%s", filepath.Base(c.old), filepath.Base(c.new), got, c.want, stdout.String(), stderr.String())
		}
	}
}

// TestBenchmarkJSONAgreesWithTheCode holds the driver's contract file
// and the tables in this package together.
func TestBenchmarkJSONAgreesWithTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, the code has %d", len(bj.Workloads), len(workloadDefs))
	}
	for i, w := range bj.Workloads {
		if d := workloadDefs[i]; w.Name != d.name || w.Why != d.why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q differs from the code's %q / %q", i, w.Name, w.Why, d.name, d.why)
		}
	}
	better := func(lower bool) string {
		if lower {
			return "lower"
		}
		return "higher"
	}
	if len(bj.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics, the code has %d", len(bj.EndToEnd), len(endToEndDefs))
	}
	for i, m := range bj.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.lowerBetter) || m.Bound == nil || *m.Bound != d.bound || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v differs from the code's %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d layer metrics, the code has %d", len(bj.PerLayer), len(perLayerDefs))
	}
	for i, m := range bj.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.lowerBetter) || m.Bound != nil {
			t.Errorf("layer metric %d: %+v differs from the code's %+v", i, m, d)
		}
	}
	// 4 + 22 x workloads runs, with set-up, must fit the driver's cap.
	if runs := 4 + 22*len(bj.Workloads); float64(runs*(bj.RunSeconds+12)) > 3420 {
		t.Errorf("%d runs of %d s leave no room for set-up inside 3420 s", runs, bj.RunSeconds)
	}
}
