package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"asynctp/internal/core"
	"asynctp/internal/dc"
	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/rdc"
	"asynctp/internal/simnet"
	"asynctp/internal/site"
	"asynctp/internal/storage"
	"asynctp/internal/storage/driver"
	"asynctp/internal/transport"
	"asynctp/internal/txn"
	"asynctp/internal/workload"
)

// workloadDef fixes everything about one workload but the seed. Client
// count and offered rate are constants here, not flags: a result is
// only comparable with another taken at the same load.
type workloadDef struct {
	name string
	// why is the one line BENCHMARK.json and the README carry.
	why string
	// dist runs a 3-site site.Cluster over loopback TCP; otherwise one
	// core.Runner.
	dist bool
	// wal puts the sites on the disk driver (dist only).
	wal bool
	// rate > 0 makes the load an open loop at that many arrivals per
	// second; otherwise clients closed-loop clients run.
	rate    float64
	clients int
	// method and engine configure the runner (local only).
	method core.Method
	engine core.EngineKind
	// warmup is the number of closed-loop submits before timing.
	warmup int
}

// openInFlightCap is the open loop's in-flight limit; arrivals beyond
// it are shed and count as failed.
const openInFlightCap = 4096

var workloadDefs = []workloadDef{
	{
		name: "dist-closed", dist: true, clients: 32, warmup: 2000,
		why: "3 sites over loopback TCP at CPU saturation: queue batching, transport codec and site report/ack handling set settled throughput",
	},
	{
		name: "dist-open", dist: true, rate: 6000, clients: 32, warmup: 2000,
		why: "same cluster at a fixed 6000/s Poisson open loop, about 40% of capacity: the same layers seen as latency, so held-back frames show",
	},
	{
		// 16 clients, not dist-closed's 32: the fsync rate of the box's
		// shared disk moves between 3000/s and 5000/s for tens of seconds
		// at a time, and everything here follows it. Measured spread
		// between runs (quartile distance over median): at 4 clients
		// init_p50_us 33-38 percent (initiation is two fsync waits and
		// nothing else); at 32 update_p50_us 13-17 and query_p50_us 9-18;
		// at 16 no metric above 12. See README, "dist-wal and the disk".
		name: "dist-wal", dist: true, wal: true, clients: 16, warmup: 500,
		why: "dist-closed's cluster on the disk driver, 16 clients: WAL fsync and persist-before-ack dominate settlement and initiation, codec work is negligible",
	},
	{
		name: "local-lock", clients: 2, warmup: 10000,
		method: core.Method3ESRChopDC, engine: core.EngineLocking,
		why: "one runner, ESR-chopping under locking divergence control on 8 hot keys: chop/core scheduling, lock, dc, txn, storage and no network",
	},
	{
		name: "local-repair", clients: 2, warmup: 10000,
		method: core.BaselineESRDC, engine: core.EngineRepair,
		why: "the identical seeded schedule unchopped on the repair engine: rdc validate/repair/install replaces lock and dc, so an engine change moves one of the pair",
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.name
	}
	return names
}

// Table shapes. OpDelay stays 0 everywhere: with the 50µs spin the old
// baselines use, every engine measures the spin, not itself.
var distSites = []simnet.SiteID{"s0", "s1", "s2"}

const (
	ycsbRecords      = 2000
	ycsbTheta        = 0.9
	ycsbProgramTypes = 64
	ycsbReadFraction = 0.25
	ycsbReadSpan     = 4

	hotKeys       = 8
	hotTheta      = 0.99
	transferTypes = 8
	// auditEvery makes the full-pool audit 1 in 8 submissions.
	auditEvery = 8
	// localEpsilon is each audit's import limit; every audit's measured
	// deviation from the conserved total is checked against it.
	localEpsilon = 1 << 20

	// schedLen is the length of each client's cyclic submission
	// schedule.
	schedLen = 1 << 16
)

// tableSeed draws the declared program table, the same for every run.
// The table is the application — chopping assumes the job stream is
// known in advance — and is part of the workload's definition like the
// record count: which accounts a transfer type touches decides how many
// types cross sites and which hot keys collide, and letting that vary
// with -seed moved update_p50_us by 15% between seeds on dist-open (2%
// between runs of one seed). -seed draws what a deployment varies: who
// submits what, in which order, at which instant.
const tableSeed = 42

// Latency classes of a program.
const (
	// classUpdate: a write program whose settlement is timed.
	classUpdate uint8 = iota
	// classQuery: a read-only (ε-importing) program.
	classQuery
	// classLocalUpdate: on dist-*, a write program all on one site. It
	// has one piece, so it settles at initiation; it counts in
	// settled_tps and init_p50_us but in neither settlement column,
	// whose median it would otherwise flip between two modes (measured
	// on dist-wal: 8 ms or 78 ms on the same seed).
	classLocalUpdate
)

// inputs is the program table plus everything the seed decides: the
// order (and, for the open loop, the instants) of submissions. The
// system under test sees nothing else.
type inputs struct {
	w *workload.Workload
	// class is each program's latency class.
	class []uint8
	// sched[c] is client c's cyclic sequence of program indices.
	sched [][]uint16
	// due and arrival are the open loop's arrival offsets and program
	// indices, in due order.
	due     []time.Duration
	arrival []uint16
}

// genInputs builds the inputs of def; only seed varies them. The two
// local workloads share one generator, so the same seed gives them the
// same table and the same submission schedule.
func genInputs(def workloadDef, seed int64, window time.Duration) (*inputs, error) {
	var (
		w    *workload.Workload
		err  error
		draw func(rng *rand.Rand) uint16
	)
	if def.dist {
		w, err = workload.NewYCSB(workload.YCSBConfig{
			Records: ycsbRecords, Sites: distSites, Theta: ycsbTheta,
			ReadFraction: ycsbReadFraction, ProgramTypes: ycsbProgramTypes, ReadSpan: ycsbReadSpan,
			TransferAmount: 100, InitialBalance: 1_000_000, Epsilon: 1_000_000, Seed: tableSeed,
		})
		draw = func(rng *rand.Rand) uint16 { return uint16(rng.Intn(ycsbProgramTypes)) }
	} else {
		w, err = workload.NewContention(workload.ContentionConfig{
			Keys: hotKeys, Theta: hotTheta, TransferTypes: transferTypes,
			TransferCount: 1000, AuditCount: 1000 / (auditEvery - 1),
			Amount: 1, InitialBalance: 1 << 40, Epsilon: localEpsilon, Seed: tableSeed,
		})
		draw = func(rng *rand.Rand) uint16 {
			if rng.Intn(auditEvery) == 0 {
				return transferTypes // the audit is the last program
			}
			return uint16(rng.Intn(transferTypes))
		}
	}
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, class: make([]uint8, len(w.Programs))}
	for ti, p := range w.Programs {
		switch {
		case len(p.WriteSet()) == 0:
			in.class[ti] = classQuery
		case def.dist && sitePieces(p) == 1:
			in.class[ti] = classLocalUpdate
		}
	}
	in.sched = make([][]uint16, def.clients)
	for c := range in.sched {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c) + 1))
		s := make([]uint16, schedLen)
		for i := range s {
			s[i] = draw(rng)
		}
		in.sched[c] = s
	}
	if def.rate > 0 {
		rng := rand.New(rand.NewSource(seed*1_000_003 - 1))
		var at time.Duration
		for {
			at += time.Duration(rng.ExpFloat64() / def.rate * float64(time.Second))
			if at >= window {
				break
			}
			in.due = append(in.due, at)
			in.arrival = append(in.arrival, draw(rng))
		}
	}
	return in, nil
}

// sitePieces counts the pieces the site-boundary chopping cuts p into:
// one per run of consecutive ops placed on the same site.
func sitePieces(p *txn.Program) int {
	n := 1
	for i := 1; i < len(p.Ops); i++ {
		if workload.YCSBPlacement(p.Ops[i].Key) != workload.YCSBPlacement(p.Ops[i-1].Key) {
			n++
		}
	}
	return n
}

// outcome is what one submission returned.
type outcome struct {
	committed bool
	// init is submit→caller-may-proceed. The runner's Submit returns
	// only at settlement, so local workloads leave it 0 and the load
	// loop uses the whole submit latency.
	init time.Duration
}

// counters are the cumulative counts read from the program's public
// stats before and after a pass.
type counters struct {
	net          simnet.Stats
	lock         lock.Stats
	dc           dc.Stats
	rdc          rdc.Stats
	retries      uint64
	fsyncs       uint64
	fsyncRecords uint64
	walBytes     int64
}

// target is the system under test as the load loops see it.
type target interface {
	submit(ctx context.Context, ti int) (outcome, error)
	counters() counters
	// audit checks the run's outputs; the load must have stopped.
	audit() error
	close()
}

// ---------------------------------------------------------------------
// dist-*: site.Cluster over loopback TCP
// ---------------------------------------------------------------------

type distTarget struct {
	c     *site.Cluster
	total metric.Value
	wal   *walCounter
	dir   string // WAL directory, "" on the mem driver
	// registerMs is how long RegisterPrograms (site-boundary chopping)
	// took.
	registerMs float64
}

// openDist builds the cluster. tr, when non-nil, wraps the wire and
// storage seams with span-recording decorators; tmp is where a WAL
// workload puts its fresh directory.
func openDist(def workloadDef, in *inputs, tr *tracer, tmp string) (*distTarget, error) {
	t := &distTarget{total: in.w.Total()}
	listen := make(map[simnet.SiteID]string, len(distSites))
	for _, id := range distSites {
		listen[id] = "127.0.0.1:0"
	}
	var netw simnet.Net = transport.New(transport.Config{Listen: listen, Seed: 1})
	cfg := site.Config{
		Strategy:  site.ChoppedQueues,
		Placement: workload.YCSBPlacement,
		Initial:   workload.SplitInitial(in.w.Initial, workload.YCSBPlacement),
		// 5ms is what every other rig in the repository runs the queues at.
		RetransmitEvery:   5 * time.Millisecond,
		AllowCompensation: true,
	}
	var drv driver.Driver
	if def.wal {
		dir, err := os.MkdirTemp(tmp, "wal-")
		if err != nil {
			return nil, err
		}
		t.dir = dir
		params := driver.Params{Dir: dir, SyncEvery: 200 * time.Microsecond}
		if tr != nil {
			t.wal = &walCounter{}
			params.Obs = t.wal
		}
		if drv, err = driver.New("disk", params); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	if tr != nil {
		netw = tracedNet{Net: netw, tr: tr}
		if drv == nil {
			var err error
			if drv, err = driver.New("mem", driver.Params{}); err != nil {
				return nil, err
			}
		}
		drv = tracedDriver{Driver: drv, tr: tr}
	}
	cfg.Net = netw
	cfg.Storage = drv
	c, err := site.NewCluster(cfg)
	if err != nil {
		netw.Close()
		t.removeDir()
		return nil, err
	}
	t.c = c
	t0 := time.Now()
	if err := c.RegisterPrograms(in.w.Programs); err != nil {
		t.close()
		return nil, err
	}
	t.registerMs = float64(time.Since(t0)) / 1e6
	return t, nil
}

func (t *distTarget) submit(ctx context.Context, ti int) (outcome, error) {
	res, err := t.c.Submit(ctx, ti)
	if err != nil {
		return outcome{}, err
	}
	return outcome{committed: res.Committed, init: res.Initiation}, nil
}

func (t *distTarget) counters() counters {
	cs := counters{net: t.c.Net.Stats()}
	if t.wal != nil {
		cs.fsyncs = t.wal.fsyncs.Load()
		cs.fsyncRecords = t.wal.records.Load()
	}
	if t.dir != "" {
		cs.walBytes = dirBytes(t.dir)
	}
	return cs
}

// audit quiesces every queue, then requires money conserved across the
// cluster and no frame dropped by the wire.
func (t *distTarget) audit() error {
	deadline := time.Now().Add(60 * time.Second)
	for stable := 0; stable < 3; {
		idle := true
		for _, id := range distSites {
			if !t.c.Site(id).QueuesIdle() {
				idle = false
			}
		}
		if idle {
			stable++
		} else {
			stable = 0
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("queues did not quiesce within 60s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var total metric.Value
	for _, id := range distSites {
		st := t.c.Site(id).Store
		for _, k := range st.Keys() {
			if !strings.HasPrefix(string(k), "__") { // piece-applied markers
				total += st.Get(k)
			}
		}
	}
	if total != t.total {
		return fmt.Errorf("cluster-wide record total %d, seeded %d", total, t.total)
	}
	if d := t.c.Net.Stats().Dropped; d != 0 {
		return fmt.Errorf("wire dropped %d frames", d)
	}
	return nil
}

func (t *distTarget) close() {
	t.c.Close()
	t.removeDir()
}

func (t *distTarget) removeDir() {
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil // a segment pruned mid-walk is not an error
	})
	return total
}

// ---------------------------------------------------------------------
// local-*: one core.Runner
// ---------------------------------------------------------------------

type localTarget struct {
	r        *core.Runner
	store    *storage.Store
	expected map[int]metric.Value
	pool     []storage.Key
	poolSum  metric.Value
	// analyzeMs is how long NewRunner (the off-line chopping analysis)
	// took.
	analyzeMs float64

	retries    atomic.Uint64
	maxDev     atomic.Int64
	violations atomic.Int64
}

func openLocal(def workloadDef, in *inputs) (*localTarget, error) {
	// The audit program reads the whole hot pool, whose total transfers
	// conserve.
	auditProg := len(in.w.Programs) - 1
	t := &localTarget{
		expected: in.w.Expected,
		pool:     in.w.Programs[auditProg].ReadSet(),
		poolSum:  in.w.Expected[auditProg],
	}
	cfg := workload.ConfigFor(in.w, def.method, core.Static, false)
	cfg.Engine = def.engine
	t.store = cfg.Store
	t0 := time.Now()
	r, err := core.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	t.analyzeMs = float64(time.Since(t0)) / 1e6
	t.r = r
	return t, nil
}

// submit runs one instance and, for a full-pool audit, checks its
// deviation from the conserved total against ε on the spot.
func (t *localTarget) submit(ctx context.Context, ti int) (outcome, error) {
	res, err := t.r.Submit(ctx, ti)
	if err != nil {
		return outcome{}, err
	}
	if res.Retries > 0 {
		t.retries.Add(uint64(res.Retries))
	}
	if want, ok := t.expected[ti]; ok && res.Committed {
		dev := int64(metric.Distance(res.SumReads(), want))
		if dev > localEpsilon {
			t.violations.Add(1)
		}
		for {
			cur := t.maxDev.Load()
			if dev <= cur || t.maxDev.CompareAndSwap(cur, dev) {
				break
			}
		}
	}
	return outcome{committed: res.Committed}, nil
}

func (t *localTarget) counters() counters {
	return counters{
		lock:    t.r.LockStats(),
		dc:      t.r.DCStats(),
		rdc:     t.r.RDCStats(),
		retries: t.retries.Load(),
	}
}

func (t *localTarget) audit() error {
	if n := t.violations.Load(); n != 0 {
		return fmt.Errorf("%d audits deviated by more than ε=%d (max %d)", n, localEpsilon, t.maxDev.Load())
	}
	if got := t.store.Sum(t.pool); got != t.poolSum {
		return fmt.Errorf("pool total %d, seeded %d", got, t.poolSum)
	}
	return nil
}

func (t *localTarget) close() {}
