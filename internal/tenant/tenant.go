// Package tenant is the multi-tenant partitioned serving layer: many
// logical app partitions — each with its own core.Runner, engine,
// striped store, and disjoint slice of the ε-provenance ledger —
// multiplexed over a small number of bounded shared worker pools, so
// one process serves N tenants partition-parallel instead of one
// workload through one pipeline.
//
// The shape is the appparts scheduling model: a router hashes tenant →
// partition; each partition owns a bounded mailbox; a partition with
// queued work is scheduled (at most once) onto its pool's run queue,
// where a fixed set of workers drains mailboxes a batch at a time.
// There is no goroutine per tenant and no lock shared between
// partitions on the execute path — a partition executes serially, so a
// hot tenant cannot convoy the engines of the others, and the
// conflict-retry tax a shared single runner pays under contention
// disappears by construction.
//
// Admission control is per tenant and two-staged, the paper's ε knob
// used as a live overload control: a token bucket bounds the admitted
// request rate, and when a tenant is over rate (or its partition's
// queue is past the degrade threshold) its queries do not queue — they
// are served from the partition store's current (fuzzy) image and the
// program's declared import bound is charged against the tenant's
// ε-spend bucket and metrics. Only when that degrade path is exhausted
// too (updates, strict queries, or an empty ε bucket) is the request
// shed with ErrShed. Spending divergence is the first relief valve;
// rejection is the last.
//
// Hot-partition detection reads the same signals the metrics plane
// exports (mailbox depth, served rate) and greedily rebalances the
// partition→pool assignment so one pool does not starve while another
// idles.
package tenant

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asynctp/internal/core"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// ErrShed reports that admission control rejected the request after the
// ε-degrade path was exhausted. Callers treat it as backpressure, not
// failure: the request was never executed.
var ErrShed = errors.New("tenant: request shed by admission control")

// ErrClosed reports a Submit after Close.
var ErrClosed = errors.New("tenant: serving layer closed")

// Tenant declares one logical application: its program table, initial
// store image, and admission limits. Tenants sharing a partition must
// have disjoint key spaces (prefix your keys with the tenant name).
type Tenant struct {
	// Name identifies the tenant in routing, stats, and metrics labels.
	Name string
	// Programs and Counts declare the tenant's job stream (Counts
	// defaults to 1 each), exactly as core.Config does.
	Programs []*txn.Program
	Counts   []int
	// Initial seeds the tenant's keys in its partition's store.
	Initial map[storage.Key]metric.Value
	// Rate and Burst are the admitted-request token bucket
	// (requests/sec; Burst defaults to Rate/4, min 1). Rate 0 disables
	// request rate limiting.
	Rate, Burst float64
	// EpsRate and EpsBurst are the ε-spend bucket for the degraded
	// stale-read path (fuzz/sec). EpsRate 0 leaves degradation
	// unmetered: the tenant may spend divergence freely under overload.
	EpsRate, EpsBurst float64
}

// Config configures the serving layer.
type Config struct {
	// Partitions is the number of logical partitions (default 8).
	Partitions int
	// Pools is the number of shared worker pools the partitions are
	// multiplexed over (default 1); Workers is the total worker count
	// across all pools (default Partitions), split evenly.
	Pools, Workers int
	// MailboxDepth bounds each partition's queue (default 64).
	// DegradeDepth is the per-partition depth at which queries stop
	// queueing and start degrading (default MailboxDepth/2); updates
	// may fill the mailbox to the brim before shedding.
	MailboxDepth, DegradeDepth int
	// Method / Distribution / Engine / OpDelay configure every
	// partition's core.Runner (Method defaults to BaselineESRDC).
	Method       core.Method
	Distribution core.Distribution
	Engine       core.EngineKind
	OpDelay      time.Duration
	// Obs attaches the observability plane, shared across partitions.
	// Each partition runner gets a disjoint core.Config.IDBase so
	// ledger accounts and trace spans never collide.
	Obs *obs.Plane
	// RebalanceEvery starts the background hot-partition rebalancer at
	// that interval (0 leaves rebalancing manual via Rebalance).
	RebalanceEvery time.Duration
	// Assign overrides the tenant→partition router (default: FNV-1a
	// hash of the tenant name modulo Partitions). Benchmarks use it for
	// deterministic balanced placement.
	Assign func(tenant string) int
	// Now is the admission clock (tests inject a fake; default
	// time.Now). Latency measurements always use the real clock.
	Now func() time.Time
}

// Result is one served request.
type Result struct {
	Tenant  string
	Program string
	// Degraded reports the ε-spending stale-read fast path; Charged is
	// the fuzziness billed for it and Reads the (fuzzy) sum of values
	// read. Inner is nil on this path.
	Degraded bool
	Charged  metric.Fuzz
	Reads    metric.Value
	// Inner is the engine result for normally admitted requests.
	Inner *core.InstanceResult
	// Queue is the time spent in the partition mailbox; Latency is the
	// full submit-to-done time.
	Queue   time.Duration
	Latency time.Duration
}

// SumReads totals the values read, on either path.
func (r *Result) SumReads() metric.Value {
	if r.Degraded {
		return r.Reads
	}
	if r.Inner == nil {
		return 0
	}
	return r.Inner.SumReads()
}

// Committed reports whether the request took effect: engine-committed
// on the normal path, served on the degraded path.
func (r *Result) Committed() bool {
	if r.Degraded {
		return true
	}
	return r.Inner != nil && r.Inner.Committed
}

// progInfo is the per-program admission precomputation.
type progInfo struct {
	query    bool
	eligible bool        // query servable from a stale image
	charge   metric.Fuzz // declared import bound billed per degraded serve
}

// tenantState is one tenant's runtime: routing, buckets, counters.
type tenantState struct {
	cfg  Tenant
	part *partition
	base int // index of this tenant's program 0 in the merged table

	reqBucket *bucket
	epsBucket *bucket
	info      []progInfo

	admitted   atomic.Int64
	degraded   atomic.Int64
	shed       atomic.Int64
	epsCharged atomic.Int64
}

// request is one queued submission.
type request struct {
	ctx  context.Context
	ti   int // merged program index
	enq  time.Time
	done chan reqDone
}

type reqDone struct {
	res   *core.InstanceResult
	err   error
	queue time.Duration
}

// partition is one scheduling domain: a runner, its store, a mailbox,
// and the scheduled flag that keeps it on at most one run queue (and
// hence executing serially).
type partition struct {
	id        int
	runner    *core.Runner
	store     *storage.Store
	progs     []*txn.Program
	mailbox   chan *request
	scheduled atomic.Bool
	pool      atomic.Int32
	served    atomic.Int64

	// Rebalancer-only state, guarded by Serve.rbMu.
	lastServed int64
	loadEWMA   float64
}

// pool is one bounded worker pool.
type pool struct {
	id      int
	workers int
	runq    chan *partition
	busy    atomic.Int64
}

// Serve is the multi-tenant serving layer.
type Serve struct {
	cfg          Config
	parts        []*partition
	pools        []*pool
	byName       map[string]*tenantState
	degradeDepth int
	now          func() time.Time

	closed   atomic.Bool
	inflight sync.WaitGroup
	workers  sync.WaitGroup

	rbMu       sync.Mutex
	rebalances atomic.Int64
	moves      atomic.Int64
	stopRb     chan struct{}
	rbDone     sync.WaitGroup
}

// hashPartition is the default router: FNV-1a of the tenant name.
func hashPartition(name string, parts int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum32() % uint32(parts))
}

// New builds the serving layer: routes tenants to partitions, builds
// one core.Runner + store per non-empty partition (with disjoint ID
// bases), and starts the worker pools.
func New(cfg Config, tenants []Tenant) (*Serve, error) {
	if len(tenants) == 0 {
		return nil, errors.New("tenant: need at least one tenant")
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 8
	}
	if cfg.Pools <= 0 {
		cfg.Pools = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = cfg.Partitions
	}
	if cfg.Workers < cfg.Pools {
		cfg.Workers = cfg.Pools
	}
	if cfg.MailboxDepth <= 0 {
		cfg.MailboxDepth = 64
	}
	if cfg.DegradeDepth <= 0 || cfg.DegradeDepth > cfg.MailboxDepth {
		cfg.DegradeDepth = cfg.MailboxDepth / 2
		if cfg.DegradeDepth < 1 {
			cfg.DegradeDepth = 1
		}
	}
	if cfg.Method == 0 {
		cfg.Method = core.BaselineESRDC
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	assign := cfg.Assign
	if assign == nil {
		assign = func(name string) int { return hashPartition(name, cfg.Partitions) }
	}

	s := &Serve{
		cfg:          cfg,
		byName:       make(map[string]*tenantState, len(tenants)),
		degradeDepth: cfg.DegradeDepth,
		now:          cfg.Now,
		stopRb:       make(chan struct{}),
	}
	s.parts = make([]*partition, cfg.Partitions)
	for k := range s.parts {
		s.parts[k] = &partition{
			id:      k,
			mailbox: make(chan *request, cfg.MailboxDepth),
		}
		s.parts[k].pool.Store(int32(k % cfg.Pools))
	}

	// Route tenants and build each partition's merged program table.
	type build struct {
		progs   []*txn.Program
		counts  []int
		initial map[storage.Key]metric.Value
	}
	builds := make([]build, cfg.Partitions)
	for _, tc := range tenants {
		if tc.Name == "" {
			return nil, errors.New("tenant: tenant needs a name")
		}
		if _, dup := s.byName[tc.Name]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant %q", tc.Name)
		}
		if len(tc.Programs) == 0 {
			return nil, fmt.Errorf("tenant %s: needs programs", tc.Name)
		}
		if len(tc.Counts) != 0 && len(tc.Counts) != len(tc.Programs) {
			return nil, fmt.Errorf("tenant %s: %d counts for %d programs", tc.Name, len(tc.Counts), len(tc.Programs))
		}
		k := assign(tc.Name)
		if k < 0 || k >= cfg.Partitions {
			return nil, fmt.Errorf("tenant %s: assigned to partition %d of %d", tc.Name, k, cfg.Partitions)
		}
		b := &builds[k]
		if b.initial == nil {
			b.initial = make(map[storage.Key]metric.Value)
		}
		ts := &tenantState{cfg: tc, part: s.parts[k], base: len(b.progs)}
		b.progs = append(b.progs, tc.Programs...)
		counts := tc.Counts
		if len(counts) == 0 {
			counts = make([]int, len(tc.Programs))
			for i := range counts {
				counts[i] = 1
			}
		}
		b.counts = append(b.counts, counts...)
		for key, v := range tc.Initial {
			if _, dup := b.initial[key]; dup {
				return nil, fmt.Errorf("tenant %s: key %q collides with a co-located tenant", tc.Name, key)
			}
			b.initial[key] = v
		}
		burst := tc.Burst
		if burst <= 0 {
			burst = tc.Rate / 4
			if burst < 1 {
				burst = 1
			}
		}
		ts.reqBucket = newBucket(tc.Rate, burst, cfg.Now())
		epsBurst := tc.EpsBurst
		if epsBurst <= 0 {
			epsBurst = tc.EpsRate
		}
		ts.epsBucket = newBucket(tc.EpsRate, epsBurst, cfg.Now())
		ts.info = make([]progInfo, len(tc.Programs))
		for i, p := range tc.Programs {
			info := progInfo{query: p.Class() == txn.Query}
			if info.query {
				switch {
				case p.Spec.Import.IsInfinite():
					info.eligible = true // unrestricted query: degrade free
				case p.Spec.Import.Bound() > 0:
					info.eligible = true
					info.charge = p.Spec.Import.Bound()
				}
				// A strict query (import 0) tolerates no divergence and
				// must go through the engine or be shed.
			}
			ts.info[i] = info
		}
		s.byName[tc.Name] = ts
	}

	for k, b := range builds {
		if len(b.progs) == 0 {
			continue // unpopulated partition: never routed to
		}
		p := s.parts[k]
		p.store = storage.NewFrom(b.initial)
		r, err := core.NewRunner(core.Config{
			Method:       cfg.Method,
			Distribution: cfg.Distribution,
			Store:        p.store,
			Programs:     b.progs,
			Counts:       b.counts,
			Engine:       cfg.Engine,
			OpDelay:      cfg.OpDelay,
			Obs:          cfg.Obs,
			// Disjoint owner/group ID ranges per partition: the plane's
			// ledger and span store are shared, and colliding groups would
			// merge two tenants' ε accounts (the isolation the layer
			// exists to provide).
			IDBase: int64(k+1) << 40,
		})
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", k, err)
		}
		p.runner = r
		p.progs = b.progs
		part := p
		cfg.Obs.WatchPartition(strconv.Itoa(k),
			func() float64 { return float64(len(part.mailbox)) },
			func() float64 { return float64(part.served.Load()) })
	}

	// Worker pools: Workers split round-robin across Pools.
	s.pools = make([]*pool, cfg.Pools)
	for i := range s.pools {
		n := cfg.Workers / cfg.Pools
		if i < cfg.Workers%cfg.Pools {
			n++
		}
		pl := &pool{id: i, workers: n, runq: make(chan *partition, cfg.Partitions)}
		s.pools[i] = pl
		cfg.Obs.WatchPool(strconv.Itoa(i), func() float64 {
			if pl.workers == 0 {
				return 0
			}
			return float64(pl.busy.Load()) / float64(pl.workers)
		})
		for w := 0; w < n; w++ {
			s.workers.Add(1)
			go s.worker(pl)
		}
	}

	if cfg.RebalanceEvery > 0 {
		s.rbDone.Add(1)
		go func() {
			defer s.rbDone.Done()
			tick := time.NewTicker(cfg.RebalanceEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					s.Rebalance()
				case <-s.stopRb:
					return
				}
			}
		}()
	}
	return s, nil
}

// dispatchBatch bounds how many requests a worker drains from one
// partition before releasing it, so a deep mailbox cannot starve the
// other partitions sharing the pool.
const dispatchBatch = 8

// schedule puts p on its pool's run queue unless it is already
// scheduled. The flag, not the queue, is the serial-execution token: a
// partition is drained by at most one worker at a time.
func (s *Serve) schedule(p *partition) {
	if p.scheduled.CompareAndSwap(false, true) {
		s.pools[p.pool.Load()].runq <- p
	}
}

// worker drains scheduled partitions, a bounded batch each.
func (s *Serve) worker(pl *pool) {
	defer s.workers.Done()
	for p := range pl.runq {
		pl.busy.Add(1)
		for n := 0; n < dispatchBatch; n++ {
			select {
			case req := <-p.mailbox:
				s.execute(p, req)
			default:
				n = dispatchBatch
			}
		}
		pl.busy.Add(-1)
		p.scheduled.Store(false)
		if len(p.mailbox) > 0 {
			// Refill raced the drain (or the batch bound hit): hand the
			// partition back — possibly to a different pool if the
			// rebalancer moved it.
			s.schedule(p)
		}
	}
}

// execute runs one queued request on the partition's runner.
func (s *Serve) execute(p *partition, req *request) {
	defer s.inflight.Done()
	var d reqDone
	d.queue = time.Since(req.enq)
	if err := req.ctx.Err(); err != nil {
		d.err = err
	} else {
		// Thread the enqueue instant through so the span hooks can charge
		// the mailbox wait to the instance's admit phase.
		d.res, d.err = p.runner.Submit(core.WithEnqueueTime(req.ctx, req.enq), req.ti)
	}
	p.served.Add(1)
	req.done <- d // buffered; never blocks even if the submitter left
}

// Submit serves one instance of tenant's program ti. The normal path
// queues it on the tenant's partition and blocks until the engine
// settles it. Under overload — rate bucket empty or partition queue at
// the degrade threshold — eligible queries are served degraded (stale
// read, ε charged); everything else is shed with ErrShed.
func (s *Serve) Submit(ctx context.Context, tenant string, ti int) (*Result, error) {
	t := s.byName[tenant]
	if t == nil {
		return nil, fmt.Errorf("tenant: unknown tenant %q", tenant)
	}
	if ti < 0 || ti >= len(t.cfg.Programs) {
		return nil, fmt.Errorf("tenant %s: program index %d out of range", tenant, ti)
	}
	if s.closed.Load() {
		return nil, ErrClosed
	}
	start := time.Now()
	p := t.part
	info := t.info[ti]

	// Normal path: a rate token plus queue headroom. Queries stop
	// queueing at the degrade threshold (they have a cheaper way out);
	// updates may fill the mailbox before shedding.
	limit := cap(p.mailbox)
	if info.query {
		limit = s.degradeDepth
	}
	if len(p.mailbox) < limit && t.reqBucket.take(s.now(), 1) {
		req := &request{ctx: ctx, ti: t.base + ti, enq: start, done: make(chan reqDone, 1)}
		s.inflight.Add(1)
		select {
		case p.mailbox <- req:
			t.admitted.Add(1)
			s.cfg.Obs.TenantAdmit(t.cfg.Name)
			s.schedule(p)
			select {
			case d := <-req.done:
				if d.err != nil {
					return nil, d.err
				}
				return &Result{
					Tenant:  t.cfg.Name,
					Program: d.res.Program,
					Inner:   d.res,
					Queue:   d.queue,
					Latency: time.Since(start),
				}, nil
			case <-ctx.Done():
				// The worker will observe the dead context and settle the
				// buffered done channel; the request is not re-queued.
				return nil, ctx.Err()
			}
		default:
			// Lost the race to the last mailbox slot: return the token
			// and fall through to the overload policy.
			s.inflight.Done()
			t.reqBucket.refund(1)
		}
	}

	// Overload policy: spend ε before shedding anything.
	if info.eligible && t.epsBucket.take(s.now(), float64(info.charge)) {
		return s.degradedServe(p, t, ti, info.charge, start), nil
	}
	t.shed.Add(1)
	s.cfg.Obs.TenantShed(t.cfg.Name)
	return nil, ErrShed
}

// degradedServe answers a query from the partition store's current
// image without queueing or validation — the reads are fuzzy up to the
// program's declared import bound, which is exactly what gets charged.
func (s *Serve) degradedServe(p *partition, t *tenantState, ti int, charge metric.Fuzz, start time.Time) *Result {
	prog := t.cfg.Programs[ti]
	var sum metric.Value
	for _, op := range prog.Ops {
		if op.Kind == txn.OpRead {
			sum += p.store.Get(op.Key)
		}
	}
	t.degraded.Add(1)
	t.epsCharged.Add(int64(charge))
	s.cfg.Obs.TenantDegrade(t.cfg.Name, charge)
	return &Result{
		Tenant:   t.cfg.Name,
		Program:  prog.Name,
		Degraded: true,
		Charged:  charge,
		Reads:    sum,
		Latency:  time.Since(start),
	}
}

// Close drains in-flight requests, stops the rebalancer and the worker
// pools, and rejects subsequent Submits. Submit must not be called
// concurrently with Close.
func (s *Serve) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.stopRb)
	s.rbDone.Wait()
	s.inflight.Wait()
	for _, pl := range s.pools {
		close(pl.runq)
	}
	s.workers.Wait()
}

// Partition returns the partition a tenant routes to (-1 if unknown).
func (s *Serve) Partition(tenant string) int {
	if t := s.byName[tenant]; t != nil {
		return t.part.id
	}
	return -1
}

// PoolOf returns partition k's current pool assignment.
func (s *Serve) PoolOf(k int) int {
	if k < 0 || k >= len(s.parts) {
		return -1
	}
	return int(s.parts[k].pool.Load())
}

// Partitions returns the partition count.
func (s *Serve) Partitions() int { return len(s.parts) }

// Store returns partition k's store (nil for unpopulated partitions);
// audits sum over all of them.
func (s *Serve) Store(k int) *storage.Store {
	if k < 0 || k >= len(s.parts) {
		return nil
	}
	return s.parts[k].store
}

// Runner returns partition k's runner (nil for unpopulated partitions).
func (s *Serve) Runner(k int) *core.Runner {
	if k < 0 || k >= len(s.parts) {
		return nil
	}
	return s.parts[k].runner
}

// TenantStats is one tenant's admission accounting.
type TenantStats struct {
	Admitted, Degraded, Shed int64
	EpsCharged               metric.Fuzz
}

// Allowed reports whether the ε charged so far fits the tenant's
// declared ε-spend budget over the given elapsed time (always true for
// unmetered tenants) — the per-tenant budget audit.
func (ts TenantStats) Allowed(t Tenant, elapsed time.Duration) bool {
	if t.EpsRate <= 0 {
		return true
	}
	burst := t.EpsBurst
	if burst <= 0 {
		burst = t.EpsRate
	}
	return float64(ts.EpsCharged) <= t.EpsRate*elapsed.Seconds()+burst
}

// TenantStats returns one tenant's counters (zero value if unknown).
func (s *Serve) TenantStats(name string) TenantStats {
	t := s.byName[name]
	if t == nil {
		return TenantStats{}
	}
	return TenantStats{
		Admitted:   t.admitted.Load(),
		Degraded:   t.degraded.Load(),
		Shed:       t.shed.Load(),
		EpsCharged: metric.Fuzz(t.epsCharged.Load()),
	}
}

// Stats summarizes the whole layer.
type Stats struct {
	Tenants    map[string]TenantStats
	Rebalances int64
	Moves      int64
}

// Stats returns a snapshot of every tenant plus rebalancer counters.
func (s *Serve) Stats() Stats {
	out := Stats{
		Tenants:    make(map[string]TenantStats, len(s.byName)),
		Rebalances: s.rebalances.Load(),
		Moves:      s.moves.Load(),
	}
	for name := range s.byName {
		out.Tenants[name] = s.TenantStats(name)
	}
	return out
}
