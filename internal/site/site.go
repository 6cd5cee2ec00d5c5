// Package site simulates multi-site distributed transaction processing:
// each site owns a partition of the keys and runs its own store, lock
// manager, executor, optional divergence controller, recoverable-queue
// endpoint, and 2PC node, all connected by the simulated network.
//
// Two execution strategies implement Section 4's comparison:
//
//   - TwoPhaseCommit: the traditional approach — every distributed
//     transaction runs subtransactions at each site it touches and
//     closes with a blocking two-phase commit (two message rounds on the
//     critical path; a crash between rounds blocks participants).
//   - ChoppedQueues: the paper's approach — transactions are chopped at
//     site boundaries; the first piece commits locally, and sibling
//     pieces are activated through recoverable queues, committing
//     asynchronously with no commit protocol at all. The caller observes
//     two latencies: initiation (first piece committed — the
//     user-visible latency) and settlement (every piece committed).
package site

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"asynctp/internal/commit"
	"asynctp/internal/dc"
	"asynctp/internal/fault"
	"asynctp/internal/history"
	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/queue"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/storage/driver"
	"asynctp/internal/txn"
)

// Strategy selects the distributed execution protocol.
type Strategy int

// Strategies.
const (
	// TwoPhaseCommit runs whole distributed transactions under 2PC.
	TwoPhaseCommit Strategy = iota + 1
	// ChoppedQueues chops at site boundaries and activates pieces
	// through recoverable queues.
	ChoppedQueues
)

// String renders the strategy.
func (s Strategy) String() string {
	switch s {
	case TwoPhaseCommit:
		return "2pc"
	case ChoppedQueues:
		return "chopped-queues"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Option tunes cluster construction beyond Config — functional options
// for the pipeline knobs that default sensibly and rarely change.
type Option func(*tuning)

// tuning collects the option-settable knobs.
type tuning struct {
	workers int
}

// defaultWorkers is the per-site piece-worker pool size (the historical
// hard-coded value, now the WithWorkers default).
const defaultWorkers = 4

// defaultActivationBatch caps how many queued activations one worker
// drains per wakeup (and therefore how many settlement reports coalesce
// into one done-queue message).
const defaultActivationBatch = 32

// WithWorkers sizes each site's piece-worker pool (default 4). One
// worker serializes all piece execution at the site; more workers
// overlap independent pieces at the cost of more lock contention.
func WithWorkers(n int) Option {
	return func(t *tuning) {
		if n > 0 {
			t.workers = n
		}
	}
}

// Site is one simulated site.
type Site struct {
	ID    simnet.SiteID
	Store *storage.Store

	cluster     *Cluster
	opDelay     time.Duration
	lockTimeout time.Duration
	workers     int
	mu          sync.Mutex
	locks       *lock.Manager
	exec        *txn.Exec
	ctl         *dc.Controller
	queues      *queue.Manager
	node        *commit.Node
	// prepared holds participant-side 2PC subtransactions awaiting the
	// decision: owner + undo images.
	prepared map[string]*preparedTxn
	// applied dedups piece applications on (inst, pieceIdx): redelivered
	// activations (at-least-once queues) must not double-apply.
	applied *dedupTable
	// crashed marks the site down; workers idle and messages drop.
	crashed bool
	// backend is the site's storage driver instance: the store it owns,
	// the durable queue image, and the recovery path. The mem driver
	// simulates durability; the disk driver earns it with a WAL.
	backend driver.Backend
	// recoverErr records a failed backend recovery; the site stays
	// crashed when it is set.
	recoverErr error

	stopWorkers chan struct{}
	workerWG    sync.WaitGroup
}

// preparedTxn is a participant-side subtransaction holding locks.
type preparedTxn struct {
	owner lock.Owner
	undo  map[storage.Key]metric.Value
	batch []storage.Write
}

// Config configures a cluster.
type Config struct {
	// Strategy selects 2PC vs chopped queues.
	Strategy Strategy
	// UseDC runs each site's lock manager under divergence control.
	UseDC bool
	// Placement maps each key to its owning site. It may name sites that
	// are not in Initial: those are remote peers (other OS processes)
	// reached through cfg.Net — activations and settlement reports ride
	// the recoverable queues to them exactly as to local sites.
	Placement func(storage.Key) simnet.SiteID
	// Initial seeds each LOCAL site's store; only these sites get
	// stores, workers, and inboxes in this process.
	Initial map[simnet.SiteID]map[storage.Key]metric.Value
	// Net supplies the wire. Nil builds the in-process simulated network
	// from Latency/Jitter/LossRate/Seed below. A transport.Net takes the
	// identical pipeline onto real TCP sockets (loopback or cross-
	// process); the two are conformance-tested twins.
	Net simnet.Net
	// Latency and Jitter configure the network (one-way).
	Latency time.Duration
	Jitter  float64
	// LossRate silently drops this fraction of in-flight messages; the
	// recoverable queues must still deliver exactly once.
	LossRate float64
	// Seed makes jitter reproducible.
	Seed int64
	// RetransmitEvery tunes the recoverable-queue retransmitter.
	RetransmitEvery time.Duration
	// OpDelay simulates per-operation work at each site (see
	// txn.Exec.SetOpDelay).
	OpDelay time.Duration
	// Record attaches a cluster-wide history recorder so distributed
	// executions can be checked for (grouped) serializability.
	Record bool
	// AllowCompensation permits chopped programs whose rollback
	// statements live beyond the first piece (not rollback-safe): a
	// later piece's business rollback triggers compensating inverse
	// pieces for its committed predecessors — the optimistic-commit
	// pattern of the paper's related work [7]. Requires every write in
	// such programs to be a commutative delta (invertible).
	AllowCompensation bool
	// LockTimeout bounds a 2PC participant's lock wait during prepare.
	// Distributed deadlocks are invisible to per-site detectors, so the
	// timeout (default 500ms) converts them into system NO votes that
	// the coordinator retries. Defaults are fine for tests; tune down
	// for high-contention benchmarks.
	LockTimeout time.Duration
	// CommitTimeouts enables bounded-wait 2PC (presumed abort on vote
	// timeout, participant stale-decision queries). The zero value keeps
	// the legacy unbounded-blocking coordinator.
	CommitTimeouts commit.Timeouts
	// FaultHook, when set, is consulted at the pipeline's injection
	// points (see fault.Point); a true answer fail-stops the site right
	// there — e.g. between a piece's commit and its queue ack.
	FaultHook fault.Hook
	// Storage selects the storage driver (nil means the in-memory "mem"
	// driver — the simulated-durability default). A disk driver makes
	// every site's committed state real files: a WAL with group-commit
	// fsync plus snapshots, surviving even kill -9.
	Storage driver.Driver
	// InstanceBase offsets the cluster's instance-ID sequence. A process
	// restarting against an existing disk image must pick a base above
	// every instance the previous incarnation could have minted, so new
	// submissions never collide with recovered piece markers.
	InstanceBase uint64
	// Obs, when non-nil, attaches the observability plane: every site's
	// executor, lock manager, divergence controller, queue endpoint, and
	// 2PC node report spans/ledger pages/metrics through it. Nil keeps
	// all the nil-observer fast paths.
	Obs *obs.Plane
}

// Cluster is a set of sites plus the network.
type Cluster struct {
	Net      simnet.Net
	Strategy Strategy
	UseDC    bool

	placement  func(storage.Key) simnet.SiteID
	compensate bool
	faultHook  fault.Hook
	obs        *obs.Plane
	sites      map[simnet.SiteID]*Site
	dist       *distState
	rec        *history.Recorder
	groupMu    sync.Mutex
	groupOf    map[lock.Owner]history.Group
	gen        txn.IDGen
	nextInst   sync.Mutex
	instSeq    uint64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg Config, opts ...Option) (*Cluster, error) {
	tune := tuning{workers: defaultWorkers}
	for _, opt := range opts {
		opt(&tune)
	}
	if cfg.Placement == nil {
		return nil, errors.New("site: config needs a placement function")
	}
	if len(cfg.Initial) == 0 {
		return nil, errors.New("site: config needs at least one site")
	}
	if cfg.Strategy == 0 {
		cfg.Strategy = TwoPhaseCommit
	}
	netw := cfg.Net
	if netw == nil {
		netOpts := []simnet.Option{simnet.WithLatency(cfg.Latency), simnet.WithJitter(cfg.Jitter)}
		if cfg.Seed != 0 {
			netOpts = append(netOpts, simnet.WithSeed(cfg.Seed))
		}
		if cfg.LossRate > 0 {
			netOpts = append(netOpts, simnet.WithLossRate(cfg.LossRate))
		}
		netw = simnet.New(netOpts...)
	} else if cfg.Strategy == TwoPhaseCommit {
		if _, sim := netw.(*simnet.Network); !sim {
			// 2PC prepare payloads carry txn.Op closures, which no byte
			// codec can frame; the strategy exists for the in-process A/B
			// comparison and stays on the simulated wire.
			return nil, errors.New("site: the 2PC strategy requires the in-process simnet (its payloads are not wire-serializable)")
		}
	}
	c := &Cluster{
		Net:        netw,
		Strategy:   cfg.Strategy,
		UseDC:      cfg.UseDC,
		placement:  cfg.Placement,
		compensate: cfg.AllowCompensation,
		faultHook:  cfg.FaultHook,
		obs:        cfg.Obs,
		sites:      make(map[simnet.SiteID]*Site, len(cfg.Initial)),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.dist = &distState{trackers: make(map[uint64]*tracker), registered: make(chan struct{})}
	c.groupOf = make(map[lock.Owner]history.Group)
	c.instSeq = cfg.InstanceBase
	if cfg.Record {
		c.rec = history.NewRecorder()
	}
	drv := cfg.Storage
	if drv == nil {
		var err error
		if drv, err = driver.New("mem", driver.Params{}); err != nil {
			return nil, err
		}
	}
	for id, init := range cfg.Initial {
		lockTimeout := cfg.LockTimeout
		if lockTimeout <= 0 {
			lockTimeout = 500 * time.Millisecond
		}
		be, err := drv.Open(string(id), init)
		if err != nil {
			return nil, fmt.Errorf("site: opening %s backend for %s: %w", drv.Name(), id, err)
		}
		s := &Site{
			ID:          id,
			Store:       be.Store(),
			backend:     be,
			cluster:     c,
			opDelay:     cfg.OpDelay,
			lockTimeout: lockTimeout,
			workers:     tune.workers,
			prepared:    make(map[string]*preparedTxn),
		}
		var lockOpts []lock.Option
		if wo := cfg.Obs.WaitObserver(); wo != nil {
			lockOpts = append(lockOpts, lock.WithWaitObserver(wo))
		}
		if cfg.UseDC {
			s.ctl = dc.NewController()
			s.locks = lock.NewManager(append(lockOpts, lock.WithArbiter(s.ctl))...)
			if dcObs := cfg.Obs.DCObserver(); dcObs != nil {
				s.ctl.SetObserver(dcObs)
			}
		} else {
			s.locks = lock.NewManager(lockOpts...)
		}
		var recObs txn.Observer
		if c.rec != nil {
			recObs = c.rec
		}
		s.exec = txn.NewExec(s.Store, s.locks, obs.TeeTxnObserver(recObs, cfg.Obs.ExecObserver()))
		s.exec.SetOpDelay(cfg.OpDelay)
		var qOpts []queue.Option
		if cfg.FaultHook != nil {
			// Wire the queue layer's batch-flush crash point: when the
			// hook fires, the flush is dropped (its messages stay durable
			// in the outbox) and the site fail-stops right there.
			hook := cfg.FaultHook
			sRef := s
			qOpts = append(qOpts, queue.WithFlushCrash(func() bool {
				if !hook.ShouldCrash(fault.PointPreBatchFlush, sRef.ID, 0, -1, false) {
					return false
				}
				sRef.crashFromWorker()
				return true
			}))
		}
		if qObs := cfg.Obs.QueueObserver(id); qObs != nil {
			qOpts = append(qOpts, queue.WithObserver(qObs))
		}
		// Persist before ack and before send: the endpoint's durable image
		// is written (and, under the disk driver, fsynced) before any
		// received frame is acknowledged and before any committed message
		// leaves the site, so kill -9 neither loses an acked message nor
		// lets a restart re-mint a sequence number a peer has seen. The
		// manager's barrier is the only caller of SaveQueues.
		qOpts = append(qOpts, queue.WithPersist(be.SaveQueues))
		s.queues = queue.NewManager(id, c.Net, cfg.RetransmitEvery, qOpts...)
		// A disk backend opened over an existing image (a process restart
		// after a crash) carries the last fsynced queue state: restore it
		// so unacked outbox messages retransmit and dedup watermarks
		// survive the restart. Fresh backends report no image.
		if qs, ok, qerr := be.LoadQueues(); qerr == nil && ok {
			s.queues.Restore(qs)
		}
		cfg.Obs.WatchQueue(string(id), s.queues)
		s.applied = newDedupTable(s.Store)
		var nodeOpts []commit.Option
		if cfg.CommitTimeouts.VoteWait > 0 {
			nodeOpts = append(nodeOpts, commit.WithTimeouts(cfg.CommitTimeouts))
		}
		if cObs := cfg.Obs.CommitObserver(id); cObs != nil {
			nodeOpts = append(nodeOpts, commit.WithObserver(cObs))
		}
		s.node = commit.NewNode(id, c.Net, commit.Hooks{
			Prepare: s.prepare2PC,
			Commit:  s.commit2PC,
			Abort:   s.abort2PC,
		}, nodeOpts...)
		c.sites[id] = s
	}
	// Start dispatchers and piece workers after all sites exist.
	for _, s := range c.sites {
		inbox, err := c.Net.AddSite(s.ID)
		if err != nil {
			return nil, err
		}
		c.wg.Add(1)
		go c.dispatch(s, inbox)
		s.startWorkers()
	}
	return c, nil
}

// Close stops the cluster and waits for its goroutines.
func (c *Cluster) Close() {
	c.cancel()
	for _, s := range c.sites {
		s.stopWorkersAndWait()
		s.queues.Close()
		_ = s.backend.Close()
	}
	c.wg.Wait()
	c.Net.Close()
}

// Site returns the site with the given ID, or nil.
func (c *Cluster) Site(id simnet.SiteID) *Site { return c.sites[id] }

// maxDrain bounds how many waiting inbox messages one dispatch round
// takes with the message that woke it: enough to share one durability
// barrier among everything a busy peer set sent during the last fsync,
// small enough that a crash check and the context are looked at often.
const maxDrain = 64

// dispatch routes a site's inbox messages.
func (c *Cluster) dispatch(s *Site, inbox <-chan simnet.Message) {
	defer c.wg.Done()
	round := make([]simnet.Message, 0, maxDrain)
	for {
		select {
		case msg := <-inbox:
			round = append(round[:0], msg)
		drain:
			for len(round) < maxDrain {
				select {
				case more := <-inbox:
					round = append(round, more)
				default:
					break drain
				}
			}
			if s.isCrashed() {
				continue // a crashed site processes nothing
			}
			c.route(s, round)
		case <-c.ctx.Done():
			return
		}
	}
}

// route handles one round of inbox messages in arrival order. A run of
// queue frames goes to the queue manager in one call, so the frames
// share one persist of the durable queue image (WithPersist) before any
// of their acks is staged; a piece.done or 2PC message ends the run and
// is handled by itself.
func (c *Cluster) route(s *Site, round []simnet.Message) {
	run := 0 // round[run:i] is the pending run of queue frames
	for i, msg := range round {
		if queue.IsQueueKind(msg.Kind) {
			continue
		}
		if run < i {
			s.queues.HandleAll(round[run:i])
		}
		run = i + 1
		if msg.Kind == KindPieceDone {
			c.handleDone(msg)
			continue
		}
		// 2PC prepares may block on locks (up to the lock timeout);
		// handle them off the dispatch loop so decisions and other
		// traffic keep flowing.
		c.wg.Add(1)
		go func(msg simnet.Message) {
			defer c.wg.Done()
			s.node.Handle(c.ctx, msg)
		}(msg)
	}
	if run < len(round) {
		s.queues.HandleAll(round[run:])
	}
}

// isCrashed reports the crash flag.
func (s *Site) isCrashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// Crash simulates a site failure: volatile state (locks, in-flight
// transactions, dirty store cells) is lost; the storage driver's
// committed image and the persisted queue image survive.
func (s *Site) Crash() {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return
	}
	s.crashed = true
	s.mu.Unlock()
	s.cluster.Net.SetDown(s.ID, true)
	s.stopWorkersAndWait()
}

// crashFromWorker fail-stops the site from inside one of its own worker
// goroutines (fault-hook injection points fire there, and a failed
// persist ends there), or from any goroutine that must not wait for the
// workers. It cannot call Crash, which waits on the worker WaitGroup
// that includes the caller; instead it marks the site crashed, signals
// the remaining workers, and drops the site off the network. Recover
// waits out the stragglers before rebuilding.
func (s *Site) crashFromWorker() {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return
	}
	s.crashed = true
	if s.stopWorkers != nil {
		select {
		case <-s.stopWorkers:
		default:
			close(s.stopWorkers)
		}
	}
	s.mu.Unlock()
	s.cluster.Net.SetDown(s.ID, true)
}

// Recover restarts a crashed site from durable state.
func (s *Site) Recover() {
	s.mu.Lock()
	if !s.crashed {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	// A fault-injected crash (crashFromWorker) signals the workers but
	// cannot wait for them; do so now, before rebuilding volatile state
	// under their feet.
	s.stopWorkersAndWait()
	s.mu.Lock()
	if !s.crashed { // lost a race with a concurrent Recover
		s.mu.Unlock()
		return
	}
	// Durable store: the backend rebuilds it from its durable image —
	// the mem driver restores its in-process committed image, the disk
	// driver loads the snapshot and replays the WAL (truncating torn
	// tails), exactly as a process restart would. Dirty cells vanish
	// either way.
	st, err := s.backend.Recover()
	if err != nil {
		// The durable image is unreadable; leave the site down rather
		// than resurrect it with fabricated state.
		s.recoverErr = err
		s.mu.Unlock()
		return
	}
	s.Store = st
	s.recoverErr = nil
	// The piece-dedup cache is volatile; wipe it. Durable `__applied` /
	// `__comp` markers in the recovered store keep answering lookups,
	// so redelivered activations stay exactly-once.
	s.applied.reset(s.Store)
	// Volatile state: fresh locks (and DC accounts), no prepared txns.
	var lockOpts []lock.Option
	if wo := s.cluster.obs.WaitObserver(); wo != nil {
		lockOpts = append(lockOpts, lock.WithWaitObserver(wo))
	}
	if s.ctl != nil {
		s.ctl = dc.NewController()
		s.locks = lock.NewManager(append(lockOpts, lock.WithArbiter(s.ctl))...)
		if dcObs := s.cluster.obs.DCObserver(); dcObs != nil {
			s.ctl.SetObserver(dcObs)
		}
	} else {
		s.locks = lock.NewManager(lockOpts...)
	}
	var recObs txn.Observer
	if s.cluster.rec != nil {
		recObs = s.cluster.rec
	}
	s.exec = txn.NewExec(s.Store, s.locks, obs.TeeTxnObserver(recObs, s.cluster.obs.ExecObserver()))
	s.exec.SetOpDelay(s.opDelay)
	s.prepared = make(map[string]*preparedTxn)
	s.crashed = false
	s.mu.Unlock()

	// The durable queue image recovered alongside the store: under the
	// disk driver this is the last fsynced aux record, which — by the
	// persist-before-ack barrier — covers every message this site ever
	// acknowledged.
	queueSnap, _, qerr := s.backend.LoadQueues()
	if qerr == nil {
		s.queues.Restore(queueSnap)
	}
	s.cluster.Net.SetDown(s.ID, false)
	s.startWorkers()
	// Re-stage the successors of locally committed origin pieces: piece 0
	// never rides a queue, so a crash between its commit and its staging
	// has no redelivery to resurrect the children — the durable marker is
	// the only witness. Duplicates collapse downstream.
	if err := s.restageOrigins(); err != nil {
		s.mu.Lock()
		s.recoverErr = err
		s.mu.Unlock()
	}
}

// RecoverError reports why the last Recover left the site down (nil
// after a successful recovery): an unreadable image, or a persist that
// failed while re-staging.
func (s *Site) RecoverError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recoverErr
}

// Backend exposes the site's storage backend (checkpointing, tests).
func (s *Site) Backend() driver.Backend { return s.backend }

// QueuesIdle reports whether the site's queue endpoint is fully
// drained: nothing deliverable, nothing delivered-but-unacked, and
// nothing committed-but-unacknowledged in the outbox. Quiescence
// polling uses it to decide a workload has settled.
func (s *Site) QueuesIdle() bool {
	return s.queues.OutboxLen() == 0 &&
		s.queues.InflightLen() == 0 &&
		s.queues.Depth(pieceQueue) == 0 &&
		s.queues.Depth(doneQueue) == 0
}

// Exec returns the site's executor (fresh after recovery).
func (s *Site) Exec() *txn.Exec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exec
}

// Locks returns the site's lock manager (fresh after recovery).
func (s *Site) Locks() *lock.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.locks
}

// Controller returns the site's divergence controller (nil without DC).
func (s *Site) Controller() *dc.Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctl
}

// PreparedCount exposes the 2PC blocked-window size.
func (s *Site) PreparedCount() int { return s.node.PreparedCount() }

// Recorder returns the cluster history recorder (nil unless Record).
func (c *Cluster) Recorder() *history.Recorder { return c.rec }

// GroupOf returns the owner → distributed-transaction grouping for
// grouped serializability checks.
func (c *Cluster) GroupOf() map[lock.Owner]history.Group {
	c.groupMu.Lock()
	defer c.groupMu.Unlock()
	out := make(map[lock.Owner]history.Group, len(c.groupOf))
	for k, v := range c.groupOf {
		out[k] = v
	}
	return out
}

// recordGroup associates an owner with a distributed transaction.
func (c *Cluster) recordGroup(owner lock.Owner, inst uint64) {
	c.groupMu.Lock()
	defer c.groupMu.Unlock()
	c.groupOf[owner] = history.Group(inst)
}

// ---------------------------------------------------------------------
// fault.Injector — a fault.Schedule drives the cluster through these.
// ---------------------------------------------------------------------

// CrashSite fail-stops the site (fault.Injector).
func (c *Cluster) CrashSite(id simnet.SiteID) {
	if s := c.sites[id]; s != nil {
		s.Crash()
	}
}

// RestartSite recovers the site from durable state (fault.Injector).
func (c *Cluster) RestartSite(id simnet.SiteID) {
	if s := c.sites[id]; s != nil {
		s.Recover()
	}
}

// SetPartitioned cuts or heals a link (fault.Injector).
func (c *Cluster) SetPartitioned(a, b simnet.SiteID, cut bool) {
	c.Net.SetPartitioned(a, b, cut)
}

// SetLossRate sets the silent message-loss fraction (fault.Injector).
func (c *Cluster) SetLossRate(rate float64) { c.Net.SetLossRate(rate) }

// SetLatency sets the base one-way latency and jitter (fault.Injector).
func (c *Cluster) SetLatency(base time.Duration, jitter float64) {
	c.Net.SetLatency(base, jitter)
}

// compile-time check: *Cluster satisfies fault.Injector.
var _ fault.Injector = (*Cluster)(nil)
