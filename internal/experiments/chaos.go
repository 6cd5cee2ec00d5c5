package experiments

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"asynctp/internal/commit"
	"asynctp/internal/fault"
	"asynctp/internal/metric"
	"asynctp/internal/obs"
	"asynctp/internal/simnet"
	"asynctp/internal/site"
	"asynctp/internal/storage"
	"asynctp/internal/storage/driver"
	"asynctp/internal/txn"
)

// Chaos scenario names (E7). Each is a deterministic fault.Schedule
// constructed from the config seed; the same seed reproduces the same
// fault timeline.
const (
	// ScenarioBaseline runs with no injected faults (control).
	ScenarioBaseline = "baseline"
	// ScenarioDegraded runs under message loss plus a latency spike.
	ScenarioDegraded = "degraded"
	// ScenarioPartition cuts the LA-CHI link mid-run, then heals it.
	ScenarioPartition = "partition"
	// ScenarioCrashStorm crashes LA and CHI in sequence mid-run and
	// partitions NY-CHI, restarting/healing everything before the end.
	ScenarioCrashStorm = "crash-storm"
)

// ChaosScenarios lists the scenarios in run order.
func ChaosScenarios() []string {
	return []string{ScenarioBaseline, ScenarioDegraded, ScenarioPartition, ScenarioCrashStorm}
}

// ChaosConfig parameterizes the chaos harness.
type ChaosConfig struct {
	// Scenarios selects which fault schedules to run (default: all).
	Scenarios []string
	// Chains is the number of NY→LA→CHI transfer chains per run.
	Chains int
	// Amount is the per-chain transfer amount.
	Amount metric.Value
	// Seed drives the fault schedule and the simulated network.
	Seed int64
	// Stagger paces chain submissions so they overlap the fault window.
	Stagger time.Duration
	// Workers sizes each site's piece-worker pool (0 keeps the site
	// default). Conservation and the fired-fault timeline must not
	// depend on it — the soak test runs the storm at 1 and 8.
	Workers int
	// Plane, when non-nil, observes every scenario cluster (trace spans,
	// metrics, ε-ledger); cmd/chaosbench wires it from -spans/-metrics
	// and Chaos folds its summary into the report notes.
	Plane *obs.Plane
	// Driver selects the storage driver ("mem" default, "disk" persists
	// every site to a WAL under Dir). The scheduled crash/restart faults
	// then exercise real file recovery instead of the in-process image.
	Driver string
	// Dir roots the disk driver's files; each scenario × strategy run
	// gets its own subdirectory so runs never share state.
	Dir string
}

// withDefaults fills zero fields.
func (cfg ChaosConfig) withDefaults() ChaosConfig {
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = ChaosScenarios()
	}
	if cfg.Chains <= 0 {
		cfg.Chains = 16
	}
	if cfg.Amount <= 0 {
		cfg.Amount = 5
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.Stagger <= 0 {
		cfg.Stagger = 10 * time.Millisecond
	}
	if cfg.Driver == "" {
		cfg.Driver = "mem"
	}
	return cfg
}

// storageDriver builds the configured storage driver for one run; name
// scopes the disk driver's directory so concurrent runs never collide.
func (cfg ChaosConfig) storageDriver(name string) (driver.Driver, error) {
	if cfg.Driver == "mem" {
		return nil, nil // site default
	}
	dir := cfg.Dir
	if dir == "" {
		return nil, errors.New("experiments: disk driver needs ChaosConfig.Dir")
	}
	return driver.New(cfg.Driver, driver.Params{
		Dir:       filepath.Join(dir, name),
		SyncEvery: 200 * time.Microsecond,
		Obs:       cfg.Plane.StorageObserver(),
	})
}

// chaosTotal is the initial money across the three branches.
const chaosTotal = 3 * 10000

// ChaosOutcome is one strategy's result under one scenario.
type ChaosOutcome struct {
	// Settled counts chains that fully settled (every piece committed).
	Settled int
	// TimeoutAborts counts bounded-wait 2PC presumed aborts.
	TimeoutAborts int
	// Failed counts chains that ended in any other error.
	Failed int
	// Conserved reports sum-of-accounts == initial after quiescence.
	Conserved bool
	// MaxAuditDev is the largest deviation any concurrent audit saw from
	// the true total.
	MaxAuditDev metric.Fuzz
	// Audits counts completed audit reads.
	Audits int
	// Fired is the schedule's fired-event log (deterministic for a
	// given seed).
	Fired []string
}

// chaosPlacement maps chain keys to their sites.
func chaosPlacement(k storage.Key) simnet.SiteID {
	switch {
	case strings.HasPrefix(string(k), "ny:"):
		return "NY"
	case strings.HasPrefix(string(k), "la:"):
		return "LA"
	default:
		return "CHI"
	}
}

// chaosSites are the cluster's sites in a fixed order.
var chaosSites = []simnet.SiteID{"NY", "LA", "CHI"}

// chaosCluster builds the three-branch bank used by every scenario.
// Both strategies get bounded-wait commit timeouts: they are inert for
// chopped queues and are what lets 2PC presume abort instead of
// blocking forever when the schedule crashes a participant.
func chaosCluster(strategy site.Strategy, seed int64, plane *obs.Plane, drv driver.Driver, opts ...site.Option) (*site.Cluster, error) {
	return site.NewCluster(site.Config{
		Strategy:  strategy,
		Obs:       plane,
		Storage:   drv,
		Latency:   500 * time.Microsecond,
		Jitter:    0.2,
		Seed:      seed,
		Placement: chaosPlacement,
		Initial: map[simnet.SiteID]map[storage.Key]metric.Value{
			"NY":  {"ny:A": 10000},
			"LA":  {"la:B": 10000},
			"CHI": {"chi:C": 10000},
		},
		RetransmitEvery: 5 * time.Millisecond,
		CommitTimeouts: commit.Timeouts{
			VoteWait:   20 * time.Millisecond,
			MaxRetries: 2,
		},
	}, opts...)
}

// chaosPrograms returns the NY→LA→CHI chain transfer (three pieces at
// three sites) and the three-branch audit.
func chaosPrograms(amount metric.Value) []*txn.Program {
	return []*txn.Program{
		txn.MustProgram("chaos-chain",
			txn.AddOp("ny:A", -amount),
			txn.AddOp("la:B", amount), // passes through LA
			txn.AddOp("la:B", -amount),
			txn.AddOp("chi:C", amount),
		),
		txn.MustProgram("chaos-audit",
			txn.ReadOp("ny:A"), txn.ReadOp("la:B"), txn.ReadOp("chi:C"),
		),
	}
}

// ChaosSchedule builds the named scenario's fault schedule. Schedules
// are single-use, so callers get a fresh one per cluster.
func ChaosSchedule(scenario string, seed int64) (*fault.Schedule, error) {
	sch := fault.NewSchedule(seed)
	switch scenario {
	case ScenarioBaseline:
		// control: no faults
	case ScenarioDegraded:
		sch.DropRateAt(40*time.Millisecond, 0.25).
			LatencySpikeAt(80*time.Millisecond, 5*time.Millisecond, 0.5).
			DropRateAt(260*time.Millisecond, 0).
			LatencySpikeAt(300*time.Millisecond, 500*time.Microsecond, 0.2)
	case ScenarioPartition:
		sch.PartitionAt(40*time.Millisecond, "LA", "CHI").
			HealAt(320*time.Millisecond, "LA", "CHI")
	case ScenarioCrashStorm:
		sch.CrashAt(40*time.Millisecond, "LA").
			PartitionAt(90*time.Millisecond, "NY", "CHI").
			RestartAt(240*time.Millisecond, "LA").
			CrashAt(280*time.Millisecond, "CHI").
			HealAt(320*time.Millisecond, "NY", "CHI").
			RestartAt(430*time.Millisecond, "CHI")
	default:
		return nil, fmt.Errorf("experiments: unknown chaos scenario %q", scenario)
	}
	return sch, nil
}

// RunChaosScenario drives one strategy through one scenario: it paces
// cfg.Chains transfer chains across the fault window while the schedule
// fires, runs concurrent audits, then heals everything, waits for
// quiescence, and checks conservation.
func RunChaosScenario(strategy site.Strategy, scenario string, cfg ChaosConfig) (*ChaosOutcome, error) {
	cfg = cfg.withDefaults()
	var siteOpts []site.Option
	if cfg.Workers > 0 {
		siteOpts = append(siteOpts, site.WithWorkers(cfg.Workers))
	}
	drv, err := cfg.storageDriver(scenario + "-" + strategy.String())
	if err != nil {
		return nil, err
	}
	c, err := chaosCluster(strategy, cfg.Seed, cfg.Plane, drv, siteOpts...)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.RegisterPrograms(chaosPrograms(cfg.Amount)); err != nil {
		return nil, err
	}
	sch, err := ChaosSchedule(scenario, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sch.Run(c)
	defer sch.Stop()

	out := &ChaosOutcome{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < cfg.Chains; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Pace submissions so they straddle the scheduled faults.
			time.Sleep(time.Duration(i) * cfg.Stagger)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			res, err := c.Submit(ctx, 0)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && res.Committed:
				out.Settled++
			case errors.Is(err, commit.ErrTimeoutAbort):
				out.TimeoutAborts++
			default:
				out.Failed++
			}
		}(i)
	}

	// Concurrent audits read the three branches while the storm runs;
	// their observed deviation from the true total is bounded by the
	// money in flight (≤ Chains × Amount under chopping).
	auditStop := make(chan struct{})
	var auditWG sync.WaitGroup
	auditWG.Add(1)
	go func() {
		defer auditWG.Done()
		for {
			select {
			case <-auditStop:
				return
			case <-time.After(25 * time.Millisecond):
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			res, err := c.Submit(ctx, 1)
			cancel()
			if err != nil || res == nil || !res.Committed {
				continue
			}
			dev := metric.Distance(res.SumReads(), chaosTotal)
			mu.Lock()
			out.Audits++
			if dev > out.MaxAuditDev {
				out.MaxAuditDev = dev
			}
			mu.Unlock()
		}
	}()

	wg.Wait()
	sch.Wait()
	close(auditStop)
	auditWG.Wait()
	out.Fired = sch.Fired()

	// Heal the world (idempotent: restarts no-op on live sites), then
	// wait for quiescence and check conservation.
	for _, id := range chaosSites {
		c.RestartSite(id)
	}
	for i, a := range chaosSites {
		for _, b := range chaosSites[i+1:] {
			c.SetPartitioned(a, b, false)
		}
	}
	c.SetLossRate(0)
	c.SetLatency(500*time.Microsecond, 0.2)
	sum := func() metric.Value {
		var total metric.Value
		total += c.Site("NY").Store.Get("ny:A")
		total += c.Site("LA").Store.Get("la:B")
		total += c.Site("CHI").Store.Get("chi:C")
		return total
	}
	deadline := time.Now().Add(10 * time.Second)
	for sum() != chaosTotal && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	out.Conserved = sum() == chaosTotal
	return out, nil
}

// Chaos runs E7: every selected scenario under both strategies, on the
// same seeded fault schedules, and reports settled-chain rate,
// bounded-wait 2PC presumed aborts, conservation of money, and audit
// ε-compliance. The paper's Section 4 availability claim, as a chaos
// experiment: chopped chains keep settling through crashes and
// partitions that force 2PC into timeout aborts.
func Chaos(cfg ChaosConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		ID:    "E7",
		Title: "Chaos harness — chopped queues vs bounded-wait 2PC under scheduled faults",
		Table: newTable("scenario", "strategy", "settled", "timeout-aborts", "conserved", "max audit dev"),
	}
	epsilon := metric.Fuzz(cfg.Chains) * metric.Fuzz(cfg.Amount)
	for _, scenario := range cfg.Scenarios {
		outcomes := map[site.Strategy]*ChaosOutcome{}
		for _, strategy := range []site.Strategy{site.ChoppedQueues, site.TwoPhaseCommit} {
			out, err := RunChaosScenario(strategy, scenario, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", scenario, strategy, err)
			}
			outcomes[strategy] = out
			rep.Table.AddRow(
				scenario, strategy.String(),
				fmt.Sprintf("%d/%d", out.Settled, cfg.Chains),
				fmt.Sprintf("%d", out.TimeoutAborts),
				fmt.Sprintf("%v", out.Conserved),
				fmt.Sprintf("%d", out.MaxAuditDev),
			)
		}
		chop, tpc := outcomes[site.ChoppedQueues], outcomes[site.TwoPhaseCommit]
		rep.Notes = append(rep.Notes,
			check(chop.Settled == cfg.Chains,
				fmt.Sprintf("%s: all %d chopped chains settle", scenario, cfg.Chains)),
			check(chop.Conserved && tpc.Conserved,
				fmt.Sprintf("%s: money conserved under both strategies", scenario)),
			check(chop.MaxAuditDev <= epsilon,
				fmt.Sprintf("%s: audit deviation %d within in-flight ε bound %d",
					scenario, chop.MaxAuditDev, epsilon)),
		)
		if scenario == ScenarioCrashStorm {
			rep.Notes = append(rep.Notes,
				check(tpc.TimeoutAborts >= 1,
					fmt.Sprintf("%s: %d 2PC transactions timed out and presumed abort while chopped settled %d/%d",
						scenario, tpc.TimeoutAborts, chop.Settled, cfg.Chains)),
				fmt.Sprintf("%s schedule: %s", scenario, strings.Join(chop.Fired, "; ")),
			)
		}
	}
	if cfg.Plane != nil {
		for _, line := range cfg.Plane.Summary() {
			rep.Notes = append(rep.Notes, "obs: "+line)
		}
	}
	return rep, nil
}
