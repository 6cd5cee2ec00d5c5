package experiments

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"asynctp/internal/fault"
	"asynctp/internal/metric"
	"asynctp/internal/simnet"
	"asynctp/internal/site"
	"asynctp/internal/storage"
	"asynctp/internal/storage/driver"
	"asynctp/internal/storage/wal"
	"asynctp/internal/txn"
)

// E9: kill -9 durability. The chaos schedules (E7) simulate crashes by
// discarding volatile state inside one process; this harness earns the
// same guarantees the hard way. A child process runs the three-branch
// chain workload over the disk driver and SIGKILLs itself at a WAL
// crash point — mid-append, pre-fsync, or right after writing a torn
// frame. The parent restarts it from the real files, cycle after
// cycle, then opens the image itself, drains the recovered traffic,
// and audits: money conserved, piece application exactly-once (the
// chain's witness counters), chain completeness, and audit deviation
// within the in-flight ε bound.

// Environment variables carrying the child's parameters.
const (
	kill9EnvChild    = "ASYNCTP_KILL9_CHILD"
	kill9EnvDir      = "ASYNCTP_KILL9_DIR"
	kill9EnvSeed     = "ASYNCTP_KILL9_SEED"
	kill9EnvChains   = "ASYNCTP_KILL9_CHAINS"
	kill9EnvAmount   = "ASYNCTP_KILL9_AMOUNT"
	kill9EnvInstBase = "ASYNCTP_KILL9_INSTBASE"
	kill9EnvCrash    = "ASYNCTP_KILL9_CRASH"
)

// Kill9IsChild reports whether this process was spawned as a kill -9
// workload child (checked by main() before flag parsing).
func Kill9IsChild() bool { return os.Getenv(kill9EnvChild) == "1" }

// Kill9Config parameterizes the parent harness.
type Kill9Config struct {
	// Bin is the executable re-exec'd as the workload child (usually
	// os.Executable() of a binary that checks Kill9IsChild in main).
	Bin string
	// Args are prepended child arguments (a test harness passes
	// -test.run=<helper>; chaosbench passes nothing).
	Args []string
	// Dir roots the shared disk image (required).
	Dir string
	// Seed drives the simulated network; each cycle offsets it.
	Seed int64
	// Chains is the number of transfer chains submitted per cycle.
	Chains int
	// Amount is the per-chain transfer amount.
	Amount metric.Value
	// Cycles is the number of crash/restart cycles (default 3: one each
	// for the append, pre-fsync, and torn-write crash points).
	Cycles int
}

func (cfg Kill9Config) withDefaults() Kill9Config {
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.Chains <= 0 {
		cfg.Chains = 12
	}
	if cfg.Amount <= 0 {
		cfg.Amount = 5
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = 3
	}
	return cfg
}

// kill9Spec rotates the crash point across cycles: lose a record
// entirely (append), lose the fsync (sync), and leave a real torn tail
// (torn). LA and CHI alternate so both downstream sites get killed.
func kill9Spec(cycle int) fault.KillSpec {
	specs := []fault.KillSpec{
		{Point: fault.KillAppend, Site: "LA", Hit: 15},
		{Point: fault.KillSync, Site: "CHI", Hit: 12},
		{Point: fault.KillTorn, Site: "LA", Hit: 18},
	}
	s := specs[cycle%len(specs)]
	s.Hit += 3 * (cycle / len(specs)) // drift later on extra laps
	return s
}

// kill9Hook adapts a KillSpec to the WAL crash-point hook: the Hit'th
// time the named site reaches the named point, the process SIGKILLs
// itself (for torn, the half-written frame goes down first).
func kill9Hook(spec fault.KillSpec) func(string, wal.CrashPoint) wal.Action {
	var hits atomic.Int64
	return func(siteID string, p wal.CrashPoint) wal.Action {
		if simnet.SiteID(siteID) != spec.Site {
			return wal.ActContinue
		}
		switch spec.Point {
		case fault.KillAppend:
			if p == wal.PointAppend && hits.Add(1) == int64(spec.Hit) {
				fault.SelfKill()
			}
		case fault.KillSync:
			if p == wal.PointSync && hits.Add(1) == int64(spec.Hit) {
				fault.SelfKill()
			}
		case fault.KillTorn:
			if p == wal.PointTorn {
				fault.SelfKill() // the torn frame is on disk; die on it
			}
			if p == wal.PointAppend && hits.Add(1) == int64(spec.Hit) {
				return wal.ActTorn
			}
		case fault.KillSnapshot:
			if p == wal.PointSnapshot && hits.Add(1) == int64(spec.Hit) {
				fault.SelfKill()
			}
		}
		return wal.ActContinue
	}
}

// kill9Cluster builds the three-branch chain cluster over the disk
// driver rooted at dir.
func kill9Cluster(dir string, seed int64, instBase uint64, hook func(string, wal.CrashPoint) wal.Action) (*site.Cluster, error) {
	drv, err := driver.New("disk", driver.Params{
		Dir:             dir,
		SyncEvery:       200 * time.Microsecond,
		CheckpointBytes: 256 << 10,
		Hook:            hook,
	})
	if err != nil {
		return nil, err
	}
	return site.NewCluster(site.Config{
		Strategy:     site.ChoppedQueues,
		Storage:      drv,
		InstanceBase: instBase,
		Latency:      500 * time.Microsecond,
		Jitter:       0.2,
		Seed:         seed,
		Placement:    chaosPlacement,
		Initial: map[simnet.SiteID]map[storage.Key]metric.Value{
			"NY":  {"ny:A": 10000},
			"LA":  {"la:B": 10000},
			"CHI": {"chi:C": 10000},
		},
		RetransmitEvery: 5 * time.Millisecond,
	})
}

// kill9Sum reads the three branch balances.
func kill9Sum(c *site.Cluster) metric.Value {
	return c.Site("NY").Store.Get("ny:A") +
		c.Site("LA").Store.Get("la:B") +
		c.Site("CHI").Store.Get("chi:C")
}

// kill9Quiesce waits until the cluster is settled: the money sums to
// the initial total and every queue endpoint is drained, stably across
// several polls.
func kill9Quiesce(c *site.Cluster, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	stable := 0
	for time.Now().Before(deadline) {
		idle := kill9Sum(c) == chaosTotal
		for _, id := range chaosSites {
			if !c.Site(id).QueuesIdle() {
				idle = false
			}
		}
		if idle {
			if stable++; stable >= 5 {
				return nil
			}
		} else {
			stable = 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("experiments: cluster did not quiesce within %v (sum=%d)",
		timeout, kill9Sum(c))
}

// Kill9Child runs the workload child: it recovers the cluster from the
// shared disk image, re-stages recovered traffic, submits a fresh round
// of chains, and either dies at the injected crash point (the expected
// outcome) or quiesces kill9MaxRounds rounds short of it and exits 0.
func Kill9Child() error {
	dir := os.Getenv(kill9EnvDir)
	if dir == "" {
		return errors.New("experiments: kill9 child needs " + kill9EnvDir)
	}
	seed, _ := strconv.ParseInt(os.Getenv(kill9EnvSeed), 10, 64)
	chains, _ := strconv.Atoi(os.Getenv(kill9EnvChains))
	amount, _ := strconv.ParseInt(os.Getenv(kill9EnvAmount), 10, 64)
	instBase, _ := strconv.ParseUint(os.Getenv(kill9EnvInstBase), 10, 64)
	var hook func(string, wal.CrashPoint) wal.Action
	if specStr := os.Getenv(kill9EnvCrash); specStr != "" {
		spec, err := fault.ParseKillSpec(specStr)
		if err != nil {
			return err
		}
		hook = kill9Hook(spec)
	}
	c, err := kill9Cluster(dir, seed, instBase, hook)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.RegisterPrograms(kill9Programs(metric.Value(amount))); err != nil {
		return err
	}
	// Group commit may fold several hops into one fsync, so a round can
	// quiesce short of an armed crash point's hit count; another round,
	// submitted only once the last one settled, reaches it with no more
	// chains in flight than one round.
	for round := 0; ; round++ {
		var wg sync.WaitGroup
		for i := 0; i < chains; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				time.Sleep(time.Duration(i) * 2 * time.Millisecond)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_, _ = c.Submit(ctx, 0) // settlement is audited from the files
			}(i)
		}
		wg.Wait()
		if err := kill9Quiesce(c, 20*time.Second); err != nil || hook == nil || round == kill9MaxRounds-1 {
			return err
		}
	}
}

// kill9MaxRounds bounds the rounds a child with an armed crash point
// submits before it gives up and exits as quiesced.
const kill9MaxRounds = 4

// runKill9Child execs one workload child and reports whether it died by
// SIGKILL (the only acceptable death when a crash spec is armed).
func (cfg Kill9Config) runKill9Child(cycle int, spec string) error {
	cmd := exec.Command(cfg.Bin, cfg.Args...)
	cmd.Env = append(os.Environ(),
		kill9EnvChild+"=1",
		kill9EnvDir+"="+cfg.Dir,
		fmt.Sprintf("%s=%d", kill9EnvSeed, cfg.Seed+int64(cycle)),
		fmt.Sprintf("%s=%d", kill9EnvChains, cfg.Chains),
		fmt.Sprintf("%s=%d", kill9EnvAmount, cfg.Amount),
		fmt.Sprintf("%s=%d", kill9EnvInstBase, uint64(cycle+1)*1_000_000),
		kill9EnvCrash+"="+spec,
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return fmt.Errorf("cycle %d: child quiesced; crash %s never fired\n%s", cycle, spec, out)
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
			return nil // the real thing: uncatchable, unflushed death
		}
	}
	return fmt.Errorf("cycle %d: child died without SIGKILL: %v\n%s", cycle, err, out)
}

// kill9Programs is chaosPrograms with a witness counter in each piece
// of the chain: ny:n, la:n and chi:n count the applications of the
// chain's pieces at NY, LA and CHI. They are the program's own writes,
// so the exactly-once audit reads them, not the sites' bookkeeping.
func kill9Programs(amount metric.Value) []*txn.Program {
	return []*txn.Program{
		txn.MustProgram("chaos-chain",
			txn.AddOp("ny:A", -amount), txn.AddOp("ny:n", 1),
			txn.AddOp("la:B", amount), // passes through LA
			txn.AddOp("la:B", -amount), txn.AddOp("la:n", 1),
			txn.AddOp("chi:C", amount), txn.AddOp("chi:n", 1),
		),
		chaosPrograms(amount)[1],
	}
}

// RunKill9 is the parent harness: Cycles child runs, each SIGKILLed at
// a rotating WAL crash point, then an in-process final incarnation that
// drains everything recovered from the files and verifies the paper's
// guarantees survived real process death.
func RunKill9(cfg Kill9Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Bin == "" || cfg.Dir == "" {
		return nil, errors.New("experiments: RunKill9 needs Bin and Dir")
	}
	rep := &Report{
		ID:    "E9",
		Title: "Kill -9 durability — WAL recovery through real process death",
		Table: newTable("cycle", "crash point", "outcome"),
	}
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		spec := kill9Spec(cycle)
		if err := cfg.runKill9Child(cycle, spec.String()); err != nil {
			return nil, err
		}
		rep.Table.AddRow(fmt.Sprintf("%d", cycle), spec.String(), "SIGKILL; files kept")
	}

	// Final incarnation, in-process: recovery re-stages interrupted
	// chains, audits run against the draining cluster, and quiescence
	// must restore the conservation invariant.
	c, err := kill9Cluster(cfg.Dir, cfg.Seed+int64(cfg.Cycles), uint64(cfg.Cycles+1)*1_000_000, nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// RegisterPrograms re-stages the successors of every recovered
	// origin commit; redelivered queue traffic drains alongside.
	if err := c.RegisterPrograms(kill9Programs(cfg.Amount)); err != nil {
		return nil, err
	}
	// Audits alternate with quiescence probes on this goroutine. An audit
	// is itself queue traffic: a concurrent stream of them leaves a
	// drained cluster no idle stretch as long as the one kill9Quiesce
	// wants, unless a slow fsync happens to stall one of them.
	var maxDev metric.Fuzz
	var audits int
	deadline := time.Now().Add(30 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res, err := c.Submit(ctx, 1)
		cancel()
		if err == nil && res != nil && res.Committed {
			audits++
			if dev := metric.Distance(res.SumReads(), chaosTotal); dev > maxDev {
				maxDev = dev
			}
		}
		// Twice the stretch of idle polls quiescence takes.
		err = kill9Quiesce(c, 50*time.Millisecond)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("experiments: final incarnation still draining after 30s: %w", err)
		}
	}

	// The verification reads only durable state: balances and the
	// chain's witness counters.
	ny := c.Site("NY").Store
	la := c.Site("LA").Store
	chi := c.Site("CHI").Store
	conserved := kill9Sum(c) == chaosTotal
	k := ny.Get("ny:n") // chain piece 0 commits at NY
	exactlyOnce := ny.Get("ny:A") == 10000-k*cfg.Amount &&
		la.Get("la:B") == 10000 &&
		chi.Get("chi:C") == 10000+k*cfg.Amount
	complete := la.Get("la:n") == k && chi.Get("chi:n") == k
	// Every chain in flight across every incarnation bounds what an
	// audit can see missing.
	epsilon := metric.Fuzz(cfg.Cycles+1) * metric.Fuzz(cfg.Chains) * metric.Fuzz(cfg.Amount)

	rep.Table.AddRow("final", "none", fmt.Sprintf("%d chains settled", k))
	rep.Notes = append(rep.Notes,
		check(conserved, fmt.Sprintf("money conserved across %d SIGKILLs: sum == %d", cfg.Cycles, chaosTotal)),
		check(exactlyOnce, fmt.Sprintf("exactly-once: balances match %d durable origin commits (ny:A=%d la:B=%d chi:C=%d)",
			k, ny.Get("ny:A"), la.Get("la:B"), chi.Get("chi:C"))),
		check(complete, fmt.Sprintf("completeness: every origin commit settled its LA and CHI pieces once (ny:n=%d la:n=%d chi:n=%d)",
			k, la.Get("la:n"), chi.Get("chi:n"))),
		check(maxDev <= epsilon, fmt.Sprintf("%d audits during drain; max deviation %d within ε bound %d",
			audits, maxDev, epsilon)),
	)
	return rep, nil
}

// RunDriverEquivalence runs the same deterministic sequential chain
// workload through the mem and disk drivers and compares the full
// post-run store snapshots — the acceptance check that the disk driver
// changes durability, not semantics.
func RunDriverEquivalence(dir string, chains int, amount metric.Value, seed int64) error {
	run := func(drv driver.Driver) (map[simnet.SiteID]map[storage.Key]metric.Value, error) {
		c, err := site.NewCluster(site.Config{
			Strategy:  site.ChoppedQueues,
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
		})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		if err := c.RegisterPrograms([]*txn.Program{chaosPrograms(amount)[0]}); err != nil {
			return nil, err
		}
		for i := 0; i < chains; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			res, err := c.Submit(ctx, 0)
			cancel()
			if err != nil {
				return nil, err
			}
			if !res.Committed {
				return nil, fmt.Errorf("chain %d did not settle", i)
			}
		}
		// The sites' exactly-once logs ("__" keys) name the worker that
		// happened to take each delivery; the comparison is of what the
		// programs wrote.
		out := make(map[simnet.SiteID]map[storage.Key]metric.Value, len(chaosSites))
		for _, id := range chaosSites {
			snap := c.Site(id).Store.Snapshot()
			maps.DeleteFunc(snap, func(k storage.Key, _ metric.Value) bool {
				return strings.HasPrefix(string(k), "__")
			})
			out[id] = snap
		}
		return out, nil
	}
	diskDrv, err := driver.New("disk", driver.Params{Dir: dir, SyncEvery: 200 * time.Microsecond})
	if err != nil {
		return err
	}
	memState, err := run(nil) // site default: mem driver
	if err != nil {
		return fmt.Errorf("mem run: %w", err)
	}
	diskState, err := run(diskDrv)
	if err != nil {
		return fmt.Errorf("disk run: %w", err)
	}
	for _, id := range chaosSites {
		m, d := memState[id], diskState[id]
		if len(m) != len(d) {
			return fmt.Errorf("site %s: mem has %d keys, disk %d", id, len(m), len(d))
		}
		for key, v := range m {
			if d[key] != v {
				return fmt.Errorf("site %s key %s: mem=%d disk=%d", id, key, v, d[key])
			}
		}
	}
	return nil
}
