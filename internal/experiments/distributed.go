package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"asynctp/internal/metric"
	"asynctp/internal/simnet"
	"asynctp/internal/site"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// nyLAPlacement puts ny:* keys in NY and everything else in LA.
func nyLAPlacement(k storage.Key) simnet.SiteID {
	if strings.HasPrefix(string(k), "ny:") {
		return "NY"
	}
	return "LA"
}

// newBranchCluster builds the Section 4 two-branch bank.
func newBranchCluster(strategy site.Strategy, useDC bool, oneWay time.Duration) (*site.Cluster, error) {
	return newBranchClusterDelay(strategy, useDC, oneWay, 0)
}

// newBranchClusterDelay adds per-operation work at each site so pieces
// overlap and runtime conflicts actually form.
func newBranchClusterDelay(strategy site.Strategy, useDC bool, oneWay, opDelay time.Duration) (*site.Cluster, error) {
	return site.NewCluster(site.Config{
		Strategy: strategy,
		UseDC:    useDC,
		Obs:      obsPlane,
		// A cluster's instance IDs are its trace IDs: clusters sharing
		// the plane need disjoint ranges too.
		InstanceBase: uint64(obsPlane.IDBase()),
		Latency:      oneWay,
		Seed:         1,
		Placement:    nyLAPlacement,
		Initial: map[simnet.SiteID]map[storage.Key]metric.Value{
			"NY": {"ny:X": 10000000},
			"LA": {"la:Y": 10000000},
		},
		RetransmitEvery: 10 * time.Millisecond,
		OpDelay:         opDelay,
	})
}

// branchPrograms returns the cross-branch transfer and audit.
func branchPrograms(amount metric.Value, eps metric.Fuzz) []*txn.Program {
	spec := metric.Spec{Import: metric.LimitOf(eps), Export: metric.LimitOf(eps)}
	return []*txn.Program{
		txn.MustProgram("xfer",
			txn.AddOp("ny:X", -amount), txn.AddOp("la:Y", amount)).WithSpec(spec),
		txn.MustProgram("audit",
			txn.ReadOp("ny:X"), txn.ReadOp("la:Y")).WithSpec(spec),
	}
}

// Distributed2PCvsQueues runs E2: the same cross-branch transfer under
// blocking 2PC and under chopped pieces with recoverable queues, across
// a sweep of one-way WAN latencies. Reported: user-visible (initiation)
// latency, settlement latency, and one-way messages per transaction.
// The paper's claim: the chopped transfer saves the two message rounds
// of the commit protocol — "a few hundred milliseconds or a few seconds
// less than the traditional approach".
func Distributed2PCvsQueues(oneWays []time.Duration, perPoint int) (*Report, error) {
	if len(oneWays) == 0 {
		oneWays = []time.Duration{time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond}
	}
	if perPoint < 1 {
		perPoint = 5
	}
	rep := &Report{
		ID:    "E2",
		Title: "Section 4 — 2PC vs chopped recoverable queues across WAN latencies",
		Table: newTable("one-way", "strategy", "initiation (mean)", "settlement (mean)", "msgs/txn"),
	}
	for _, oneWay := range oneWays {
		var initChop, init2PC time.Duration
		for _, strategy := range []site.Strategy{site.TwoPhaseCommit, site.ChoppedQueues} {
			c, err := newBranchCluster(strategy, false, oneWay)
			if err != nil {
				return nil, err
			}
			if err := c.RegisterPrograms(branchPrograms(100, 0)); err != nil {
				c.Close()
				return nil, err
			}
			var sumInit, sumSettle time.Duration
			before := c.Net.Stats().Sent
			for i := 0; i < perPoint; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				res, err := c.Submit(ctx, 0)
				cancel()
				if err != nil {
					c.Close()
					return nil, fmt.Errorf("%s @%v: %w", strategy, oneWay, err)
				}
				sumInit += res.Initiation
				sumSettle += res.Settlement
			}
			// Let queue acks drain before counting messages.
			time.Sleep(4*oneWay + 50*time.Millisecond)
			msgs := float64(c.Net.Stats().Sent-before) / float64(perPoint)
			c.Close()
			meanInit := sumInit / time.Duration(perPoint)
			meanSettle := sumSettle / time.Duration(perPoint)
			if strategy == site.ChoppedQueues {
				initChop = meanInit
			} else {
				init2PC = meanInit
			}
			rep.Table.AddRow(
				oneWay.String(), strategy.String(),
				meanInit.Round(100*time.Microsecond).String(),
				meanSettle.Round(100*time.Microsecond).String(),
				fmt.Sprintf("%.1f", msgs),
			)
		}
		rep.Notes = append(rep.Notes, check(initChop < init2PC,
			fmt.Sprintf("@%v chopped initiation (%v) beats 2PC (%v) by ~2 message rounds",
				oneWay, initChop.Round(time.Millisecond), init2PC.Round(time.Millisecond))))
	}
	return rep, nil
}

// DistributedAvailability runs the E2 availability half: with the remote
// branch crashed, 2PC cannot commit anything, while chopped transfers
// keep initiating; after recovery the pieces settle and no money is
// lost.
func DistributedAvailability() (*Report, error) {
	rep := &Report{
		ID:    "E2b",
		Title: "Section 4 — availability during a remote-site crash",
		Table: newTable("strategy", "committed during crash", "settled after recovery", "money conserved"),
	}
	const attempts = 5

	// 2PC: every attempt during the crash fails.
	c2, err := newBranchCluster(site.TwoPhaseCommit, false, 0)
	if err != nil {
		return nil, err
	}
	if err := c2.RegisterPrograms(branchPrograms(100, 0)); err != nil {
		c2.Close()
		return nil, err
	}
	c2.Site("LA").Crash()
	committed2PC := 0
	for i := 0; i < attempts; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		if res, err := c2.Submit(ctx, 0); err == nil && res.Committed {
			committed2PC++
		}
		cancel()
	}
	c2.Site("LA").Recover()
	conserved2PC := c2.Site("NY").Store.Get("ny:X")+c2.Site("LA").Store.Get("la:Y") == 20000000
	c2.Close()
	rep.Table.AddRow("2pc", fmt.Sprintf("%d/%d", committed2PC, attempts), "n/a",
		fmt.Sprintf("%v", conserved2PC))

	// Chopped: initiations proceed during the crash; settlement follows
	// recovery.
	cc, err := newBranchCluster(site.ChoppedQueues, false, 0)
	if err != nil {
		return nil, err
	}
	if err := cc.RegisterPrograms(branchPrograms(100, 0)); err != nil {
		cc.Close()
		return nil, err
	}
	cc.Site("LA").Crash()
	var wg sync.WaitGroup
	settled := make(chan bool, attempts)
	initiated := 0
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			res, err := cc.Submit(ctx, 0)
			settled <- err == nil && res != nil && res.Committed
		}()
	}
	// Wait until the NY debits land (initiation) while LA stays down.
	deadline := time.Now().Add(5 * time.Second)
	for cc.Site("NY").Store.Get("ny:X") != 10000000-attempts*100 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cc.Site("NY").Store.Get("ny:X") == 10000000-attempts*100 {
		initiated = attempts
	}
	cc.Site("LA").Recover()
	wg.Wait()
	close(settled)
	settledCount := 0
	for ok := range settled {
		if ok {
			settledCount++
		}
	}
	conserved := cc.Site("NY").Store.Get("ny:X")+cc.Site("LA").Store.Get("la:Y") == 20000000
	cc.Close()
	rep.Table.AddRow("chopped-queues",
		fmt.Sprintf("%d/%d initiated", initiated, attempts),
		fmt.Sprintf("%d/%d", settledCount, attempts),
		fmt.Sprintf("%v", conserved))
	rep.Notes = append(rep.Notes,
		check(committed2PC == 0, "2PC commits nothing while a participant is down"),
		check(initiated == attempts, "chopped transfers initiate despite the crash"),
		check(settledCount == attempts, "all pieces settle after recovery"),
		check(conserved, "no money created or destroyed through crash and recovery"),
	)
	return rep, nil
}

// DistributedEpsilonSplit runs E3 (Section 4.1): transfer and audit each
// carry ε = $10,000 split $5,000 per branch piece. Transfers under the
// per-piece budget proceed through audit conflicts via local divergence
// control (fuzzy grants); transfers over it block as under 2PL.
func DistributedEpsilonSplit() (*Report, error) {
	rep := &Report{
		ID:    "E3",
		Title: "Section 4.1 — ε-spec split across branch pieces ($10,000 → $5,000 + $5,000)",
		Table: newTable("transfer amount", "per-piece ε", "fuzzy grants", "audit deviation ≤ in-flight"),
	}
	const eps = 1000000 // $10,000.00 in cents
	for _, amount := range []metric.Value{400000, 700000} {
		c, err := newBranchClusterDelay(site.ChoppedQueues, true, 0, 2*time.Millisecond)
		if err != nil {
			return nil, err
		}
		if err := c.RegisterPrograms(branchPrograms(amount, eps)); err != nil {
			c.Close()
			return nil, err
		}
		const xfers, audits = 10, 5
		var wg sync.WaitGroup
		devOK := true
		var devMu sync.Mutex
		for i := 0; i < xfers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				_, _ = c.Submit(ctx, 0)
			}()
		}
		for i := 0; i < audits; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				res, err := c.Submit(ctx, 1)
				if err != nil || res == nil {
					return
				}
				dev := metric.Distance(res.SumReads(), 20000000)
				devMu.Lock()
				if dev > metric.Fuzz(xfers)*metric.Fuzz(amount) {
					devOK = false
				}
				devMu.Unlock()
			}()
		}
		wg.Wait()
		grants := c.Site("NY").Locks().Stats().FuzzyGrants + c.Site("LA").Locks().Stats().FuzzyGrants
		c.Close()
		rep.Table.AddRow(
			fmt.Sprintf("%d", amount),
			fmt.Sprintf("%d", eps/2),
			fmt.Sprintf("%d", grants),
			fmt.Sprintf("%v", devOK),
		)
		if amount < eps/2 {
			rep.Notes = append(rep.Notes, check(true,
				fmt.Sprintf("transfers of %d (< per-piece ε %d) may proceed through audit conflicts", amount, eps/2)))
		}
	}
	return rep, nil
}
