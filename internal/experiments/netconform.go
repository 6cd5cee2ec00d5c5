package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"asynctp/internal/fault"
	"asynctp/internal/history"
	"asynctp/internal/metric"
	"asynctp/internal/simnet"
	"asynctp/internal/site"
	"asynctp/internal/storage"
	"asynctp/internal/transport"
	"asynctp/internal/txn"
)

// This file is the transport conformance harness: the same declared job
// stream, submitted under the same scenario, must settle to the SAME
// audit whether the pipeline runs over the in-process simulated network
// or over real TCP sockets on loopback. Timing differs between the two
// wires; settlement must not. The audited invariants are the ones the
// paper's correctness argument rests on — conservation of value,
// exactly-once piece application, chain completeness, bounded imported
// inconsistency — each of which is a deterministic function of the job
// stream, so any divergence between the twins is a transport bug, not
// scheduling noise.

// NetScenario is one conformance scenario: a job-stream size plus the
// network conditions it runs under. The zero knobs mean a clean
// network.
type NetScenario struct {
	Name string
	// Txns is the number of submissions per program class.
	Txns int
	// Seed drives the wire's loss/jitter RNG in both transports.
	Seed int64
	// LossRate silently drops this fraction of frames in flight.
	LossRate float64
	// Latency/Jitter delay every delivery (WAN emulation on loopback).
	Latency time.Duration
	Jitter  float64
	// Partition cuts NY–LA for a window mid-run (fault.Schedule); the
	// queues must carry every piece across the heal.
	Partition bool
	// UseDC runs the divergence controller so the audit can check the
	// ε bound on imported inconsistency.
	UseDC bool
}

// SettlementAudit is the transport-independent settlement outcome of a
// conformance run. Two runs of the same scenario over different wires
// must produce equal audits (Equal ignores nothing — every field is a
// deterministic function of the job stream).
type SettlementAudit struct {
	// Settled counts submissions that reached a terminal state.
	Settled int
	// Committed / RolledBack / Compensated count terminal outcomes.
	Committed   int
	RolledBack  int
	Compensated int
	// Ledger is the final value of every application key, all sites
	// merged. Transfers are fixed deltas and rollbacks compensate
	// exactly, so the final ledger is schedule-independent.
	Ledger map[string]metric.Value
	// Total is the ledger sum; Conserved asserts it equals the seeded
	// initial total (no value created or destroyed by the wire).
	Total     metric.Value
	Conserved bool
	// AppliedPieces / CompPieces count, from the recorded history, the
	// distinct (instance, piece) applications and compensations across
	// all sites, and Duplicates every application past an instance's
	// first of the same piece: the exactly-once witness, independent of
	// the sites' own bookkeeping. RolledMarkers counts the durable
	// rollback decisions, one per rollback.
	AppliedPieces int
	CompPieces    int
	Duplicates    int
	RolledMarkers int
	// EpsilonOK reports every result's imported inconsistency within
	// its program's declared ε-spec (trivially true without DC).
	EpsilonOK bool
}

// Equal reports field-for-field audit equality.
func (a *SettlementAudit) Equal(b *SettlementAudit) bool {
	if a.Settled != b.Settled || a.Committed != b.Committed ||
		a.RolledBack != b.RolledBack || a.Compensated != b.Compensated ||
		a.Total != b.Total || a.Conserved != b.Conserved ||
		a.AppliedPieces != b.AppliedPieces || a.CompPieces != b.CompPieces || a.Duplicates != b.Duplicates ||
		a.RolledMarkers != b.RolledMarkers || a.EpsilonOK != b.EpsilonOK ||
		len(a.Ledger) != len(b.Ledger) {
		return false
	}
	for k, v := range a.Ledger {
		if b.Ledger[k] != v {
			return false
		}
	}
	return true
}

// Diff renders the first differing fields (empty when equal) for test
// failure messages.
func (a *SettlementAudit) Diff(b *SettlementAudit) string {
	var d []string
	add := func(f string, x, y any) { d = append(d, fmt.Sprintf("%s: %v vs %v", f, x, y)) }
	if a.Settled != b.Settled {
		add("settled", a.Settled, b.Settled)
	}
	if a.Committed != b.Committed {
		add("committed", a.Committed, b.Committed)
	}
	if a.RolledBack != b.RolledBack {
		add("rolledback", a.RolledBack, b.RolledBack)
	}
	if a.Compensated != b.Compensated {
		add("compensated", a.Compensated, b.Compensated)
	}
	if a.Total != b.Total {
		add("total", a.Total, b.Total)
	}
	if a.Conserved != b.Conserved {
		add("conserved", a.Conserved, b.Conserved)
	}
	if a.AppliedPieces != b.AppliedPieces {
		add("applied-pieces", a.AppliedPieces, b.AppliedPieces)
	}
	if a.CompPieces != b.CompPieces {
		add("comp-pieces", a.CompPieces, b.CompPieces)
	}
	if a.Duplicates != b.Duplicates {
		add("duplicates", a.Duplicates, b.Duplicates)
	}
	if a.RolledMarkers != b.RolledMarkers {
		add("rolled-markers", a.RolledMarkers, b.RolledMarkers)
	}
	if a.EpsilonOK != b.EpsilonOK {
		add("epsilon-ok", a.EpsilonOK, b.EpsilonOK)
	}
	keys := make([]string, 0, len(a.Ledger))
	for k := range a.Ledger {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a.Ledger[k] != b.Ledger[k] {
			add("ledger["+k+"]", a.Ledger[k], b.Ledger[k])
		}
	}
	for k := range b.Ledger {
		if _, ok := a.Ledger[k]; !ok {
			add("ledger["+k+"]", "<absent>", b.Ledger[k])
		}
	}
	return strings.Join(d, "; ")
}

// conformSites is the fixed three-site topology of the conformance job
// stream.
var conformSites = []simnet.SiteID{"NY", "LA", "CHI"}

// NewLoopbackNet builds a TCP transport hosting all three conformance
// sites in this process, every frame crossing a real loopback socket.
func NewLoopbackNet(seed int64, loss float64, latency time.Duration, jitter float64) *transport.Net {
	listen := make(map[simnet.SiteID]string, len(conformSites))
	for _, s := range conformSites {
		listen[s] = "127.0.0.1:0"
	}
	return transport.New(transport.Config{
		Listen:   listen,
		Seed:     seed,
		LossRate: loss,
		Latency:  latency,
		Jitter:   jitter,
	})
}

// conformPrograms declares the conformance job stream: per family, a
// two-piece transfer (NY→LA), a three-piece chain (NY→LA→CHI), and a
// compensable program whose final piece always hits its rollback
// statement — committed predecessors must be undone by inverse pieces.
// Every outcome is decided by program text alone, never by timing, so
// the terminal audit is transport-independent.
func conformPrograms(families, txns int, useDC bool) (map[simnet.SiteID]map[storage.Key]metric.Value, []*txn.Program, metric.Value) {
	perKey := metric.Value(10 * txns)
	initial := map[simnet.SiteID]map[storage.Key]metric.Value{
		"NY": {}, "LA": {}, "CHI": {},
	}
	var programs []*txn.Program
	for f := 0; f < families; f++ {
		ny := storage.Key(fmt.Sprintf("ny:A%d", f))
		la := storage.Key(fmt.Sprintf("la:B%d", f))
		chi := storage.Key(fmt.Sprintf("chi:C%d", f))
		initial["NY"][ny] = perKey
		initial["LA"][la] = perKey
		initial["CHI"][chi] = perKey
		programs = append(programs,
			txn.MustProgram(fmt.Sprintf("conform-pair-%d", f),
				txn.AddOp(ny, -2),
				txn.AddOp(la, 2),
			),
			txn.MustProgram(fmt.Sprintf("conform-chain-%d", f),
				txn.AddOp(ny, -3),
				txn.AddOp(la, 1),
				txn.AddOp(chi, 2),
			),
			// The rollback statement rides the last piece: pieces 0 and 1
			// commit first (the chain dependency), then CHI's predicate
			// fires unconditionally and their deltas must be compensated
			// away. Net ledger effect: zero.
			txn.MustProgram(fmt.Sprintf("conform-reject-%d", f),
				txn.AddOp(ny, -5),
				txn.AddOp(la, 5),
				txn.WithAbortIf(txn.AddOp(chi, 1), func(metric.Value) bool { return true }),
			),
		)
	}
	if useDC {
		// Generous budgets: the audit checks the accounting (imported ≤
		// spec), not refusal behavior.
		eps := metric.Fuzz(16 * txns * families)
		spec := metric.Spec{Import: metric.LimitOf(eps), Export: metric.LimitOf(eps)}
		for i, p := range programs {
			programs[i] = p.WithSpec(spec)
		}
	}
	total := metric.Value(len(conformSites)*families) * perKey
	return initial, programs, total
}

// RunNetConformance executes the scenario's job stream over the given
// wire (nil = the in-process simnet built from the scenario knobs) and
// returns the settlement audit.
func RunNetConformance(sc NetScenario, netw simnet.Net) (*SettlementAudit, error) {
	const families = 2
	initial, programs, total := conformPrograms(families, sc.Txns, sc.UseDC)
	c, err := site.NewCluster(site.Config{
		Strategy:          site.ChoppedQueues,
		UseDC:             sc.UseDC,
		Placement:         distPlacement,
		Initial:           initial,
		Net:               netw,
		Latency:           sc.Latency,
		Jitter:            sc.Jitter,
		LossRate:          sc.LossRate,
		Seed:              sc.Seed,
		RetransmitEvery:   5 * time.Millisecond,
		AllowCompensation: true,
		Record:            true, // the exactly-once witness
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.RegisterPrograms(programs); err != nil {
		return nil, err
	}

	var sched *fault.Schedule
	if sc.Partition {
		// Cut NY–LA before the first submission and heal 150ms in: every
		// cross-link piece activation must park in its recoverable queue
		// through the outage and settle after the heal, on both wires.
		c.SetPartitioned("NY", "LA", true)
		sched = fault.NewSchedule(sc.Seed).HealAt(150*time.Millisecond, "NY", "LA")
		sched.Run(c)
		defer sched.Stop()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	audit := &SettlementAudit{EpsilonOK: true}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	// Each submitter drains a strided slice of the job stream: every
	// program class runs sc.Txns times regardless of submitter count.
	const submitters = 4
	jobs := make(chan int)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range jobs {
				res, err := c.Submit(ctx, ti)
				mu.Lock()
				switch {
				case err != nil:
					if firstErr == nil {
						firstErr = err
					}
				default:
					audit.Settled++
					if res.Committed {
						audit.Committed++
					}
					if res.RolledBack {
						audit.RolledBack++
					}
					if res.Compensated {
						audit.Compensated++
					}
					if sc.UseDC && !programs[ti].Spec.Import.Allows(res.Imported) {
						audit.EpsilonOK = false
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < sc.Txns; i++ {
		for ti := range programs {
			jobs <- ti
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Quiesce: settlement reports have all folded (Submit returned), but
	// final acks/retransmissions may still be in flight; the audit below
	// reads the history and durable stores, which no ack can change, so a
	// short idle poll suffices.
	deadline := time.Now().Add(30 * time.Second)
	for {
		idle := true
		for _, id := range conformSites {
			if !c.Site(id).QueuesIdle() {
				idle = false
				break
			}
		}
		if idle || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	txns, _ := c.Recorder().Snapshot()
	groupOf := c.GroupOf()
	applied := make(map[string]int)
	for _, tx := range txns {
		if tx.Status == history.Committed {
			applied[fmt.Sprintf("%d %s", groupOf[tx.Owner], tx.Name)]++
		}
	}
	for app, n := range applied {
		if strings.HasSuffix(app, "~undo") {
			audit.CompPieces++
		} else {
			audit.AppliedPieces++
		}
		audit.Duplicates += n - 1
	}
	audit.Ledger = make(map[string]metric.Value)
	for _, id := range conformSites {
		st := c.Site(id).Store
		for _, key := range st.Keys() {
			name := string(key)
			switch {
			case strings.HasPrefix(name, "__rolled/"):
				audit.RolledMarkers++
			case strings.HasPrefix(name, "__"): // the sites' exactly-once logs
			default:
				v := st.Get(key)
				audit.Ledger[name] = v
				audit.Total += v
			}
		}
	}
	audit.Conserved = audit.Total == total
	return audit, nil
}
