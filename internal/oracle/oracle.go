// Package oracle implements the serial-replay ε-oracle of the
// conformance harness: an independent, after-the-fact check that an
// execution kept every query within its declared ε-spec.
//
// The on-line engines (dc, rdc) *account* fuzziness with declared
// write bounds — a worst-case price. The oracle instead *measures* it:
// given the recorded history of a run, the owner→group mapping (chopped
// pieces back to their original transactions), and the original
// programs, it
//
//  1. reconstructs the committed groups and the partial order their
//     execution intervals impose (group A precedes group B iff every
//     committed operation of A has a smaller global sequence number than
//     every committed operation of B — concurrent groups stay unordered);
//  2. enumerates serial orders consistent with that partial order
//     (bounded by Config.MaxOrders; when the bound is hit, canonical and
//     seeded-random linear extensions serve as a fallback sample);
//  3. replays the ORIGINAL programs serially in each order against the
//     initial database state; and
//  4. reports, for every group, the minimum over examined orders of the
//     positional read divergence Σ|observed − replayed| — the measured
//     distance between what the run's queries saw and what the nearest
//     examined serializable execution would have shown them.
//
// A query group conforms iff its measured divergence is allowed by its
// program's import limit (Limit_t). Update groups are reported for
// information; their mutual serializability is the grouped conflict
// check's job (history.CheckGrouped).
//
// The check is sound in one direction: a divergence of 0 proves the run
// indistinguishable from one of the examined serial orders. When the
// enumeration is not exhaustive the reported divergence is an upper
// bound on the true distance-to-nearest-serial-order, so a FAIL verdict
// on a tiny, fully-enumerated scenario is a real ESR violation, while on
// huge traces it is a (deliberately conservative) alarm.
//
// Replay assumes that, within one group, the committed reads' global
// sequence order equals program order. core.Runner runs an instance's
// pieces one at a time on the submitting goroutine, walking the piece
// dependency tree depth-first in pre-order, so a group's pieces never
// overlap and commit in walk order. The walk is program order unless
// some piece sits between a later piece and that piece's parent (its
// latest earlier conflicting piece, chop.Set.DependencyParents) without
// descending from the parent: `read a | write x | read y | read x` runs
// its fourth piece before its third. Only for such a chopping is the
// positional comparison a conservative over-approximation.
package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"asynctp/internal/history"
	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// Unexplained is the divergence reported when no examined serial order
// can explain a group's committed execution at all (e.g. every order
// makes its program hit a rollback statement).
const Unexplained = metric.Fuzz(math.MaxInt64)

// Input is one recorded run, ready for checking.
type Input struct {
	// Txns and Ops are the recorder's snapshot (history.Recorder.Snapshot).
	Txns []history.Txn
	Ops  []history.Op
	// GroupOf maps piece owners to their original transaction's group
	// (core.Runner.GroupOf). Owners missing from the map form singleton
	// groups, mirroring history.CheckGrouped.
	GroupOf map[lock.Owner]history.Group
	// Programs maps each group to the ORIGINAL (unchopped) program that
	// produced it. Every committed group must be mapped.
	Programs map[history.Group]*txn.Program
	// Initial is the database state before the run (storage.Store.Snapshot
	// taken before submitting).
	Initial map[storage.Key]metric.Value
}

// Config tunes the order enumeration.
type Config struct {
	// MaxOrders bounds the number of serial orders examined by the
	// exhaustive enumeration. <= 0 selects DefaultMaxOrders.
	MaxOrders int
	// RandomOrders is how many seeded-random linear extensions to sample
	// when the exhaustive enumeration is cut off. < 0 disables; 0 selects
	// DefaultRandomOrders.
	RandomOrders int
	// Seed seeds the random-extension sampler (and nothing else): one
	// seed, one verdict.
	Seed int64
}

// Enumeration defaults.
const (
	DefaultMaxOrders    = 4096
	DefaultRandomOrders = 64
)

// Verdict is the oracle's finding for one group.
type Verdict struct {
	// Group identifies the original transaction instance.
	Group history.Group
	// Name is the original program's name.
	Name string
	// Class is the original program's class.
	Class txn.Class
	// Reads is how many committed reads the group performed.
	Reads int
	// Divergence is the minimum, over examined serial orders, of the
	// summed positional read distance (Unexplained if no order fits).
	Divergence metric.Fuzz
	// Limit is the program's import limit (Limit_t).
	Limit metric.Limit
	// OK reports conformance: query groups must have Divergence within
	// Limit; update groups are informational and always OK.
	OK bool
}

// Report is the oracle's overall finding.
type Report struct {
	// Groups is the number of committed groups checked.
	Groups int
	// Orders is the number of serial orders examined (enumerated plus
	// fallback candidates).
	Orders int
	// ValidOrders is how many examined orders could explain the run (no
	// replayed rollback contradicting a commit).
	ValidOrders int
	// Exhaustive reports whether every linear extension of the interval
	// partial order was examined.
	Exhaustive bool
	// Verdicts holds one entry per committed group, sorted by group.
	Verdicts []Verdict
	// MaxQueryDivergence is the largest divergence among query groups.
	MaxQueryDivergence metric.Fuzz
	// OK reports whether every query group conforms.
	OK bool
}

// Violations returns the names+groups of non-conforming verdicts.
func (r *Report) Violations() []Verdict {
	var out []Verdict
	for _, v := range r.Verdicts {
		if !v.OK {
			out = append(out, v)
		}
	}
	return out
}

// String renders a one-line summary.
func (r *Report) String() string {
	verdict := "PASS"
	if !r.OK {
		verdict = fmt.Sprintf("FAIL (%d violations)", len(r.Violations()))
	}
	mode := "exhaustive"
	if !r.Exhaustive {
		mode = "sampled"
	}
	return fmt.Sprintf("oracle: %s — %d groups, %d orders (%s), max query divergence %d",
		verdict, r.Groups, r.Orders, mode, int64(r.MaxQueryDivergence))
}

// group is the oracle's working record for one committed group.
type group struct {
	id       history.Group
	prog     *txn.Program
	min, max uint64         // committed-op sequence interval
	observed []metric.Value // committed reads, in sequence order
}

// Check runs the serial-replay oracle over in.
func Check(in Input, cfg Config) (*Report, error) {
	if cfg.MaxOrders <= 0 {
		cfg.MaxOrders = DefaultMaxOrders
	}
	if cfg.RandomOrders == 0 {
		cfg.RandomOrders = DefaultRandomOrders
	}

	groups, err := collectGroups(in)
	if err != nil {
		return nil, err
	}
	rep := &Report{Groups: len(groups), Exhaustive: true, OK: true}
	if len(groups) == 0 {
		return rep, nil
	}

	// Interval partial order: i ≺ j iff i's last committed op precedes
	// j's first. succ[i] lists the groups that must come after i.
	n := len(groups)
	succ := make([][]int, n)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && groups[i].max < groups[j].min {
				succ[i] = append(succ[i], j)
				indeg[j]++
			}
		}
	}

	best := make([]metric.Fuzz, n)
	for i := range best {
		best[i] = Unexplained
	}
	consider := func(order []int) {
		rep.Orders++
		reads, ok := replay(in.Initial, groups, order)
		if !ok {
			return
		}
		rep.ValidOrders++
		for i := range groups {
			d := divergence(groups[i].observed, reads[i])
			if d < best[i] {
				best[i] = d
			}
		}
	}
	allZero := func() bool {
		for _, b := range best {
			if b != 0 {
				return false
			}
		}
		return true
	}

	// Exhaustive enumeration of linear extensions, budgeted.
	deg := append([]int(nil), indeg...)
	order := make([]int, 0, n)
	used := make([]bool, n)
	var enumerate func() bool // false → budget exhausted, stop
	enumerate = func() bool {
		if len(order) == n {
			consider(order)
			if allZero() {
				return false // cannot improve; also ends the fallback
			}
			return rep.Orders < cfg.MaxOrders
		}
		for i := 0; i < n; i++ {
			if used[i] || deg[i] != 0 {
				continue
			}
			used[i] = true
			order = append(order, i)
			for _, j := range succ[i] {
				deg[j]--
			}
			cont := enumerate()
			for _, j := range succ[i] {
				deg[j]++
			}
			order = order[:len(order)-1]
			used[i] = false
			if !cont {
				return false
			}
		}
		return true
	}
	finished := enumerate()
	if !finished && !allZero() {
		rep.Exhaustive = false
		// Fallback sample: canonical extensions plus seeded-random ones.
		consider(extension(indeg, succ, func(ready []int) int { return ready[0] }))
		consider(extension(indeg, succ, func(ready []int) int { return ready[len(ready)-1] }))
		if cfg.RandomOrders > 0 {
			rng := rand.New(rand.NewSource(cfg.Seed))
			for k := 0; k < cfg.RandomOrders && !allZero(); k++ {
				consider(extension(indeg, succ, func(ready []int) int {
					return ready[rng.Intn(len(ready))]
				}))
			}
		}
	} else if !finished {
		// Stopped early because every divergence hit 0: still exhaustive
		// in the sense that more orders cannot change the verdict.
		rep.Exhaustive = true
	}

	// Verdicts.
	for i, g := range groups {
		v := Verdict{
			Group:      g.id,
			Name:       g.prog.Name,
			Class:      g.prog.Class(),
			Reads:      len(g.observed),
			Divergence: best[i],
			Limit:      g.prog.Spec.Import,
			OK:         true,
		}
		if v.Class == txn.Query {
			v.OK = best[i] != Unexplained && v.Limit.Allows(best[i])
			if best[i] > rep.MaxQueryDivergence && best[i] != Unexplained {
				rep.MaxQueryDivergence = best[i]
			}
			if best[i] == Unexplained {
				rep.MaxQueryDivergence = Unexplained
			}
		}
		if !v.OK {
			rep.OK = false
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	return rep, nil
}

// collectGroups builds the per-group records from the snapshot.
func collectGroups(in Input) ([]*group, error) {
	committed := make(map[lock.Owner]bool, len(in.Txns))
	for _, t := range in.Txns {
		if t.Status == history.Committed {
			committed[t.Owner] = true
		}
	}
	groupOf := func(o lock.Owner) history.Group {
		if g, ok := in.GroupOf[o]; ok {
			return g
		}
		return history.Group(-int64(o))
	}
	byGroup := make(map[history.Group]*group)
	for _, op := range in.Ops {
		if !committed[op.Owner] {
			continue
		}
		gid := groupOf(op.Owner)
		g := byGroup[gid]
		if g == nil {
			prog := in.Programs[gid]
			if prog == nil {
				return nil, fmt.Errorf("oracle: committed group %d has no program", gid)
			}
			g = &group{id: gid, prog: prog, min: op.Seq, max: op.Seq}
			byGroup[gid] = g
		}
		if op.Seq < g.min {
			g.min = op.Seq
		}
		if op.Seq > g.max {
			g.max = op.Seq
		}
	}
	groups := make([]*group, 0, len(byGroup))
	for _, g := range byGroup {
		groups = append(groups, g)
	}
	// Deterministic working order: by first committed op, then group id.
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].min != groups[j].min {
			return groups[i].min < groups[j].min
		}
		return groups[i].id < groups[j].id
	})
	// Observed reads in global sequence order (ops are already recorded
	// in sequence order).
	for _, op := range in.Ops {
		if op.Kind != history.OpRead || !committed[op.Owner] {
			continue
		}
		g := byGroup[groupOf(op.Owner)]
		g.observed = append(g.observed, op.Value)
	}
	return groups, nil
}

// replay executes the original programs serially in the given order
// against a copy of initial, returning each group's replayed reads. ok
// is false when some program hits a rollback statement — that order
// cannot explain an execution in which the group committed.
func replay(initial map[storage.Key]metric.Value, groups []*group, order []int) ([][]metric.Value, bool) {
	state := make(map[storage.Key]metric.Value, len(initial))
	for k, v := range initial {
		state[k] = v
	}
	reads := make([][]metric.Value, len(groups))
	for _, gi := range order {
		g := groups[gi]
		for _, op := range g.prog.Ops {
			cur := state[op.Key]
			if op.AbortIf != nil && op.AbortIf(cur) {
				return nil, false
			}
			switch op.Kind {
			case txn.OpRead:
				reads[gi] = append(reads[gi], cur)
			case txn.OpWrite:
				state[op.Key] = op.Update(cur)
			}
		}
	}
	return reads, true
}

// divergence sums the positional distance between the observed reads and
// the replayed ones. Partially committed groups (observed is a prefix of
// the full program's reads) compare the prefix; an observed surplus
// cannot be explained and reports Unexplained.
func divergence(observed, replayed []metric.Value) metric.Fuzz {
	if len(observed) > len(replayed) {
		return Unexplained
	}
	var total metric.Fuzz
	for i, v := range observed {
		total = total.Add(metric.Distance(v, replayed[i]))
	}
	return total
}

// extension builds one linear extension of the partial order, choosing
// among ready groups with pick (called with a non-empty ascending list).
func extension(indeg []int, succ [][]int, pick func(ready []int) int) []int {
	n := len(indeg)
	deg := append([]int(nil), indeg...)
	var ready []int
	for i := 0; i < n; i++ {
		if deg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Ints(ready)
		i := pick(ready)
		// Remove i from ready.
		for k, v := range ready {
			if v == i {
				ready = append(ready[:k], ready[k+1:]...)
				break
			}
		}
		order = append(order, i)
		for _, j := range succ[i] {
			deg[j]--
			if deg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	return order
}
