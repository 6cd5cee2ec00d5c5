// Package dc implements two-phase-locking divergence control (DC) for
// epsilon serializability.
//
// DC is "2PL except for the way it handles read-write conflicts"
// (Wu-Yu-Pu): when a read-write conflict arises between a query ET and an
// update ET, the query may import and the update may export a bounded
// amount of fuzziness instead of blocking. The controller plugs into the
// lock manager as its conflict Arbiter:
//
//   - Each running transaction (or chopped piece) registers its class,
//     its import/export limits, and its program (whose declared write
//     bounds price conflicts).
//   - A conflict on key k between query q and update u costs u's declared
//     write bound on k — the worst-case distance the interleaving can put
//     between q's view and a serializable one. Unpredictable writes carry
//     an infinite bound, so conflicts on them are never absorbed and DC
//     degrades to ordinary 2PL (the upward compatibility of ESR).
//   - The conflict is absorbed iff both accounts stay within their
//     limits: Z_import(q)+cost ≤ Limit_import(q) and Z_export(u)+cost ≤
//     Limit_export(u) (Condition 1, Safe(p)). Otherwise the requester
//     blocks exactly as under 2PL.
//
// Update-update conflicts are never absorbed: the paper's environment
// keeps update ETs serializable among themselves.
//
// # Striping
//
// The owner→account lookup is a sharded read-mostly map (shard RWMutex,
// read path takes only a read lock), and each account carries its own
// mutex over the fuzziness ledger; Register reuses the accounts that
// Unregister closed. Absorb locks exactly the accounts a conflict
// involves, in owner order, so fuzziness accounting of unrelated ETs
// never serializes. Counters are atomics and the observer is an atomic
// pointer with a nil fast path, so an idle hook costs one atomic load
// per arbitration.
package dc

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// Info describes a registered transaction to the controller.
type Info struct {
	// Class is the ET's class (query or update).
	Class txn.Class
	// Import bounds the fuzziness the ET may observe.
	Import metric.Limit
	// Export bounds the fuzziness the ET may cause others to observe.
	Export metric.Limit
	// Program supplies declared write bounds for pricing conflicts. It
	// must be non-nil for update ETs.
	Program *txn.Program
}

// account is the runtime fuzziness ledger of one registered
// transaction. Unregister hands a closed account to its shard's free
// list and Register reuses it, so an attempt allocates no account.
type account struct {
	owner lock.Owner
	info  Info

	mu       sync.Mutex
	imported metric.Fuzz
	exported metric.Fuzz
}

// Stats are cumulative controller counters.
type Stats struct {
	// Absorbed counts conflicts granted with fuzziness charging.
	Absorbed uint64
	// Refused counts conflicts that fell back to blocking.
	Refused uint64
	// TotalCharged sums the fuzziness charged over all absorbed
	// conflicts (each conflict charges both sides once; counted once).
	TotalCharged metric.Fuzz
}

// Pair is one query/update decomposition of an absorbed conflict: the
// query side imports Cost fuzziness, the update side exports it. A
// provenance ledger uses the pairs to attribute every debit back to
// both accounts it touched.
type Pair struct {
	Query  lock.Owner
	Update lock.Owner
	Cost   metric.Fuzz
}

// Event describes one arbitration decision, for observers.
type Event struct {
	// Key is the conflicted item.
	Key storage.Key
	// Requester is the transaction that asked for the incompatible grant.
	Requester lock.Owner
	// Absorbed reports whether the conflict was absorbed (granted).
	Absorbed bool
	// Cost is the total fuzziness charged (absorbed events only).
	Cost metric.Fuzz
	// Pairs lists the query/update pairs the conflict decomposed into
	// (absorbed events only). The slice is built only when an observer
	// is installed and must not be retained past the callback.
	Pairs []Pair
}

// acctShard is one shard of the owner→account map, with the closed
// accounts Register reuses.
type acctShard struct {
	mu   sync.RWMutex
	m    map[lock.Owner]*account
	free []*account
}

// shardCount is the owner→account shard count (power of two).
const shardCount = 32

// Controller is a divergence controller: a lock.Arbiter with fuzziness
// accounts.
type Controller struct {
	shards [shardCount]*acctShard

	absorbed     atomic.Uint64
	refused      atomic.Uint64
	totalCharged atomic.Int64

	// observer is consulted with a single atomic load on the arbitration
	// path; nil (the default) costs nothing beyond that load.
	observer atomic.Pointer[func(Event)]
	// obsMu serializes observer callbacks so a conformance logger sees
	// decisions one at a time.
	obsMu sync.Mutex
}

var _ lock.Arbiter = (*Controller)(nil)

// NewController returns an empty controller.
func NewController() *Controller {
	c := &Controller{}
	for i := range c.shards {
		c.shards[i] = &acctShard{m: make(map[lock.Owner]*account)}
	}
	return c
}

// shardFor returns owner's shard.
func (c *Controller) shardFor(owner lock.Owner) *acctShard {
	return c.shards[uint64(owner)%shardCount]
}

// lookup returns owner's account or nil.
func (c *Controller) lookup(owner lock.Owner) *account {
	sh := c.shardFor(owner)
	sh.mu.RLock()
	acct := sh.m[owner]
	sh.mu.RUnlock()
	return acct
}

// SetObserver installs a callback invoked on every arbitration decision,
// in the hook style of the fault package: conformance tooling uses it to
// log exactly which conflict windows were fuzzily granted. The callback
// runs while the decision's account locks are held and must not call
// back into the controller or the lock manager; callbacks are serialized.
// Nil (the default) disables it at the cost of one atomic load.
func (c *Controller) SetObserver(fn func(Event)) {
	if fn == nil {
		c.observer.Store(nil)
		return
	}
	c.observer.Store(&fn)
}

// notify reports one decision to the observer (fast path: no observer).
func (c *Controller) notify(ev Event) {
	fn := c.observer.Load()
	if fn == nil {
		return
	}
	c.obsMu.Lock()
	(*fn)(ev)
	c.obsMu.Unlock()
}

// observing reports whether an observer is installed.
func (c *Controller) observing() bool { return c.observer.Load() != nil }

// Register adds owner's account before it starts executing.
func (c *Controller) Register(owner lock.Owner, info Info) error {
	if info.Class == txn.Update && info.Program == nil {
		return fmt.Errorf("dc: update ET %d registered without program", owner)
	}
	sh := c.shardFor(owner)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.m[owner]; dup {
		return fmt.Errorf("dc: owner %d already registered", owner)
	}
	var acct *account
	if n := len(sh.free); n > 0 {
		acct, sh.free = sh.free[n-1], sh.free[:n-1]
	} else {
		acct = new(account)
	}
	acct.owner, acct.info, acct.imported, acct.exported = owner, info, 0, 0
	sh.m[owner] = acct
	return nil
}

// Unregister removes owner's account after it finishes. It returns the
// final (imported, exported) fuzziness, both zero if owner was unknown.
//
// The caller must have released owner's locks-layer presence first (the
// executor unregisters only after ReleaseAll), so no concurrent Absorb
// can still involve the account, and the account can go back to the
// free list at once. Absorb reaches an account only through a lookup
// made while it holds the stripe mutex of a key the account's owner
// holds or is requesting, and ReleaseAll needs that mutex, so every
// Absorb that looked this account up has returned before Unregister
// starts; lookups after it miss the map. Fuzz reads under the shard
// lock that Unregister takes, so it never reads a reused account.
func (c *Controller) Unregister(owner lock.Owner) (imported, exported metric.Fuzz) {
	sh := c.shardFor(owner)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	acct := sh.m[owner]
	if acct == nil {
		return 0, 0
	}
	delete(sh.m, owner)
	acct.mu.Lock()
	imported, exported = acct.imported, acct.exported
	acct.mu.Unlock()
	acct.info = Info{} // drop the program before the account is reused
	sh.free = append(sh.free, acct)
	return imported, exported
}

// Fuzz returns owner's current (imported, exported) fuzziness.
func (c *Controller) Fuzz(owner lock.Owner) (imported, exported metric.Fuzz) {
	sh := c.shardFor(owner)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	acct := sh.m[owner]
	if acct == nil {
		return 0, 0
	}
	acct.mu.Lock()
	defer acct.mu.Unlock()
	return acct.imported, acct.exported
}

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats {
	return Stats{
		Absorbed:     c.absorbed.Load(),
		Refused:      c.refused.Load(),
		TotalCharged: metric.Fuzz(c.totalCharged.Load()),
	}
}

// addCharged accumulates TotalCharged, saturating like metric.Fuzz.Add.
func (c *Controller) addCharged(f metric.Fuzz) {
	for {
		old := c.totalCharged.Load()
		next := int64(metric.Fuzz(old).Add(f))
		if c.totalCharged.CompareAndSwap(old, next) {
			return
		}
	}
}

// pairing is one query/update pair a conflict decomposes into.
type pairing struct {
	query  *account
	update *account
	cost   metric.Fuzz
}

// refuse counts a refusal and notifies any observer.
func (c *Controller) refuse(ci lock.ConflictInfo) bool {
	c.refused.Add(1)
	if c.observing() {
		c.notify(Event{Key: ci.Key, Requester: ci.Requester, Absorbed: false})
	}
	return false
}

// Absorb implements lock.Arbiter. It is all-or-nothing: either every
// conflicting pair is priced, affordable, and charged, or nothing changes
// and the requester blocks.
//
// Only the accounts the conflict involves are locked (in owner order),
// so arbitrations of unrelated ETs proceed in parallel. The invariant
// that makes the lookup safe without a global lock: Absorb runs while
// the requester's stripe mutex is held and every holder still holds the
// conflicted key, and an owner is unregistered only after ReleaseAll —
// which needs that same stripe mutex — completes. Involved accounts are
// therefore always registered for the duration of the call.
func (c *Controller) Absorb(ci lock.ConflictInfo) bool {
	req := c.lookup(ci.Requester)
	if req == nil {
		return c.refuse(ci) // unregistered transactions run plain 2PL
	}
	pairs := make([]pairing, 0, len(ci.Holders))
	involved := make([]*account, 0, len(ci.Holders)+1)
	involved = append(involved, req)
	for _, h := range ci.Holders {
		holder := c.lookup(h.Owner)
		if holder == nil {
			return c.refuse(ci)
		}
		var p pairing
		switch {
		case req.info.Class == txn.Query && holder.info.Class == txn.Update:
			p = pairing{query: req, update: holder}
		case req.info.Class == txn.Update && holder.info.Class == txn.Query:
			p = pairing{query: holder, update: req}
		default:
			// update-update (or an impossible query-query conflict):
			// never absorbed.
			return c.refuse(ci)
		}
		bound := p.update.info.Program.WriteBound(ci.Key)
		if bound.IsInfinite() {
			return c.refuse(ci)
		}
		p.cost = bound.Bound()
		pairs = append(pairs, p)
		involved = append(involved, holder)
	}

	// Lock the involved accounts in owner order (deduplicated) so that
	// concurrent multi-account arbitrations cannot deadlock.
	sort.Slice(involved, func(i, j int) bool { return involved[i].owner < involved[j].owner })
	locked := involved[:0]
	var prev *account
	for _, a := range involved {
		if a == prev {
			continue
		}
		a.mu.Lock()
		locked = append(locked, a)
		prev = a
	}
	unlock := func() {
		for _, a := range locked {
			a.mu.Unlock()
		}
	}

	// Affordability check with per-account aggregation: charging is
	// simulated first so that two pairs hitting the same account within
	// one conflict are summed before comparing with the limit.
	pendImport := make(map[*account]metric.Fuzz)
	pendExport := make(map[*account]metric.Fuzz)
	for _, p := range pairs {
		pendImport[p.query] = pendImport[p.query].Add(p.cost)
		pendExport[p.update] = pendExport[p.update].Add(p.cost)
	}
	for acct, add := range pendImport {
		if !acct.info.Import.Allows(acct.imported.Add(add)) {
			unlock()
			return c.refuse(ci)
		}
	}
	for acct, add := range pendExport {
		if !acct.info.Export.Allows(acct.exported.Add(add)) {
			unlock()
			return c.refuse(ci)
		}
	}
	var total metric.Fuzz
	for acct, add := range pendImport {
		acct.imported = acct.imported.Add(add)
		c.addCharged(add)
		total = total.Add(add)
	}
	for acct, add := range pendExport {
		acct.exported = acct.exported.Add(add)
	}
	c.absorbed.Add(1)
	if c.observing() {
		// The pair list is materialized only on the observer path; the
		// nil-observer fast path stays allocation-identical.
		evPairs := make([]Pair, len(pairs))
		for i, p := range pairs {
			evPairs[i] = Pair{Query: p.query.owner, Update: p.update.owner, Cost: p.cost}
		}
		c.notify(Event{Key: ci.Key, Requester: ci.Requester, Absorbed: true, Cost: total, Pairs: evPairs})
	}
	unlock()
	return true
}

// Key is re-exported for documentation completeness.
type Key = storage.Key
