// Package dc implements two-phase-locking divergence control (DC) for
// epsilon serializability.
//
// DC is "2PL except for the way it handles read-write conflicts"
// (Wu-Yu-Pu): when a read-write conflict arises between a query ET and an
// update ET, the query may import and the update may export a bounded
// amount of fuzziness instead of blocking. The controller plugs into the
// lock manager as its conflict Arbiter:
//
//   - Each running transaction (or chopped piece) opens an account with
//     its class, its import/export limits, and its program (whose
//     declared write bounds price conflicts).
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
// # Accounts
//
// An attempt's account lives on its lock.Locker (Open, Close): the lock
// manager names the requester's and the holders' Lockers in every
// conflict, so Absorb reaches the accounts by pointer, with no lookup
// and no shared map. A pooled Locker keeps its account, and the next
// attempt's Open reuses it. Close after the Locker's ReleaseAll is what
// makes that safe: Absorb reads an account only while its Locker holds
// or requests a key, under that key's stripe mutex, and ReleaseAll takes
// every such mutex after the Locker's last grant, so no arbitration can
// still reach the account once Close runs. The owner-keyed Register and
// Unregister keep accounts in one map for callers that mint no Locker;
// Absorb falls back to it for a Locker with no open account.
//
// Absorb locks exactly the accounts a conflict involves, in owner
// order, so fuzziness accounting of unrelated ETs never serializes, and
// with up to four holders it allocates nothing. Counters are atomics
// and the observer is an atomic pointer with a nil fast path, so an idle
// hook costs one atomic load per arbitration.
package dc

import (
	"fmt"
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

// account is the runtime fuzziness ledger of one attempt. owner, info
// and open are written only while no arbitration can reach the account
// (see the package doc); the ledger is guarded by mu.
type account struct {
	owner lock.Owner
	info  Info
	open  bool

	mu       sync.Mutex
	imported metric.Fuzz
	exported metric.Fuzz
}

// reset opens the account for owner with info and an empty ledger.
func (a *account) reset(owner lock.Owner, info Info) {
	*a = account{owner: owner, info: info, open: true}
}

// close closes the account and returns its ledger.
func (a *account) close() (imported, exported metric.Fuzz) {
	imported, exported = a.imported, a.exported
	a.info, a.open = Info{}, false // drop the program before reuse
	return imported, exported
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

// Controller is a divergence controller: a lock.Arbiter with fuzziness
// accounts.
type Controller struct {
	// owners holds the accounts of Register/Unregister, free the closed
	// ones Register reuses.
	mu     sync.Mutex
	owners map[lock.Owner]*account
	free   []*account

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
	return &Controller{owners: make(map[lock.Owner]*account)}
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

// check rejects an update ET without a program to price its writes.
func (info Info) check(owner lock.Owner) error {
	if info.Class == txn.Update && info.Program == nil {
		return fmt.Errorf("dc: update ET %d registered without program", owner)
	}
	return nil
}

// Open opens the account of l's attempt with info, before l acquires
// anything. The account is l's own: a pooled Locker's previous account
// is reused.
func (c *Controller) Open(l *lock.Locker, info Info) error {
	if err := info.check(l.Owner()); err != nil {
		return err
	}
	a, _ := l.Account.(*account)
	if a == nil {
		a = new(account)
		l.Account = a
	}
	a.reset(l.Owner(), info)
	return nil
}

// Close closes l's account and returns the fuzziness the attempt
// imported and exported (zeros if Open never ran). l must have released
// its locks (lock.Locker.ReleaseAll): see the package doc.
func (c *Controller) Close(l *lock.Locker) (imported, exported metric.Fuzz) {
	if a, _ := l.Account.(*account); a != nil && a.open {
		return a.close()
	}
	return 0, 0
}

// Register opens owner's account for a caller of the owner-keyed locks.
func (c *Controller) Register(owner lock.Owner, info Info) error {
	if err := info.check(owner); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.owners[owner]; dup {
		return fmt.Errorf("dc: owner %d already registered", owner)
	}
	var a *account
	if n := len(c.free); n > 0 {
		a, c.free = c.free[n-1], c.free[:n-1]
	} else {
		a = new(account)
	}
	a.reset(owner, info)
	c.owners[owner] = a
	return nil
}

// Unregister closes owner's account as Close does, after owner's
// ReleaseAll, and returns the final (imported, exported) fuzziness,
// both zero if owner was unknown.
func (c *Controller) Unregister(owner lock.Owner) (imported, exported metric.Fuzz) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.owners[owner]
	if a == nil {
		return 0, 0
	}
	delete(c.owners, owner)
	c.free = append(c.free, a)
	return a.close()
}

// account returns the open account of a conflict's party: its Locker's,
// else the one Register opened for owner, else nil.
func (c *Controller) account(l *lock.Locker, owner lock.Owner) *account {
	if l != nil {
		if a, _ := l.Account.(*account); a != nil && a.open {
			return a
		}
	}
	c.mu.Lock()
	a := c.owners[owner]
	c.mu.Unlock()
	return a
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
// so arbitrations of unrelated ETs proceed in parallel. Absorb runs
// while the requester's stripe mutex is held and every holder still
// holds the conflicted key, so every involved account stays open for
// the duration of the call (see the package doc).
func (c *Controller) Absorb(ci lock.ConflictInfo) bool {
	req := c.account(ci.Locker, ci.Requester)
	if req == nil {
		return c.refuse(ci) // unregistered transactions run plain 2PL
	}
	// Up to four holders price and lock on the stack.
	var pairBuf [4]pairing
	var lockBuf [5]*account
	pairs := pairBuf[:0]
	involved := append(lockBuf[:0], req)
	for _, h := range ci.Holders {
		holder := c.account(h.Locker, h.Owner)
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
	for i := 1; i < len(involved); i++ {
		for j := i; j > 0 && involved[j].owner < involved[j-1].owner; j-- {
			involved[j], involved[j-1] = involved[j-1], involved[j]
		}
	}
	locked := involved[:0]
	for _, a := range involved {
		if n := len(locked); n > 0 && locked[n-1] == a {
			continue
		}
		a.mu.Lock()
		locked = append(locked, a)
	}

	// Affordability: every account's charges within this conflict are
	// summed before comparing with its limit.
	for _, p := range pairs {
		var imp, exp metric.Fuzz
		for _, o := range pairs {
			if o.query == p.query {
				imp = imp.Add(o.cost)
			}
			if o.update == p.update {
				exp = exp.Add(o.cost)
			}
		}
		if !p.query.info.Import.Allows(p.query.imported.Add(imp)) ||
			!p.update.info.Export.Allows(p.update.exported.Add(exp)) {
			unlockAll(locked)
			return c.refuse(ci)
		}
	}
	var total metric.Fuzz
	for _, p := range pairs {
		p.query.imported = p.query.imported.Add(p.cost)
		p.update.exported = p.update.exported.Add(p.cost)
		total = total.Add(p.cost)
	}
	c.addCharged(total)
	c.absorbed.Add(1)
	if c.observing() {
		// The pair list is materialized only on the observer path; the
		// nil-observer fast path allocates nothing.
		evPairs := make([]Pair, len(pairs))
		for i, p := range pairs {
			evPairs[i] = Pair{Query: p.query.owner, Update: p.update.owner, Cost: p.cost}
		}
		c.notify(Event{Key: ci.Key, Requester: ci.Requester, Absorbed: true, Cost: total, Pairs: evPairs})
	}
	unlockAll(locked)
	return true
}

// unlockAll unlocks the accounts Absorb locked.
func unlockAll(locked []*account) {
	for _, a := range locked {
		a.mu.Unlock()
	}
}

// Key is re-exported for documentation completeness.
type Key = storage.Key
