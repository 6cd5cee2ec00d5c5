package site

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/txn"
)

// Exactly-once application (DESIGN.md §6). A piece's commit batch
// writes an entry of its worker's apply log, or of an origin slot for a
// first piece; a worker completes its batch's stagings and acks in one
// queue step, and a first piece's staging marks the image with its
// slot. So a delivery a recovered image still holds sent nothing, and
// resume and restageOrigins stage again exactly what the crash lost.
// Both logs are bounded by what is in flight, not by history, and every
// key starts with "__" (no money: the conservation audits skip them).
const (
	appliedPrefix = "__applied/"
	originPrefix  = "__origin/"
)

// logStamp resolves a durable log entry's cell once; the commit batch
// that writes it takes a copy with Value set.
func logStamp(store *storage.Store, key string) txn.Stamp {
	return txn.Stamp{Cell: store.Cell(storage.Key(key)), Key: storage.Key(key)}
}

// delivery is a queue delivery's channel and sequence number.
type delivery struct {
	from simnet.SiteID
	seq  uint64
}

// applyLog is worker w's record of what its current batch applied: entry
// `__applied/<from>/<w>/<i>` holds the sequence number of the batch's
// i-th delivery from that site. Only w writes it, so it takes no lock.
type applyLog struct {
	store *storage.Store
	w     int
	cells map[simnet.SiteID][]txn.Stamp
	used  map[simnet.SiteID]int
	stamp [1]txn.Stamp
}

func newApplyLog(store *storage.Store, w int) *applyLog {
	return &applyLog{store: store, w: w,
		cells: make(map[simnet.SiteID][]txn.Stamp), used: make(map[simnet.SiteID]int)}
}

// begin starts a batch: the last one's persist returned, freeing its entries.
func (l *applyLog) begin() { clear(l.used) }

// entry takes the batch's next entry for msg's channel and returns the
// stamp that records msg.
func (l *applyLog) entry(msg queue.Msg) []txn.Stamp {
	i := l.used[msg.From]
	l.used[msg.From] = i + 1
	cells := l.cells[msg.From]
	if i == len(cells) {
		cells = append(cells, logStamp(l.store, fmt.Sprintf("%s%s/%d/%d", appliedPrefix, msg.From, l.w, i)))
		l.cells[msg.From] = cells
	}
	l.stamp[0] = cells[i]
	l.stamp[0].Value = metric.Value(msg.Seq)
	return l.stamp[:]
}

// originSlot is claimed by a first piece's commit batch: `__origin/<k>`
// holds the instance, `__origin/<k>/type` its program type plus one; the
// staging sets the image mark of that name to the instance.
type originSlot struct {
	inst, typ txn.Stamp
	mark      string
}

// originPool hands out origin slots, one per submission between its
// first piece's commit and the persist of its staging. A slot whose
// staging a crash lost is never free: resume puts it in lost, and only
// a durable restaging frees it.
type originPool struct {
	mu         sync.Mutex
	store      *storage.Store
	n          int
	free, lost []*originSlot
}

func (p *originPool) slot(k int) *originSlot {
	name := originPrefix + strconv.Itoa(k)
	return &originSlot{inst: logStamp(p.store, name), typ: logStamp(p.store, name+"/type"), mark: name}
}

func (p *originPool) take() (o *originSlot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		o, p.free = p.free[n-1], p.free[:n-1]
		return o
	}
	p.n++
	return p.slot(p.n - 1)
}

func (p *originPool) put(o *originSlot) {
	p.mu.Lock()
	p.free = append(p.free, o)
	p.mu.Unlock()
}

// resume rebuilds a site's exactly-once state from its recovered store
// and queue image st, before any worker runs: the applied deliveries st
// may deliver again, rewritten in one batch to the entries
// `__applied/<from>/r/<i>` that no worker reuses, and the origin slots.
// Its work is proportional to the store (data plus bounded logs).
func (s *Site) resume(st queue.State) error {
	pending := make(map[delivery]bool)
	for _, m := range st.Inflight {
		pending[delivery{m.From, m.Seq}] = true
	}
	for _, q := range st.Queues {
		for _, m := range q {
			pending[delivery{m.From, m.Seq}] = true
		}
	}
	recovered := make(map[delivery]struct{})
	var writes []storage.Write
	pool, used := &originPool{store: s.Store}, make(map[simnet.SiteID]int)
	for _, key := range s.Store.Keys() {
		if slot, ok := strings.CutPrefix(string(key), originPrefix); ok {
			if k, err := strconv.Atoi(slot); err == nil {
				pool.n = max(pool.n, k+1)
			}
			continue
		}
		rest, ok := strings.CutPrefix(string(key), appliedPrefix)
		from, _, _ := strings.Cut(rest, "/")
		d := delivery{simnet.SiteID(from), uint64(s.Store.Get(key))}
		ss := st.Seen[d.from]
		seen := d.seq <= ss.Prefix || slices.Contains(ss.Sparse, d.seq)
		if _, dup := recovered[d]; !ok || dup || d.seq == 0 || seen && !pending[d] {
			continue // not an entry, or consumed in the image: never delivered again
		}
		recovered[d] = struct{}{}
		writes = append(writes, storage.Write{Value: metric.Value(d.seq),
			Key: storage.Key(fmt.Sprintf("%s%s/r/%d", appliedPrefix, from, used[d.from]))})
		used[d.from]++
	}
	for k := pool.n - 1; k >= 0; k-- {
		o, list := pool.slot(k), &pool.free
		if inst, _ := o.inst.Cell.Load(); inst != 0 && st.Marks[o.mark] != uint64(inst) {
			list = &pool.lost
		}
		*list = append(*list, o)
	}
	s.recovered, s.origins = recovered, pool
	return s.Store.Apply(writes)
}

// restageOrigins stages the successors of every lost origin slot (no
// copy left the site) whose program type is registered. One persist
// covers them all and frees their slots; on its error the site
// fail-stops with them lost. Callers hold s.submitting exclusively, so
// no submission touches the pool meanwhile.
func (s *Site) restageOrigins() error {
	s.cluster.dist.mu.Lock()
	programs := s.cluster.dist.programs
	s.cluster.dist.mu.Unlock()
	pool, buf := s.origins, s.queues.Buffer()
	var staged, lost []*originSlot
	for _, o := range pool.lost {
		inst, _ := o.inst.Cell.Load()
		typ, _ := o.typ.Cell.Load()
		if ti := int(typ) - 1; ti >= 0 && ti < len(programs) {
			s.stageChildren(activation{Inst: uint64(inst), Origin: s.ID, TxType: ti}, programs[ti], buf)
			buf.Mark(o.mark, uint64(inst))
			staged = append(staged, o)
		} else {
			lost = append(lost, o)
		}
	}
	if len(staged) == 0 {
		return nil
	}
	s.queues.CommitSend(buf)
	if err := s.makeDurable(s.queues.Persist); err != nil {
		return err
	}
	pool.lost, pool.free = lost, append(pool.free, staged...)
	return nil
}

// redelivered reports whether msg's delivery is one resume collected:
// applied before the last recovery. No other sequence number is.
func (s *Site) redelivered(msg queue.Msg) bool {
	_, ok := s.recovered[delivery{msg.From, msg.Seq}]
	return ok
}
