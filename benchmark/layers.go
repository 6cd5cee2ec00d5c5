package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"asynctp/internal/core"
	"asynctp/internal/dc"
	"asynctp/internal/lock"
	"asynctp/internal/metric"
	"asynctp/internal/queue"
	"asynctp/internal/simnet"
	"asynctp/internal/storage"
	"asynctp/internal/transport"
	"asynctp/internal/txn"
	"asynctp/internal/workload"
)

// Layer replays: single-goroutine loops that feed one layer's public
// functions the operations of the workload's own seeded schedule, for a
// fixed operation count. They give each layer's cost with nothing else
// running; the traced pass gives how often a transaction pays it.

// replayActivation stands in for the site package's unexported queue
// payload (same fields, same gob shape), so replayed frames weigh what
// real ones do.
type replayActivation struct {
	Inst       uint64
	Origin     simnet.SiteID
	TxType     int
	Piece      int
	Compensate bool
}

func init() { queue.RegisterPayloadType(replayActivation{}) }

// Fixed replay sizes (ops), divided by smokeDivisor under -smoke.
const (
	replayFrames = 8000
	// replayFrameMsgs is the messages (and piggybacked acks) per replayed
	// frame and per replayed commit: what the default 200µs coalescing
	// window gathers on dist-closed (queue.msgs_per_frame is about 2).
	replayFrameMsgs = 2
	replayQueueMsgs = 40000
	replayLockTxns  = 40000
	replayDCCycles  = 100000
	replayStoreTxns = 100000
	smokeDivisor    = 40
)

// replayResult holds every replayed number; a layer the workload does
// not use stays 0.
type replayResult struct {
	encodeNs, decodeNs, frameBytes, allocsPerFrame float64
	queueRoundtripNs                               float64
	lockAcquireReleaseNs                           float64
	dcAbsorbNs                                     float64
	storeApplyNs, storeGetNs                       float64
}

// runReplays replays the layers def's workload crosses.
func runReplays(def workloadDef, in *inputs, smoke bool) (replayResult, error) {
	scale := 1
	if smoke {
		scale = smokeDivisor
	}
	var r replayResult
	var err error
	if def.dist {
		if err = replayTransport(in, replayFrames/scale, &r); err != nil {
			return r, err
		}
		if err = replayQueue(in, replayQueueMsgs/scale, &r); err != nil {
			return r, err
		}
	} else if def.engine == core.EngineLocking {
		if err = replayLock(in, replayLockTxns/scale, &r); err != nil {
			return r, err
		}
		if err = replayDC(in, replayDCCycles/scale, &r); err != nil {
			return r, err
		}
	}
	replayStore(in, replayStoreTxns/scale, &r)
	return r, nil
}

// scheduled calls f with each program of client 0's schedule, n times
// in all, cycling.
func scheduled(in *inputs, n int, f func(i, ti int, p *txn.Program)) {
	sched := in.sched[0]
	for i := 0; i < n; i++ {
		ti := int(sched[i%len(sched)])
		f(i, ti, in.w.Programs[ti])
	}
}

// remotePiece returns the site of p's first op and of the first op
// placed elsewhere — the hop a chopped instance's activation makes.
func remotePiece(p *txn.Program) (origin, dest simnet.SiteID, ok bool) {
	origin = workload.YCSBPlacement(p.Ops[0].Key)
	for _, op := range p.Ops[1:] {
		if s := workload.YCSBPlacement(op.Key); s != origin {
			return origin, s, true
		}
	}
	return origin, "", false
}

// replayMsgs builds the queue messages the schedule's multi-site
// programs would stage, n in all.
func replayMsgs(in *inputs, n int) []queue.Msg {
	msgs := make([]queue.Msg, 0, n)
	for i := 0; len(msgs) < n; i++ {
		ti := int(in.sched[0][i%schedLen])
		origin, dest, ok := remotePiece(in.w.Programs[ti])
		if !ok {
			continue
		}
		seq := uint64(len(msgs) + 1)
		msgs = append(msgs, queue.Msg{
			ID:      fmt.Sprintf("%s>%s-%d", origin, dest, seq),
			Seq:     seq,
			From:    origin,
			Queue:   "pieces",
			Payload: replayActivation{Inst: uint64(i + 1), Origin: origin, TxType: ti, Piece: 1},
		})
	}
	return msgs
}

// replayTransport encodes and decodes BatchFrames of replayFrameMsgs
// activations plus as many piggybacked acks.
func replayTransport(in *inputs, frames int, r *replayResult) error {
	msgs := replayMsgs(in, frames*replayFrameMsgs)
	wire := make([]simnet.Message, frames)
	for f := range wire {
		batch := msgs[f*replayFrameMsgs : (f+1)*replayFrameMsgs]
		acks := make([]string, len(batch))
		for i, m := range batch {
			acks[i] = m.ID
		}
		wire[f] = simnet.Message{
			From: batch[0].From, To: "s0", Kind: queue.KindEnqueueBatch,
			Payload: queue.BatchFrame{Msgs: batch, Acks: acks},
		}
	}
	encoded := make([][]byte, frames)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	var bytes int
	for f, msg := range wire {
		b, err := transport.EncodeFrame(msg)
		if err != nil {
			return fmt.Errorf("transport replay: encode: %w", err)
		}
		encoded[f] = b
		bytes += len(b)
	}
	t1 := time.Now()
	for _, b := range encoded {
		msg, _, err := transport.DecodeFrame(b)
		if err != nil {
			return fmt.Errorf("transport replay: decode: %w", err)
		}
		if got := msg.Payload.(queue.BatchFrame); len(got.Msgs) != replayFrameMsgs {
			return fmt.Errorf("transport replay: decoded %d messages, want %d", len(got.Msgs), replayFrameMsgs)
		}
	}
	t2 := time.Now()
	runtime.ReadMemStats(&ms1)
	n := float64(frames)
	r.encodeNs = float64(t1.Sub(t0)) / n
	r.decodeNs = float64(t2.Sub(t1)) / n
	r.frameBytes = float64(bytes) / n
	r.allocsPerFrame = float64(ms1.Mallocs-ms0.Mallocs) / n
	return nil
}

// loopback is an in-memory simnet.Sender that delivers synchronously
// to the peer's Handle.
type loopback map[simnet.SiteID]*queue.Manager

func (l loopback) Send(msg simnet.Message) error {
	l[msg.To].Handle(msg)
	return nil
}

// replayQueue drives CommitSend → Handle → DequeueBatch → Ack between
// two endpoints, replayFrameMsgs messages per commit. With a zero flush
// delay every step runs on the calling goroutine, cumulative ack
// included.
func replayQueue(in *inputs, n int, r *replayResult) error {
	msgs := replayMsgs(in, n)
	wire := loopback{}
	a := queue.NewManager("a", wire, time.Minute, queue.WithFlushDelay(0))
	b := queue.NewManager("b", wire, time.Minute, queue.WithFlushDelay(0))
	defer a.Close()
	defer b.Close()
	wire["a"], wire["b"] = a, b
	ctx := context.Background()
	t0 := time.Now()
	for i := 0; i+replayFrameMsgs <= len(msgs); i += replayFrameMsgs {
		buf := a.Buffer()
		for _, m := range msgs[i : i+replayFrameMsgs] {
			buf.Enqueue("b", "pieces", m.Payload)
		}
		a.CommitSend(buf)
		batch, err := b.DequeueBatch(ctx, "pieces", replayFrameMsgs)
		if err != nil {
			return fmt.Errorf("queue replay: %w", err)
		}
		if batch.Len() != replayFrameMsgs {
			return fmt.Errorf("queue replay: dequeued %d of %d", batch.Len(), replayFrameMsgs)
		}
		batch.Ack()
	}
	elapsed := time.Since(t0)
	if left := a.OutboxLen(); left != 0 {
		return fmt.Errorf("queue replay: %d messages never acknowledged", left)
	}
	r.queueRoundtripNs = float64(elapsed) / float64(len(msgs)/replayFrameMsgs*replayFrameMsgs)
	return nil
}

// replayLock acquires every lock of each scheduled program and releases
// them, uncontended.
func replayLock(in *inputs, txns int, r *replayResult) error {
	mgr := lock.NewManager()
	ctx := context.Background()
	var ops int
	var failed error
	t0 := time.Now()
	scheduled(in, txns, func(i, _ int, p *txn.Program) {
		owner := lock.Owner(i + 1)
		for _, op := range p.Ops {
			mode := lock.Shared
			if op.Kind == txn.OpWrite {
				mode = lock.Exclusive
			}
			if err := mgr.Acquire(ctx, owner, op.Key, mode); err != nil {
				failed = err
			}
			ops++
		}
		mgr.ReleaseAll(owner)
	})
	if failed != nil {
		return fmt.Errorf("lock replay: %w", failed)
	}
	r.lockAcquireReleaseNs = float64(time.Since(t0)) / float64(ops)
	return nil
}

// replayDC prices and absorbs the workload's one absorbable conflict —
// the audit reading a hot account a transfer holds exclusively — with
// the register/unregister pair every piece pays around it.
func replayDC(in *inputs, cycles int, r *replayResult) error {
	audit := in.w.Programs[len(in.w.Programs)-1]
	xfer := in.w.Programs[0]
	audited := make(map[storage.Key]bool)
	for _, k := range audit.ReadSet() {
		audited[k] = true
	}
	var key storage.Key
	for _, k := range xfer.WriteSet() {
		if audited[k] {
			key = k
			break
		}
	}
	ctl := dc.NewController()
	limit := metric.LimitOf(localEpsilon)
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		q, u := lock.Owner(2*i+1), lock.Owner(2*i+2)
		if err := ctl.Register(q, dc.Info{Class: txn.Query, Import: limit, Export: metric.Zero, Program: audit}); err != nil {
			return fmt.Errorf("dc replay: %w", err)
		}
		if err := ctl.Register(u, dc.Info{Class: txn.Update, Import: limit, Export: limit, Program: xfer}); err != nil {
			return fmt.Errorf("dc replay: %w", err)
		}
		if !ctl.Absorb(lock.ConflictInfo{
			Key: key, Requester: q, Mode: lock.Shared,
			Holders: []lock.HolderInfo{{Owner: u, Mode: lock.Exclusive}},
		}) {
			return fmt.Errorf("dc replay: conflict on %q refused", key)
		}
		ctl.Unregister(q)
		ctl.Unregister(u)
	}
	r.dcAbsorbNs = float64(time.Since(t0)) / float64(cycles)
	return nil
}

// replayStore reads every key each scheduled program touches, then
// applies each program's writes as one committed batch. The values
// written are arbitrary: nothing audits the replay's store.
func replayStore(in *inputs, txns int, r *replayResult) {
	store := in.w.Store()
	batches := make([][]storage.Write, len(in.w.Programs))
	for ti, p := range in.w.Programs {
		for _, op := range p.Ops {
			if op.Kind == txn.OpWrite {
				batches[ti] = append(batches[ti], storage.Write{Key: op.Key, Value: op.Update(0)})
			}
		}
	}
	var gets, applies int
	var sink metric.Value
	t0 := time.Now()
	scheduled(in, txns, func(_, _ int, p *txn.Program) {
		for _, op := range p.Ops {
			sink += store.Get(op.Key)
			gets++
		}
	})
	t1 := time.Now()
	scheduled(in, txns, func(_, ti int, _ *txn.Program) {
		if len(batches[ti]) > 0 {
			_ = store.Apply(batches[ti]) // no sink attached: Apply cannot fail
			applies++
		}
	})
	t2 := time.Now()
	replaySink = sink
	r.storeGetNs = float64(t1.Sub(t0)) / float64(gets)
	if applies > 0 {
		r.storeApplyNs = float64(t2.Sub(t1)) / float64(applies)
	}
}

// replaySink keeps the replayed reads from being optimised away.
var replaySink metric.Value
