package main

import (
	"context"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// samples are the latencies, in nanoseconds, and outcome counts one
// load goroutine (or the whole open loop) gathered.
type samples struct {
	update, query, init hist
	// offered counts submissions made; settled those whose every piece
	// committed; errors failed submits; rollbacks submissions that
	// returned without committing (none is expected on these workloads).
	offered, settled, errors, rollbacks int
	// settledByMark counts those settled before the pass's mark (see
	// runPass).
	settledByMark int
}

// passResult is one timed pass over a workload.
type passResult struct {
	samples
	elapsed time.Duration
	// shed counts open-loop arrivals refused at the in-flight cap;
	// genLate is how late the open-loop generator sent each arrival.
	shed    int
	genLate hist
	// before/after are the program's cumulative counters around the
	// pass; cpu is the process CPU time it consumed.
	before, after counters
	cpu           time.Duration
	rssMB         float64
}

// failed counts what fail_frac counts.
func (p *passResult) failed() int { return p.errors + p.shed + p.rollbacks }

// record files one finished submission.
func (s *samples) record(class uint8, o outcome, err error, settleNs, initNs int64, byMark bool) {
	s.offered++
	switch {
	case err != nil:
		s.errors++
	case !o.committed:
		s.rollbacks++
	default:
		s.settled++
		if byMark {
			s.settledByMark++
		}
		switch class {
		case classQuery:
			s.query.add(settleNs)
		case classUpdate:
			s.update.add(settleNs)
		}
		s.init.add(initNs)
	}
}

func (s *samples) merge(o *samples) {
	s.update.merge(&o.update)
	s.query.merge(&o.query)
	s.init.merge(&o.init)
	s.offered += o.offered
	s.settled += o.settled
	s.settledByMark += o.settledByMark
	s.errors += o.errors
	s.rollbacks += o.rollbacks
}

// warmUp runs n closed-loop submits on the workload's client count and
// discards their timings. It exists because a cold cluster is not the
// system users see (see README, "Why there is a warm-up").
func warmUp(ctx context.Context, tgt target, in *inputs, n int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range in.sched {
		wg.Add(1)
		go func(sched []uint16) {
			defer wg.Done()
			for i := 0; next.Add(1) <= int64(n); i++ {
				_, _ = tgt.submit(ctx, int(sched[i%len(sched)])) // a failing cluster fails the timed pass too
			}
		}(in.sched[c])
	}
	wg.Wait()
}

// runPass times the workload's load for window against tgt. tr, when
// non-nil, gets a root span per submission. Settlements in the first
// mark of the window are counted apart, so that a long pass can be
// compared with a shorter one over the same stretch: throughput drifts
// down as a cluster's store fills.
func runPass(ctx context.Context, def workloadDef, in *inputs, tgt target, window, mark time.Duration, tr *tracer) *passResult {
	res := &passResult{before: tgt.counters()}
	cpu0 := cpuTime()
	start := time.Now()
	if def.rate > 0 {
		runOpen(ctx, in, tgt, start, start.Add(mark), tr, res)
	} else {
		runClosed(ctx, in, tgt, start.Add(window), start.Add(mark), tr, res)
	}
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.after = tgt.counters()
	res.rssMB = rssMB()
	return res
}

// runClosed keeps one submission per client in flight until deadline:
// each client sends its next only when its previous has settled.
func runClosed(ctx context.Context, in *inputs, tgt target, deadline, mark time.Time, tr *tracer, res *passResult) {
	per := make([]samples, len(in.sched)) // one per client: no sharing in the loop
	var wg sync.WaitGroup
	for c := range in.sched {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, sched := &per[c], in.sched[c]
			t0 := time.Now()
			for i := 0; t0.Before(deadline); i++ {
				ti := int(sched[i%len(sched)])
				id := tr.begin(spanSubmit, -1, int64(c)<<32|int64(i))
				o, err := tgt.submit(ctx, ti)
				tr.end(id)
				t1 := time.Now()
				lat := int64(t1.Sub(t0))
				initNs := int64(o.init)
				if initNs == 0 {
					initNs = lat
				}
				s.record(in.class[ti], o, err, lat, initNs, t1.Before(mark))
				t0 = t1
			}
		}(c)
	}
	wg.Wait()
	for i := range per {
		res.merge(&per[i])
	}
}

// runOpen sends every arrival at its seeded due instant whether or not
// earlier ones have settled, and times each from that due instant, so a
// stall delays — and is charged for — everything scheduled behind it.
func runOpen(ctx context.Context, in *inputs, tgt target, start, mark time.Time, tr *tracer, res *passResult) {
	var (
		mu       sync.Mutex // guards res.samples
		inFlight atomic.Int64
		wg       sync.WaitGroup
	)
	for i := range in.due {
		due := start.Add(in.due[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.genLate.add(int64(time.Since(due)))
		if inFlight.Load() >= openInFlightCap {
			res.shed++
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer inFlight.Add(-1)
			ti := int(in.arrival[i])
			id := tr.begin(spanSubmit, -1, int64(i))
			submitted := time.Now()
			o, err := tgt.submit(ctx, ti)
			tr.end(id)
			settled := time.Now()
			mu.Lock()
			res.record(in.class[ti], o, err, int64(settled.Sub(due)), int64(submitted.Sub(due))+int64(o.init), settled.Before(mark))
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	res.offered += res.shed
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB returns the process's resident set in MB from /proc, 0 where
// there is no /proc.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
