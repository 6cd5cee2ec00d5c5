package obs

import (
	"testing"

	"asynctp/internal/metric"
)

// The whole observability plane is built to be compiled in but free
// when disabled: a nil *Plane, a nil *SpanStore and nil metric handles
// must all no-op without allocating or capturing a closure. These
// tests pin that contract with testing.AllocsPerRun so a refactor that
// accidentally allocates on the disabled path fails CI, not a perf run.

func TestNilPlaneSpanHooksZeroAlloc(t *testing.T) {
	var p *Plane
	end := p.ActivationBegin()
	allocs := testing.AllocsPerRun(1000, func() {
		p.TxnBegin(1, "xfer")
		p.BindBudget(1, "xfer", "update", "static", metric.Infinite)
		p.PieceBegin(2, 1, 0, "NY", "xfer/p1", 0, 0, "")
		p.PieceSettle(2, 0, 0)
		p.TxnEnd(1, true)
		end()
	})
	if allocs > 0 {
		t.Errorf("nil-plane span hooks: %.1f allocs/op, want 0", allocs)
	}
}

// Distributed-span hooks ride the piece hot path (every activation,
// every settlement report). With tracing disabled — nil plane, or a
// plane built without EnableSpans — they must stay branch-only.
func TestDisabledSpanHooksZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plane *Plane
	}{
		{"nil-plane", nil},
		{"plane-without-spans", NewPlane(nil, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.plane
			var ctx = p.SpanCtx(1, RootSpanID(1))
			allocs := testing.AllocsPerRun(1000, func() {
				_ = p.SpanCtx(1, RootSpanID(1))
				p.SpanActivationHop(1, 1, false, ctx, 12345)
				p.SpanReportHop(1, 1, false, ctx, 12345)
				p.SpanFsync(1, PieceSpanID(1, 0, false), 0, false, 100, 200)
				p.SpanRepair(2, 5)
				p.SpanAdmit(1, 100, 200)
				_ = p.SpansOn()
				p.TriggerFlight("")
			})
			if allocs > 0 {
				t.Errorf("disabled span hooks: %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

func TestNilSpanStoreZeroAlloc(t *testing.T) {
	var s *SpanStore
	allocs := testing.AllocsPerRun(1000, func() {
		s.Add(Span{Trace: 1})
		s.Tick()
		s.Observe(7)
		_ = s.NextID()
		_ = s.Ctx(1, 2, 3)
	})
	if allocs > 0 {
		t.Errorf("nil span store: %.1f allocs/op, want 0", allocs)
	}
}

func TestNilPlaneTenantHooksZeroAlloc(t *testing.T) {
	var p *Plane
	allocs := testing.AllocsPerRun(1000, func() {
		p.TenantAdmit("t1")
		p.TenantDegrade("t1", 500)
		p.TenantShed("t1")
		p.WatchPartition("0", nil, nil)
		p.WatchPool("0", nil)
	})
	if allocs > 0 {
		t.Errorf("nil-plane tenant hooks: %.1f allocs/op, want 0", allocs)
	}
}

func TestNilVecHandlesZeroAlloc(t *testing.T) {
	var cv *CounterVec
	var gv *GaugeVec
	allocs := testing.AllocsPerRun(1000, func() {
		cv.With("t").Inc()
		gv.With("t").Set(1)
	})
	if allocs > 0 {
		t.Errorf("nil vec handles: %.1f allocs/op, want 0", allocs)
	}
}

// Enabled-vec steady state: a cached handle lookup is a read-locked map
// hit — no per-observation allocation once the series exists.
func TestEnabledVecSteadyStateZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("asynctp_test_total", "help", "tenant")
	vec.With("t").Inc() // register the series
	allocs := testing.AllocsPerRun(1000, func() {
		vec.With("t").Inc()
	})
	if allocs > 0 {
		t.Errorf("enabled vec steady-state With+Inc: %.1f allocs/op, want 0", allocs)
	}
}

func TestNilPlaneObserverConstructorsCollapse(t *testing.T) {
	var p *Plane
	if p.ExecObserver() != nil || p.WaitObserver() != nil || p.DCObserver() != nil ||
		p.QueueObserver() != nil || p.CommitObserver("NY") != nil {
		t.Fatal("nil plane must hand out nil observers so call sites skip the hook entirely")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		_ = p.ExecObserver()
		_ = p.WaitObserver()
		_ = p.DCObserver()
		_ = p.QueueObserver()
		_ = p.CommitObserver("NY")
	})
	if allocs > 0 {
		t.Errorf("nil-plane observer constructors: %.1f allocs/op, want 0", allocs)
	}
}

func TestTeeHelpersCollapseToNil(t *testing.T) {
	if TeeTxnObserver(nil, nil) != nil {
		t.Error("TeeTxnObserver(nil, nil) must be nil")
	}
	if TeeWaitObserver(nil, nil) != nil {
		t.Error("TeeWaitObserver(nil, nil) must be nil")
	}
	if TeeDCObserver(nil, nil) != nil {
		t.Error("TeeDCObserver(nil, nil) must be nil")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		_ = TeeTxnObserver(nil, nil)
		_ = TeeWaitObserver(nil, nil)
		_ = TeeDCObserver(nil, nil)
	})
	if allocs > 0 {
		t.Errorf("collapsed tee helpers: %.1f allocs/op, want 0", allocs)
	}
}

func TestNilMetricHandlesZeroAlloc(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(-1)
		h.Observe(0.5)
	})
	if allocs > 0 {
		t.Errorf("nil metric handles: %.1f allocs/op, want 0", allocs)
	}
}
