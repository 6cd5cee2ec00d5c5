package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"asynctp/internal/metric"
)

// httpGet fetches a URL and returns (body, status).
func httpGet(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body), resp.StatusCode
}

// truncate clips s for error messages.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// The label vectors exist so the tenant layer can charge per-tenant
// counters without one registry (or one pre-registration ceremony) per
// tenant: With() is the only call site API, handles are cached, and the
// whole surface collapses to no-ops when metrics are disabled.

func TestCounterVecRegistersAndCaches(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("asynctp_test_total", "help", "tenant")
	a1 := vec.With("alice")
	a1.Add(3)
	if a2 := vec.With("alice"); a2 != a1 {
		t.Error("With must return the cached handle for a repeated label")
	}
	vec.With("bob").Inc()

	snap := vec.Snapshot()
	if snap["alice"] != 3 || snap["bob"] != 1 {
		t.Errorf("snapshot = %v, want alice=3 bob=1", snap)
	}

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	prom := b.String()
	for _, want := range []string{
		`asynctp_test_total{tenant="alice"} 3`,
		`asynctp_test_total{tenant="bob"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("exposition missing %q:\n%s", want, prom)
		}
	}
}

func TestGaugeVecRegistersAndSnapshots(t *testing.T) {
	reg := NewRegistry()
	vec := reg.GaugeVec("asynctp_test_depth", "help", "partition")
	vec.With("0").Set(7)
	vec.With("1").Add(2)
	vec.With("1").Add(-1)
	snap := vec.Snapshot()
	if snap["0"] != 7 || snap["1"] != 1 {
		t.Errorf("snapshot = %v, want 0:7 1:1", snap)
	}
}

func TestNilVecsCollapse(t *testing.T) {
	var reg *Registry
	cv := reg.CounterVec("x", "h", "l")
	gv := reg.GaugeVec("x", "h", "l")
	if cv != nil || gv != nil {
		t.Fatal("nil registry must hand out nil vecs")
	}
	cv.With("t").Inc() // must not panic
	gv.With("t").Set(1)
	if cv.Snapshot() != nil || gv.Snapshot() != nil {
		t.Error("nil vec snapshots must be nil")
	}
}

func TestPlaneTenantHooksAndSummary(t *testing.T) {
	p := NewPlane(nil, NewRegistry())
	p.TenantAdmit("t1")
	p.TenantAdmit("t1")
	p.TenantDegrade("t1", metric.Fuzz(500))
	p.TenantShed("t2")
	var found1, found2 bool
	for _, line := range p.Summary() {
		if strings.Contains(line, "tenant t1:") {
			found1 = true
			if !strings.Contains(line, "2 admitted") || !strings.Contains(line, "1 degraded") ||
				!strings.Contains(line, "500 ε charged") {
				t.Errorf("t1 summary line wrong: %q", line)
			}
		}
		if strings.Contains(line, "tenant t2:") {
			found2 = true
			if !strings.Contains(line, "1 shed") {
				t.Errorf("t2 summary line wrong: %q", line)
			}
		}
	}
	if !found1 || !found2 {
		t.Errorf("summary missing tenant lines (t1=%v t2=%v):\n%s",
			found1, found2, strings.Join(p.Summary(), "\n"))
	}
}

func TestSummaryOmitsTenantLinesWhenUnused(t *testing.T) {
	p := NewPlane(nil, NewRegistry())
	for _, line := range p.Summary() {
		if strings.Contains(line, "tenant ") {
			t.Errorf("unexpected tenant line in single-workload summary: %q", line)
		}
	}
}

func TestServeExposesPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("asynctp_test_up", "help").Inc()
	addr, stop, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for path, want := range map[string]string{
		"/metrics":                       "asynctp_test_up",
		"/debug/pprof/cmdline":           "obs.test", // argv[0] of the test binary
		"/debug/pprof/symbol":            "num_symbols",
		"/debug/pprof/profile?seconds=1": "", // the shortest profile; it must answer, not 404
	} {
		body, status := httpGet(t, "http://"+addr+path)
		if status == 404 {
			t.Errorf("GET %s: 404 — handler not on the mux", path)
			continue
		}
		if want != "" && !strings.Contains(body, want) {
			t.Errorf("GET %s: body %q missing %q", path, truncate(body, 120), want)
		}
	}
}
