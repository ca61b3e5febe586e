package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/obs"
)

func TestHealthzBuildIdentity(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, "")
	code, body := get(t, srv, "/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d: %s", code, body)
	}
	var h HealthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Version == "" || h.Commit == "" {
		t.Errorf("healthz missing build identity: %+v", h)
	}
	if !strings.HasPrefix(h.GoVersion, "go") {
		t.Errorf("go_version = %q, want a runtime.Version() string", h.GoVersion)
	}
	if h.Goroutines <= 0 || h.HeapAlloc == 0 {
		t.Errorf("runtime vitals not populated: goroutines=%d heap=%d", h.Goroutines, h.HeapAlloc)
	}
}

func TestRequestIDAssignedAndEchoed(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, "")

	// No inbound ID: the server assigns one and echoes it.
	req := httptest.NewRequest("GET", "/v1/healthz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if id := rec.Header().Get(obs.RequestIDHeader); id == "" {
		t.Error("no X-Request-Id assigned to a bare request")
	}

	// Inbound ID: propagated, not replaced.
	req = httptest.NewRequest("GET", "/v1/healthz", nil)
	req.Header.Set(obs.RequestIDHeader, "caller-chosen")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if id := rec.Header().Get(obs.RequestIDHeader); id != "caller-chosen" {
		t.Errorf("X-Request-Id = %q, want the inbound ID echoed", id)
	}
}

func TestTraceEndpointReconstructsSpans(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, t.TempDir())

	for i := 0; i < 2; i++ {
		req := httptest.NewRequest("GET", "/v1/healthz", nil)
		req.Header.Set(obs.RequestIDHeader, "trace-me")
		srv.ServeHTTP(httptest.NewRecorder(), req)
	}
	unit, err := json.Marshal(core.StudyUnit{ID: 7, Random: &core.SessionSpec{
		Samples:  2,
		Sampling: monitor.SampleSpec{Snapshots: 2, GapCycles: 2_000},
		Seed:     9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/run/session", strings.NewReader(string(unit)))
	req.Header.Set(obs.RequestIDHeader, "trace-me")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("run/session = %d: %s", rec.Code, rec.Body.String())
	}

	code, body := get(t, srv, "/v1/trace/trace-me")
	if code != http.StatusOK {
		t.Fatalf("trace = %d: %s", code, body)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != "trace-me" || len(tr.Spans) != 3 {
		t.Fatalf("trace = %+v, want 3 spans under trace-me", tr)
	}
	var unitSpan *obs.Span
	for i := range tr.Spans {
		if tr.Spans[i].Name == "run_session" {
			unitSpan = &tr.Spans[i]
		} else if tr.Spans[i].Name != "healthz" {
			t.Errorf("unexpected span %+v", tr.Spans[i])
		}
		if tr.Spans[i].Outcome != "ok" {
			t.Errorf("span %s outcome = %q, want ok", tr.Spans[i].Name, tr.Spans[i].Outcome)
		}
	}
	if unitSpan == nil || len(unitSpan.Units) != 1 || unitSpan.Units[0] != 7 {
		t.Errorf("run_session span = %+v, want unit ID 7 recorded", unitSpan)
	}

	if code, _ := get(t, srv, "/v1/trace/never-seen"); code != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", code)
	}
}

// TestBareRequestsNotTraced pins the tracing opt-in: a request
// without an inbound X-Request-Id gets an assigned ID echoed for log
// correlation but records no span — uncorrelated traffic must not
// evict campaign traces from the bounded store.
func TestBareRequestsNotTraced(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, "")
	req := httptest.NewRequest("GET", "/v1/healthz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	id := rec.Header().Get(obs.RequestIDHeader)
	if id == "" {
		t.Fatal("no X-Request-Id assigned")
	}
	if code, _ := get(t, srv, "/v1/trace/"+id); code != http.StatusNotFound {
		t.Errorf("assigned-ID trace = %d, want 404: bare requests must not occupy the trace store", code)
	}
}

// parseProm decodes Prometheus text exposition into sample name{labels}
// -> value, skipping comment lines.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestMetricsPrometheusExposition(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, t.TempDir())
	for i := 0; i < 3; i++ {
		get(t, srv, "/v1/healthz")
	}

	req := httptest.NewRequest("GET", "/v1/metrics?format=prometheus", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	text := rec.Body.String()
	samples := parseProm(t, text)

	// The healthz latency histogram: cumulative buckets ending at
	// +Inf, consistent with _count, plus a positive _sum.
	prefix := `fx8d_request_duration_seconds_bucket{endpoint="healthz",le="`
	var prev float64
	var buckets int
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		buckets++
		v := samples[line[:strings.LastIndexByte(line, ' ')]]
		if v < prev {
			t.Errorf("bucket counts not monotone at %q: %v < %v", line, v, prev)
		}
		prev = v
	}
	if buckets == 0 {
		t.Fatalf("no healthz buckets in exposition:\n%s", text)
	}
	count := samples[`fx8d_request_duration_seconds_count{endpoint="healthz"}`]
	if count != 3 {
		t.Errorf("healthz _count = %v, want 3", count)
	}
	if prev != count {
		t.Errorf("+Inf bucket = %v, want _count %v", prev, count)
	}
	if samples[`fx8d_request_duration_seconds_sum{endpoint="healthz"}`] <= 0 {
		t.Errorf("healthz _sum not positive")
	}

	// Engine, cache and store families are present.
	for _, name := range []string{
		"fx8d_engine_inflight_units",
		`fx8d_cache_outcomes_total{tier="memory"}`,
		"fx8d_store_hits_total",
		"fx8d_inflight_requests",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("exposition missing %s", name)
		}
	}

	// One HELP and one TYPE line per family.
	for _, fam := range []string{"fx8d_request_duration_seconds", "fx8d_request_errors_total"} {
		if n := strings.Count(text, "# HELP "+fam+" "); n != 1 {
			t.Errorf("%d HELP lines for %s, want 1", n, fam)
		}
		if n := strings.Count(text, "# TYPE "+fam+" "); n != 1 {
			t.Errorf("%d TYPE lines for %s, want 1", n, fam)
		}
	}
}

// TestEngineMetricsCountJobUnits: a job the daemon's coordinator
// computes in-process runs on the engine's pool, so
// fx8d_engine_units_completed_total rises by the job's unit count.
// Not parallel: the engine's counters are process-wide, and parallel
// tests start only after every sequential one has finished.
func TestEngineMetricsCountJobUnits(t *testing.T) {
	srv := newTestServer(t, "")
	completed := func() float64 {
		t.Helper()
		code, body := get(t, srv, "/v1/metrics?format=prometheus")
		if code != http.StatusOK {
			t.Fatalf("metrics = %d: %s", code, body)
		}
		v, ok := parseProm(t, string(body))["fx8d_engine_units_completed_total"]
		if !ok {
			t.Fatal("exposition missing fx8d_engine_units_completed_total")
		}
		return v
	}
	before := completed()
	spec := cheapJobSpec(4)
	code, _, body := postJSON(t, srv, coord.JobsPath, spec)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var st coord.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if final := awaitJobDone(t, srv, st.ID); final.State != coord.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if got := completed() - before; got != float64(len(spec.Units)) {
		t.Errorf("fx8d_engine_units_completed_total rose by %v, want the job's %d units", got, len(spec.Units))
	}
}

func TestMetricsContentNegotiation(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, "")
	get(t, srv, "/v1/healthz")

	cases := []struct {
		accept, query string
		wantProm      bool
	}{
		{"", "", false},                             // default stays JSON
		{"*/*", "", false},                          // curl's default stays JSON
		{"text/plain", "", true},                    // scraper Accept
		{"application/openmetrics-text", "", true},  // modern scraper Accept
		{"text/html", "?format=prometheus", true},   // explicit query wins
		{"text/plain;q=0.9", "?format=json", false}, // explicit query wins
	}
	for _, c := range cases {
		req := httptest.NewRequest("GET", "/v1/metrics"+c.query, nil)
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		isProm := strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain")
		if isProm != c.wantProm {
			t.Errorf("Accept=%q query=%q: prometheus=%v, want %v", c.accept, c.query, isProm, c.wantProm)
		}
	}
}

// TestMetricsScrapeVsRecordRace drives concurrent recording (healthz
// requests) against concurrent scrapes of both metric formats; the
// race detector (CI runs this package with -race) is the assertion.
func TestMetricsScrapeVsRecordRace(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				req := httptest.NewRequest("GET", "/v1/healthz", nil)
				req.Header.Set(obs.RequestIDHeader, fmt.Sprintf("race-%d", g))
				srv.ServeHTTP(httptest.NewRecorder(), req)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				get(t, srv, "/v1/metrics")
				get(t, srv, "/v1/metrics?format=prometheus")
				get(t, srv, "/v1/trace/race-0")
			}
		}()
	}
	wg.Wait()

	code, body := get(t, srv, "/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var m MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	for _, ep := range m.Endpoints {
		if ep.Endpoint == "healthz" && ep.Requests < 200 {
			t.Errorf("healthz requests = %d, want >= 200", ep.Requests)
		}
	}
}

// TestRetryMetricsWireShape pins the coordinator's retry outcomes on
// the wire: the five fx8d_retry_* Prometheus series and the retry
// block of the /v1/metrics JSON, field names included, agree with
// each other and with the dispatch the job drove.  The one backend
// fails every unit, so with MaxFailures 2 its worker tries twice,
// backs off once under the default schedule (25–50ms before the
// second attempt) and gives up; the local drain finishes the job.
func TestRetryMetricsWireShape(t *testing.T) {
	t.Parallel()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"code":"internal","message":"backend on fire"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	reg := coord.NewRegistry()
	reg.Register(bad.URL, time.Hour)
	c := coord.New(coord.Config{Registry: reg, PerBackend: 1, MaxFailures: 2})
	srv := New(Config{Cache: core.NewStudyCache(), Coordinator: c})
	t.Cleanup(srv.Close)
	t.Cleanup(c.Close)

	code, _, body := postJSON(t, srv, coord.JobsPath, cheapJobSpec(1))
	if code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var st coord.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if final := awaitJobDone(t, srv, st.ID); final.State != coord.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}

	code, body = get(t, srv, "/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d: %s", code, body)
	}
	var resp struct {
		Retry map[string]float64 `json:"retry"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	code, prom := get(t, srv, "/v1/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("prometheus metrics = %d: %s", code, prom)
	}
	samples := parseProm(t, string(prom))

	rows := []struct {
		field, series string
		want          float64 // < 0: checked by range below
	}{
		{"attempts", "fx8d_retry_attempts_total", 2},
		{"retries", "fx8d_retry_retries_total", 1},
		{"give_ups", "fx8d_retry_giveups_total", 1},
		{"backoff_waits", "fx8d_retry_backoff_waits_total", 1},
		{"backoff_seconds", "fx8d_retry_backoff_seconds_total", -1},
	}
	if len(resp.Retry) != len(rows) {
		t.Errorf("retry block = %v, want exactly %d fields", resp.Retry, len(rows))
	}
	for _, r := range rows {
		js, ok := resp.Retry[r.field]
		if !ok {
			t.Errorf("retry block missing %q: %v", r.field, resp.Retry)
			continue
		}
		pv, ok := samples[r.series]
		if !ok {
			t.Errorf("exposition missing %s", r.series)
			continue
		}
		if pv != js {
			t.Errorf("%s = %v, but JSON %s = %v", r.series, pv, r.field, js)
		}
		if r.want >= 0 && js != r.want {
			t.Errorf("%s = %v, want %v", r.field, js, r.want)
		}
	}
	if s := resp.Retry["backoff_seconds"]; s < 0.025 || s > 0.050 {
		t.Errorf("backoff_seconds = %v, want one default first wait in [0.025, 0.050]", s)
	}
}
