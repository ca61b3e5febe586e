package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/store"
)

// quickish is a scaled-down "quick" campaign used where the test only
// needs cache behavior, not paper-fidelity numbers.  Tests that hit
// /v1/study?scale=quick use the real quick scale.
func newTestServer(t *testing.T, dir string) *Server {
	t.Helper()
	cache := core.NewStudyCache()
	if dir != "" {
		s, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache.SetStore(s)
	}
	srv := New(Config{Cache: cache, Workers: 0, MaxInFlight: 8})
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, srv *Server, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func TestHealthz(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, t.TempDir())
	code, body := get(t, srv, "/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d: %s", code, body)
	}
	var h HealthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || !h.Store || h.MaxInFlight != 8 {
		t.Errorf("healthz body = %+v", h)
	}
}

// TestStudyComputeOnceThenDiskOnce is the acceptance-criteria
// integration test: two sequential requests for the same quick-scale
// study, served by two daemon instances sharing one store directory,
// hit compute exactly once then disk exactly once, and the response
// JSON is byte-identical.
func TestStudyComputeOnceThenDiskOnce(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()

	srv1 := newTestServer(t, dir)
	code, body1 := get(t, srv1, "/v1/study?scale=quick")
	if code != http.StatusOK {
		t.Fatalf("first study request = %d: %s", code, body1)
	}
	if st := srv1.cache.Stats(); st.Computes != 1 || st.DiskHits != 0 {
		t.Fatalf("first request stats = %+v, want exactly one compute", st)
	}

	// A second daemon over the same store: cold memory, warm disk.
	srv2 := newTestServer(t, dir)
	code, body2 := get(t, srv2, "/v1/study?scale=quick")
	if code != http.StatusOK {
		t.Fatalf("second study request = %d: %s", code, body2)
	}
	if st := srv2.cache.Stats(); st.DiskHits != 1 || st.Computes != 0 {
		t.Fatalf("second request stats = %+v, want exactly one disk hit and no compute", st)
	}
	if string(body1) != string(body2) {
		t.Errorf("disk-served study JSON differs from computed JSON:\n%s\nvs\n%s", body1, body2)
	}

	var resp StudyResponse
	if err := json.Unmarshal(body2, &resp); err != nil {
		t.Fatal(err)
	}
	quick := core.QuickScale()
	if resp.Sessions.Random != quick.RandomSessions || resp.Config != quick {
		t.Errorf("study response = %+v, want quick-scale campaign", resp)
	}
}

// TestConcurrentStudyRequestsRunOneCampaign is the second acceptance
// proof: N concurrent identical requests trigger exactly one campaign
// run, with every response byte-identical.
func TestConcurrentStudyRequestsRunOneCampaign(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, t.TempDir())
	const n = 12
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := get(t, srv, "/v1/study?scale=quick")
			if code != http.StatusOK {
				t.Errorf("request %d = %d", i, code)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if st := srv.cache.Stats(); st.Computes != 1 {
		t.Errorf("%d concurrent requests ran %d campaigns, want exactly 1", n, st.Computes)
	}
	for i := 1; i < n; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
}

func TestTablesAndFiguresEndpoints(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("campaign-heavy rendering check in -short mode (covered without -race)")
	}
	srv := newTestServer(t, "")
	for _, tc := range []struct {
		path, want string
	}{
		{"/v1/artefacts/table/1?scale=quick", "TABLE 1"},
		{"/v1/artefacts/table/a1?scale=quick", "Table A.1"},
		{"/v1/artefacts/figure/6?scale=quick", "Figure 6"},
		{"/v1/artefacts/figure/B.3?scale=quick", "BUS BUSY"},
	} {
		code, body := get(t, srv, tc.path)
		if code != http.StatusOK {
			t.Errorf("%s = %d: %s", tc.path, code, body)
			continue
		}
		var a ArtefactResponse
		if err := json.Unmarshal(body, &a); err != nil {
			t.Errorf("%s: %v", tc.path, err)
			continue
		}
		if !strings.Contains(a.Text, tc.want) {
			t.Errorf("%s text missing %q", tc.path, tc.want)
		}
	}
	// All artefacts for one scale share one campaign run.
	if st := srv.cache.Stats(); st.Computes != 1 {
		t.Errorf("artefact endpoints ran %d campaigns, want 1", st.Computes)
	}

	if code, body := get(t, srv, "/v1/artefacts/table/9?scale=quick"); code != http.StatusNotFound {
		t.Errorf("unknown table = %d: %s", code, body)
	}
	if code, body := get(t, srv, "/v1/artefacts/figure/99?scale=quick"); code != http.StatusNotFound {
		t.Errorf("unknown figure = %d: %s", code, body)
	}
}

func TestBadScaleReportsValidScales(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, "")
	code, body := get(t, srv, "/v1/study?scale=bogus")
	if code != http.StatusBadRequest {
		t.Fatalf("bad scale = %d", code)
	}
	for _, name := range core.ScaleNames() {
		if !strings.Contains(string(body), name) {
			t.Errorf("error %s does not enumerate scale %q", body, name)
		}
	}
}

func TestSweepEndpoint(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, t.TempDir())
	code, body := get(t, srv, "/v1/sweep?param=ce&samples=1&seed=17")
	if code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", code, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 4 || resp.Points[0].Label != "CEs=1" {
		t.Errorf("sweep points = %+v", resp.Points)
	}
	// Same request again: served from a cache tier.
	_, body2 := get(t, srv, "/v1/sweep?param=ce&samples=1&seed=17")
	var resp2 SweepResponse
	json.Unmarshal(body2, &resp2)
	if !resp2.Cached {
		t.Error("repeated sweep not served from cache")
	}
	if code, _ := get(t, srv, "/v1/sweep?param=bogus"); code != http.StatusBadRequest {
		t.Errorf("unknown sweep param = %d", code)
	}
	if code, _ := get(t, srv, "/v1/sweep?param=ce&samples=zero"); code != http.StatusBadRequest {
		t.Errorf("bad samples = %d", code)
	}
}

func TestMetricsAndPurge(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("campaign-heavy metrics check in -short mode (covered without -race)")
	}
	srv := newTestServer(t, t.TempDir())
	get(t, srv, "/v1/study?scale=quick")
	get(t, srv, "/v1/study?scale=quick")
	code, body := get(t, srv, "/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var m MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	var study *EndpointMetrics
	for i := range m.Endpoints {
		if m.Endpoints[i].Endpoint == "study" {
			study = &m.Endpoints[i]
		}
	}
	if study == nil || study.Requests != 2 || study.Errors != 0 {
		t.Errorf("study metrics = %+v", study)
	}
	if m.Cache.Computes != 1 || m.Cache.MemoryHits != 1 {
		t.Errorf("cache stats = %+v, want one compute and one memory hit", m.Cache)
	}
	if m.Store == nil || m.Store.Writes != 1 {
		t.Errorf("store stats = %+v, want one write", m.Store)
	}

	// Purge drops both tiers; the next request recomputes.
	req := httptest.NewRequest("POST", "/v1/purge", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("purge = %d: %s", rec.Code, rec.Body)
	}
	get(t, srv, "/v1/study?scale=quick")
	if st := srv.cache.Stats(); st.Computes != 2 {
		t.Errorf("Computes after purge = %d, want 2", st.Computes)
	}
}

func post(t *testing.T, srv *Server, path, body string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestRunSessionEndpoint exercises the serving side of fleet
// execution: one session unit in, the completed session out, with the
// unit result cached in the store for re-routed duplicates.
func TestRunSessionEndpoint(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, t.TempDir())
	unit := core.StudyUnit{ID: 1, Random: &core.SessionSpec{
		Samples:  2,
		Sampling: monitor.SampleSpec{Snapshots: 2, GapCycles: 2_000},
		Seed:     7,
	}}
	body, err := json.Marshal(unit)
	if err != nil {
		t.Fatal(err)
	}

	code, resp1 := post(t, srv, "/v1/run/session", string(body))
	if code != http.StatusOK {
		t.Fatalf("run/session = %d: %s", code, resp1)
	}
	var res core.StudyUnitResult
	if err := json.Unmarshal(resp1, &res); err != nil {
		t.Fatal(err)
	}
	if res.Random == nil || res.Triggered != nil || len(res.Random.Samples) != 2 {
		t.Fatalf("unit result = %+v, want a 2-sample random session", res)
	}
	want, err := core.RunStudyUnit(unit)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	if string(resp1) != string(wantJSON)+"\n" {
		t.Error("served unit result differs from local execution")
	}

	// The same unit again is served from the store, not recomputed.
	writes := srv.cache.Store().Stats().Writes
	code, resp2 := post(t, srv, "/v1/run/session", string(body))
	if code != http.StatusOK {
		t.Fatalf("second run/session = %d", code)
	}
	if string(resp2) != string(resp1) {
		t.Error("cached unit result differs from computed result")
	}
	st := srv.cache.Store().Stats()
	if st.Writes != writes || st.Hits == 0 {
		t.Errorf("store stats after duplicate unit = %+v, want a hit and no new write", st)
	}

	// Defective units are rejected before any compute.
	if code, _ := post(t, srv, "/v1/run/session", `{"id":3}`); code != http.StatusBadRequest {
		t.Errorf("spec-less unit = %d, want 400", code)
	}
	if code, _ := post(t, srv, "/v1/run/session", `{"id":`); code != http.StatusBadRequest {
		t.Errorf("malformed unit = %d, want 400", code)
	}
}

func TestRunSweepEndpoint(t *testing.T) {
	t.Parallel()
	srv := newTestServer(t, t.TempDir())
	code, body := post(t, srv, "/v1/run/sweep", `{"kind":"ce","value":2,"seed":17,"samples":1}`)
	if code != http.StatusOK {
		t.Fatalf("run/sweep = %d: %s", code, body)
	}
	var pt experiments.SweepPoint
	if err := json.Unmarshal(body, &pt); err != nil {
		t.Fatal(err)
	}
	if pt.Label != "CEs=2" {
		t.Errorf("sweep point = %+v", pt)
	}
	if code, _ := post(t, srv, "/v1/run/sweep", `{"kind":"bogus","value":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown sweep kind = %d, want 400", code)
	}
	// Out-of-range values from the network are a 400, not a panic.
	for _, body := range []string{
		`{"kind":"ce","value":9,"seed":1,"samples":1}`,
		`{"kind":"ce","value":-1,"seed":1,"samples":1}`,
		`{"kind":"sched","value":10000,"seed":1,"samples":0}`,
	} {
		if code, resp := post(t, srv, "/v1/run/sweep", body); code != http.StatusBadRequest {
			t.Errorf("%s = %d (%s), want 400", body, code, resp)
		}
	}
}

// TestCLIAndServiceShareOneStore proves the -cache contract: a
// campaign computed through core.StudyAt-style CLI access is restored
// by a daemon pointed at the same directory, without recomputing.
func TestCLIAndServiceShareOneStore(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := core.StudyConfig{
		RandomSessions:     1,
		HighConcSessions:   1,
		TransitionSessions: 1,
		SamplesPerSession:  2,
		Sampling:           monitor.SampleSpec{Snapshots: 2, GapCycles: 2_000},
		TriggeredSamples:   1,
		TriggeredBuffers:   1,
		TriggerBudget:      50_000,
		BaseSeed:           7,
	}

	// "CLI" side: a private cache writing to dir.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cliCache := core.NewStudyCache()
	cliCache.SetStore(st)
	cliCache.Get(cfg, 0)

	// "Daemon" side: fresh memory over the same directory.
	srv := newTestServer(t, dir)
	srv.cache.Get(cfg, 0)
	if stats := srv.cache.Stats(); stats.DiskHits != 1 || stats.Computes != 0 {
		t.Errorf("daemon stats = %+v, want the CLI-written campaign restored from disk", stats)
	}
}

// TestAdmitQueueBoundPastInt32 pins the 386 admission fix: the queue
// bound comparison happens in int64.  The previous int(n) narrowing
// wraps negative on 32-bit platforms once the waiting counter passes
// 2^31, silently bypassing MaxQueue; with the fix, a request arriving
// past the bound is shed regardless of how large the counter is.
func TestAdmitQueueBoundPastInt32(t *testing.T) {
	t.Parallel()
	srv := New(Config{Cache: core.NewStudyCache(), MaxInFlight: 1, MaxQueue: 2})

	// Occupy the only admission slot so admit must consult the queue.
	srv.sem <- struct{}{}

	// Wind the waiting counter past 2^31.  int(n) would be negative
	// here on GOARCH=386 and compare below MaxQueue.
	const wound = int64(1)<<31 + 7
	srv.waiting.Store(wound)

	req := httptest.NewRequest("GET", "/v1/study", nil)
	rec := httptest.NewRecorder()
	ok, why := srv.admit(rec, req, "study")
	if ok || why != "shed" {
		t.Fatalf("admit with waiting=%d: ok=%v why=%q, want a shed", wound, ok, why)
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("shed status = %d, want %d", rec.Code, http.StatusTooManyRequests)
	}
	if got := srv.waiting.Load(); got != wound {
		t.Errorf("waiting counter = %d after shed, want %d (shed must undo its increment)", got, wound)
	}
}
