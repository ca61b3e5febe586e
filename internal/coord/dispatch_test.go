package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/remote"
)

// unitBackend serves real session and sweep units, the way fx8d's
// POST /v1/run/* endpoints do, counting the units it served.
func unitBackend(t *testing.T, served *atomic.Int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(unitHandler(served))
	t.Cleanup(srv.Close)
	return srv
}

func unitHandler(served *atomic.Int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var res any
		var err error
		switch r.URL.Path {
		case remote.SessionPath:
			var u core.StudyUnit
			if err = json.NewDecoder(r.Body).Decode(&u); err == nil {
				res, err = core.RunStudyUnit(u)
			}
		case remote.SweepPath:
			var u experiments.SweepUnit
			if err = json.NewDecoder(r.Body).Decode(&u); err == nil {
				res, err = experiments.RunSweepUnit(u)
			}
		default:
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if served != nil {
			served.Add(1)
		}
		json.NewEncoder(w).Encode(res)
	}
}

// sheddingBackend answers 429 + Retry-After to every request — fx8d's
// admission-control shed — counting the hits.
func sheddingBackend(t *testing.T, retryAfter string, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, `{"code":"shed","message":"server at capacity"}`, http.StatusTooManyRequests)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// fleet builds a registry over the given servers.
func fleet(srvs ...*httptest.Server) *coord.Registry {
	reg := coord.NewRegistry()
	for _, s := range srvs {
		reg.Register(s.URL, time.Hour)
	}
	return reg
}

// sessionsJSON runs units locally, the baseline every job reproduces.
func sessionsJSON(t *testing.T, units []core.StudyUnit) []byte {
	t.Helper()
	out := make([]core.StudyUnitResult, len(units))
	for i, u := range units {
		var err error
		if out[i], err = core.RunStudyUnit(u); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func runSessions(t *testing.T, cfg coord.Config, units []core.StudyUnit) []byte {
	t.Helper()
	res, err := coord.Run(context.Background(), cfg, coord.JobSpec{Kind: "sessions", Units: units})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res.Sessions)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDispatchShardsAcrossBackends: a job over two healthy backends
// runs every unit on the fleet, spread over both, and every unit POST
// carries the job ID as its X-Request-Id.
func TestDispatchShardsAcrossBackends(t *testing.T) {
	t.Parallel()
	units := sessionUnits(8)
	spec := coord.JobSpec{Kind: "sessions", Units: units}
	id, err := coord.JobID(spec)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	traced := map[string]int{}
	var servedA, servedB atomic.Int64
	traceWrap := func(h http.Handler) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			traced[r.Header.Get(obs.RequestIDHeader)]++
			mu.Unlock()
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	a, b := traceWrap(unitHandler(&servedA)), traceWrap(unitHandler(&servedB))

	got := runSessions(t, coord.Config{Registry: fleet(a, b)}, units)
	if !bytes.Equal(got, sessionsJSON(t, units)) {
		t.Error("fleet sessions differ from local sessions")
	}
	if servedA.Load() == 0 || servedB.Load() == 0 {
		t.Errorf("work not sharded: backend A served %d, B served %d", servedA.Load(), servedB.Load())
	}
	if n := servedA.Load() + servedB.Load(); n != int64(len(units)) {
		t.Errorf("backends served %d units, want all %d", n, len(units))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(traced) != 1 || traced[id] != len(units) {
		t.Errorf("X-Request-Id per POST = %v, want all %d tagged %s", traced, len(units), id)
	}
}

// TestDispatchReroutesAroundFailingBackend: a backend that fails every
// unit is abandoned after MaxFailures, and its share is stolen by the
// healthy one.
func TestDispatchReroutesAroundFailingBackend(t *testing.T) {
	t.Parallel()
	var badHits atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		badHits.Add(1)
		http.Error(w, "backend on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	var servedGood atomic.Int64
	good := unitBackend(t, &servedGood)

	units := sessionUnits(8)
	got := runSessions(t, coord.Config{Registry: fleet(bad, good), PerBackend: 1, MaxFailures: 2}, units)
	if !bytes.Equal(got, sessionsJSON(t, units)) {
		t.Error("sessions differ from local sessions")
	}
	// The good backend may steal everything while the failing one's
	// worker backs off, so it sees at most MaxFailures requests.
	if n := badHits.Load(); n < 1 || n > 2 {
		t.Errorf("failing backend saw %d requests, want 1..MaxFailures=2", n)
	}
	if n := servedGood.Load(); n != int64(len(units)) {
		t.Errorf("good backend served %d units, want all %d", n, len(units))
	}
}

// TestDispatchDrainsLocallyWhenAllBackendsDead: with every backend
// refusing connections the job still finishes, computed in-process.
func TestDispatchDrainsLocallyWhenAllBackendsDead(t *testing.T) {
	t.Parallel()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // every connection is refused

	units := sessionUnits(4)
	c := coord.New(coord.Config{Registry: fleet(dead), MaxFailures: 1})
	defer c.Close()
	st, _, err := c.Submit(coord.JobSpec{Kind: "sessions", Units: units})
	if err != nil {
		t.Fatal(err)
	}
	if final := await(t, c, st.ID); final.State != coord.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	res, err := c.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res.Sessions)
	if !bytes.Equal(got, sessionsJSON(t, units)) {
		t.Error("locally drained sessions differ from local sessions")
	}
	if rs := c.RetryStats(); rs.GiveUps != coord.DefaultPerBackend {
		t.Errorf("give-ups = %d, want one per dispatch worker (%d)", rs.GiveUps, coord.DefaultPerBackend)
	}
}

// TestDispatchNoBackendsComputesLocally: a job over an empty fleet
// computes every unit in-process, byte-identical to local, without a
// single dispatch attempt.
func TestDispatchNoBackendsComputesLocally(t *testing.T) {
	t.Parallel()
	units := sessionUnits(4)
	c := coord.New(coord.Config{Registry: coord.NewRegistry()})
	defer c.Close()
	st, _, err := c.Submit(coord.JobSpec{Kind: "sessions", Units: units})
	if err != nil {
		t.Fatal(err)
	}
	if final := await(t, c, st.ID); final.State != coord.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	res, err := c.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res.Sessions)
	if !bytes.Equal(got, sessionsJSON(t, units)) {
		t.Error("locally computed sessions differ from local sessions")
	}
	if n := c.Stats().UnitsComputed; n != uint64(len(units)) {
		t.Errorf("units computed = %d, want %d", n, len(units))
	}
	if rs := c.RetryStats(); rs.Attempts != 0 || rs.GiveUps != 0 {
		t.Errorf("retry stats = %+v, want no dispatch attempts", rs)
	}
}

// TestLocalComputeBooksEngineStats: a job computed in-process runs on
// the engine's pool, so every unit it computes shows in engine.Stats
// (and with it fx8d's fx8d_engine_* metrics).  Not parallel: the
// engine's counters are process-wide, and parallel tests start only
// after every sequential one has finished, so the deltas are exact.
func TestLocalComputeBooksEngineStats(t *testing.T) {
	units := sessionUnits(5)
	before := engine.Stats()
	c := coord.New(coord.Config{Registry: coord.NewRegistry(), Workers: 2})
	defer c.Close()
	st, _, err := c.Submit(coord.JobSpec{Kind: "sessions", Units: units})
	if err != nil {
		t.Fatal(err)
	}
	if final := await(t, c, st.ID); final.State != coord.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	after := engine.Stats()
	if got := after.UnitsCompleted - before.UnitsCompleted; got != uint64(len(units)) {
		t.Errorf("engine UnitsCompleted delta = %d, want the job's %d units", got, len(units))
	}
	if got := after.Pools - before.Pools; got != 1 {
		t.Errorf("engine Pools delta = %d, want 1 (one local drain)", got)
	}
	if after.BusyNs <= before.BusyNs {
		t.Errorf("engine BusyNs did not advance: %d -> %d", before.BusyNs, after.BusyNs)
	}
}

// TestJobSnapshotsMembershipAtStart: each job reads the registry when
// it starts, so a backend that joins between jobs serves the next one.
func TestJobSnapshotsMembershipAtStart(t *testing.T) {
	t.Parallel()
	var servedA, servedB atomic.Int64
	a, b := unitBackend(t, &servedA), unitBackend(t, &servedB)
	reg := fleet(a)
	c := coord.New(coord.Config{Registry: reg})
	defer c.Close()
	for i, units := range [][]core.StudyUnit{sessionUnits(2), sessionUnits(6)[2:]} {
		if i == 1 {
			reg.Register(b.URL, time.Hour)
			reg.Deregister(a.URL)
		}
		st, _, err := c.Submit(coord.JobSpec{Kind: "sessions", Units: units})
		if err != nil {
			t.Fatal(err)
		}
		if final := await(t, c, st.ID); final.State != coord.StateDone {
			t.Fatalf("job %d ended %s: %s", i, final.State, final.Error)
		}
	}
	if servedA.Load() != 2 || servedB.Load() != 4 {
		t.Errorf("served A=%d B=%d, want the first job on A (2) and the second on B (4)",
			servedA.Load(), servedB.Load())
	}
}

// TestDefectiveBackendResultsNeverReachTheUnitCache pins the
// wrong-shape guard: a backend answering 200 {} (version skew, a
// wrong service on the port) fails each unit it is given, so study,
// sweep and sessions jobs still finish byte-identical to local, and
// a later job over the same store replays only correct entries.
func TestDefectiveBackendResultsNeverReachTheUnitCache(t *testing.T) {
	t.Parallel()
	defective := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	t.Cleanup(defective.Close)

	study := smallStudy()
	sweep := experiments.SweepConfig{Kind: "ce", Values: []int{1, 2}, Seed: 3, Samples: 1}
	sessions := sessionUnits(3)
	localStudy, err := core.EncodeStudy(core.RunStudyWorkers(study, 0))
	if err != nil {
		t.Fatal(err)
	}
	localSweep, err := experiments.RunSweepConfig(sweep, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"study": localStudy, "sessions": sessionsJSON(t, sessions)}
	want["sweep"], _ = json.Marshal(localSweep)

	encode := func(res *coord.JobResult) []byte {
		var data []byte
		var err error
		switch {
		case res.Study != nil:
			data, err = core.EncodeStudy(res.Study)
		case res.Points != nil:
			data, err = json.Marshal(res.Points)
		default:
			data, err = json.Marshal(res.Sessions)
		}
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	specs := []coord.JobSpec{
		{Kind: "study", Study: &study},
		{Kind: "sweep", Sweep: &sweep},
		{Kind: "sessions", Units: sessions},
	}
	dir := t.TempDir()
	for _, reg := range []*coord.Registry{fleet(defective), nil} {
		// The second pass has no fleet and a fresh coordinator over
		// the same store: every unit replays from the cache.
		c := coord.New(coord.Config{Store: openStore(t, dir), Registry: reg, MaxFailures: 1})
		for _, spec := range specs {
			st, _, err := c.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if final := await(t, c, st.ID); final.State != coord.StateDone {
				t.Fatalf("%s job ended %s: %s", spec.Kind, final.State, final.Error)
			}
			res, err := c.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got := encode(res); !bytes.Equal(got, want[spec.Kind]) {
				t.Errorf("%s job with a defective backend differs from local:\n%.200s\nvs\n%.200s",
					spec.Kind, got, want[spec.Kind])
			}
		}
		c.Close()
		if reg == nil {
			if s := c.Stats(); s.UnitsComputed != 0 {
				t.Errorf("replay pass computed %d units, want pure replay", s.UnitsComputed)
			}
		}
	}
}

// The shed rule: a backend that sheds with 429 + Retry-After is
// overloaded, not sick.  Its dispatch worker waits out the window and
// does not count the shed toward MaxFailures, so it neither hammers
// the queue it was shed from nor gives up on the backend; the healthy
// backend steals the shedding one's share meanwhile.
func TestShedBackendStopsReceivingUnitsForRetryAfterWindow(t *testing.T) {
	t.Parallel()
	var shedHits, servedGood atomic.Int64
	shed := sheddingBackend(t, "1", &shedHits)
	good := unitBackend(t, &servedGood)

	units := sessionUnits(12)
	c := coord.New(coord.Config{Registry: fleet(shed, good), PerBackend: 1, MaxFailures: 1})
	defer c.Close()
	st, _, err := c.Submit(coord.JobSpec{Kind: "sessions", Units: units})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if final := await(t, c, st.ID); final.State != coord.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	elapsed := time.Since(start)

	// The shedding backend is hit once — the request that learned of
	// the shed — and then left alone inside its 1s window; every unit
	// still runs on the healthy one.
	if n := shedHits.Load(); n != 1 {
		t.Errorf("shedding backend received %d requests inside the Retry-After window, want 1", n)
	}
	if n := servedGood.Load(); n != int64(len(units)) {
		t.Errorf("healthy backend served %d units, want %d", n, len(units))
	}
	if rs := c.RetryStats(); rs.GiveUps != 0 {
		t.Errorf("give-ups = %d with MaxFailures 1: a shed was counted as a failure", rs.GiveUps)
	}
	// The sleeping worker is woken when the last unit completes; the
	// job does not wait out the rest of the window.
	if elapsed >= 900*time.Millisecond {
		t.Errorf("job took %v: it waited out a backoff with nothing left to retry", elapsed)
	}
}

// A fleet that is entirely shedding is servable, just not yet: the
// dispatch worker waits out the advertised window under its retry
// policy and runs the unit remotely, not on the local drain.
func TestDispatchWaitsOutShedWhenEveryBackendIsShedding(t *testing.T) {
	t.Parallel()
	var served, hits atomic.Int64
	serve := unitHandler(&served)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"code":"shed","message":"server at capacity"}`, http.StatusTooManyRequests)
			return
		}
		serve(w, r)
	}))
	t.Cleanup(srv.Close)

	c := coord.New(coord.Config{Registry: fleet(srv), PerBackend: 1})
	defer c.Close()
	start := time.Now()
	st, _, err := c.Submit(coord.JobSpec{Kind: "sessions", Units: sessionUnits(1)})
	if err != nil {
		t.Fatal(err)
	}
	if final := await(t, c, st.ID); final.State != coord.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if served.Load() != 1 {
		t.Fatalf("backend served %d units after the window, want 1", served.Load())
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Errorf("unit completed in %v, want >= ~1s (the advertised Retry-After)", elapsed)
	}
	if rs := c.RetryStats(); rs.Retries == 0 || rs.BackoffWaits == 0 || rs.GiveUps != 0 {
		t.Errorf("retry outcomes = %+v, want a booked retry and wait and no give-up", rs)
	}
}

// A backend that never stops shedding is given up on once the retry
// policy's attempt budget is spent, and the local drain finishes the
// job.
func TestDispatchGivesUpOnShedBackendAfterAttemptBudget(t *testing.T) {
	t.Parallel()
	var hits atomic.Int64
	shed := sheddingBackend(t, "0", &hits)
	units := sessionUnits(2)
	got := runSessions(t, coord.Config{Registry: fleet(shed), PerBackend: 1, MaxFailures: 1}, units)
	if !bytes.Equal(got, sessionsJSON(t, units)) {
		t.Error("locally drained sessions differ from local sessions")
	}
	if n := hits.Load(); n != 4 {
		t.Errorf("shedding backend saw %d requests, want the default attempt budget of 4", n)
	}
}
