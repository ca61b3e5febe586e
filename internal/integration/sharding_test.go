package integration

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cli"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/service"
)

// Fleet-execution acceptance tests: sweeps and campaigns run the way
// the cmd tools' -backends flag runs them — a temporary coordinator
// job over a fixed fleet of in-process fx8d backends — must be
// byte-identical to local execution, also with a backend killed
// mid-run (its work is stolen or drained locally, never lost).

// newBackend boots one in-process fx8d node.
func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	return newCountingBackend(t, nil)
}

// newCountingBackend boots an fx8d node that counts the unit
// requests it serves (nil counts nothing).
func newCountingBackend(t *testing.T, served *atomic.Int64) *httptest.Server {
	t.Helper()
	inner := service.New(service.Config{Workers: 1, MaxInFlight: 4})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served != nil && strings.HasPrefix(r.URL.Path, "/v1/run/") {
			served.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// newKillableBackend boots an fx8d node that dies after serving
// afterUnits requests: later requests abort at the connection level,
// exactly what a killed process looks like to the client.
func newKillableBackend(t *testing.T, afterUnits int64) *httptest.Server {
	t.Helper()
	var admitted atomic.Int64
	inner := service.New(service.Config{Workers: 1, MaxInFlight: 4})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Count admissions, not completions: concurrent requests
		// beyond the budget abort even while the first is still
		// being served — the node dies with work in flight.
		if admitted.Add(1) > afterUnits {
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// fleetJob runs spec as the -backends path does: a temporary,
// memory-only coordinator job over the given fixed fleet.
func fleetJob(t *testing.T, spec coord.JobSpec, backends ...*httptest.Server) *coord.JobResult {
	t.Helper()
	addrs := make([]string, len(backends))
	for i, b := range backends {
		addrs[i] = b.URL
	}
	res, err := cli.FleetJob(context.Background(), addrs, nil, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestShardedSchedulerSweepByteIdentical(t *testing.T) {
	t.Parallel()
	cfg := experiments.SweepConfig{
		Kind:    "sched",
		Values:  []int{10_000, 30_000, 100_000, 300_000},
		Seed:    5,
		Samples: 2,
	}
	local, err := experiments.RunSweepConfig(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, _ := json.Marshal(local)

	var servedA, servedB atomic.Int64
	a, b := newCountingBackend(t, &servedA), newCountingBackend(t, &servedB)
	res := fleetJob(t, coord.JobSpec{Kind: "sweep", Sweep: &cfg}, a, b)
	shardedJSON, _ := json.Marshal(res.Points)
	if string(shardedJSON) != string(localJSON) {
		t.Errorf("sharded sweep differs from local:\n%s\nvs\n%s", shardedJSON, localJSON)
	}
	// Two healthy backends: every point ran on the fleet, none locally.
	if total := servedA.Load() + servedB.Load(); total != int64(len(cfg.Values)) {
		t.Errorf("backends served %d units, want %d", total, len(cfg.Values))
	}
}

func TestShardedQuickCampaignByteIdentical(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-campaign sharding proof in -short mode")
	}
	cfg := core.QuickScale()
	local := core.RunStudy(cfg)
	localJSON, err := core.EncodeStudy(local)
	if err != nil {
		t.Fatal(err)
	}
	spec := coord.JobSpec{Kind: "study", Study: &cfg}

	// Healthy fleet: every session served remotely, reassembled
	// byte-identically.
	t.Run("healthy fleet", func(t *testing.T) {
		t.Parallel()
		var servedA, servedB atomic.Int64
		a, b := newCountingBackend(t, &servedA), newCountingBackend(t, &servedB)
		res := fleetJob(t, spec, a, b)
		shardedJSON, err := core.EncodeStudy(res.Study)
		if err != nil {
			t.Fatal(err)
		}
		if string(shardedJSON) != string(localJSON) {
			t.Error("sharded campaign differs from local campaign")
		}
		if servedA.Load() == 0 || servedB.Load() == 0 {
			t.Errorf("campaign was not sharded: backends served %d and %d units",
				servedA.Load(), servedB.Load())
		}
		if total := servedA.Load() + servedB.Load(); total != int64(cfg.TotalSessions()) {
			t.Errorf("backends served %d units, want all %d", total, cfg.TotalSessions())
		}
	})

	// One backend killed mid-run: its remaining units are stolen by
	// the survivor (or drained locally), and the reassembled campaign
	// is still byte-identical.
	t.Run("backend killed mid-run", func(t *testing.T) {
		t.Parallel()
		res := fleetJob(t, spec, newKillableBackend(t, 1), newBackend(t))
		shardedJSON, err := core.EncodeStudy(res.Study)
		if err != nil {
			t.Fatal(err)
		}
		if string(shardedJSON) != string(localJSON) {
			t.Error("campaign with a killed backend differs from local campaign")
		}
	})
}

// TestShardedSweepSurvivesKilledBackend is the sweep-side half of the
// kill-mid-run proof.
func TestShardedSweepSurvivesKilledBackend(t *testing.T) {
	t.Parallel()
	cfg := experiments.SweepConfig{
		Kind:    "ce",
		Values:  []int{1, 2, 4, 8},
		Seed:    5,
		Samples: 2,
	}
	local, err := experiments.RunSweepConfig(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, _ := json.Marshal(local)

	res := fleetJob(t, coord.JobSpec{Kind: "sweep", Sweep: &cfg}, newKillableBackend(t, 1), newBackend(t))
	shardedJSON, _ := json.Marshal(res.Points)
	if string(shardedJSON) != string(localJSON) {
		t.Errorf("sweep with a killed backend differs from local:\n%s\nvs\n%s", shardedJSON, localJSON)
	}
}

// TestShardedMeasureSessionsMatchLocal drives the cmd/measure-shaped
// path: session units built outside a campaign, run through a fleet,
// equal to in-process execution.
func TestShardedMeasureSessionsMatchLocal(t *testing.T) {
	t.Parallel()
	units := make([]core.StudyUnit, 3)
	for i := range units {
		spec := core.DefaultSessionSpec(uint64(40 + i))
		spec.Samples = 2
		units[i] = core.StudyUnit{ID: i + 1, Random: &spec}
	}
	localRes, err := engine.RunAll(context.Background(), 0, units, core.LocalStudyRunner(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := fleetJob(t, coord.JobSpec{Kind: "sessions", Units: units}, newBackend(t))
	localJSON, _ := json.Marshal(localRes)
	remoteJSON, _ := json.Marshal(res.Sessions)
	if string(localJSON) != string(remoteJSON) {
		t.Error("remote measure sessions differ from local sessions")
	}
}
