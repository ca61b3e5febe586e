package integration

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/service"
)

// Request-tracing acceptance tests: a fleet job sends its job ID as
// the X-Request-Id of every unit POST, so each daemon's GET
// /v1/trace/{job-id} holds its share of the job and together the
// per-backend spans account for every unit.

// fetchTrace reads one daemon's spans for id; found=false on 404.
func fetchTrace(t *testing.T, baseURL, id string) (service.TraceResponse, bool) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return service.TraceResponse{}, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch = %d", resp.StatusCode)
	}
	var tr service.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr, true
}

func TestCampaignTraceCoversAllUnitsAcrossDaemons(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("quick campaign in -short mode")
	}
	a, b := newBackend(t), newBackend(t)
	cfg := core.QuickScale()
	spec := coord.JobSpec{Kind: "study", Study: &cfg}
	traceID, err := coord.JobID(spec)
	if err != nil {
		t.Fatal(err)
	}
	fleetJob(t, spec, a, b)

	daemonsWithSpans, unitsTraced := 0, 0
	for i, ts := range []string{a.URL, b.URL} {
		tr, found := fetchTrace(t, ts, traceID)
		if !found {
			continue
		}
		daemonsWithSpans++
		if tr.ID != traceID {
			t.Errorf("daemon %d: trace ID = %q, want %q", i, tr.ID, traceID)
		}
		if tr.Dropped != 0 {
			t.Errorf("daemon %d: %d spans dropped from a tiny campaign", i, tr.Dropped)
		}
		for _, sp := range tr.Spans {
			if sp.Name != "run_session" {
				t.Errorf("daemon %d: unexpected span %q in campaign trace", i, sp.Name)
			}
			if sp.Outcome != "ok" {
				t.Errorf("daemon %d: span %s outcome = %q, want ok", i, sp.Name, sp.Outcome)
			}
			if sp.Duration <= 0 {
				t.Errorf("daemon %d: span %s has non-positive duration %d", i, sp.Name, sp.Duration)
			}
			unitsTraced += len(sp.Units)
		}
	}

	// The whole fleet was exercised: both daemons hold part of the
	// trace, and the union of span unit IDs accounts for every unit.
	if daemonsWithSpans != 2 {
		t.Errorf("trace found on %d daemons, want 2", daemonsWithSpans)
	}
	if want := cfg.TotalSessions(); unitsTraced != want {
		t.Errorf("spans cover %d units, want all %d campaign units", unitsTraced, want)
	}

	// A request ID the fleet never saw stays a 404 everywhere.
	if _, found := fetchTrace(t, a.URL, "never-ran"); found {
		t.Error("unknown trace ID resolved on daemon a")
	}
}

// TestTraceIsolationBetweenCampaigns pins that two jobs stay separate
// traces on a shared daemon.
func TestTraceIsolationBetweenCampaigns(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("quick campaigns in -short mode")
	}
	ts := newBackend(t)
	for run := 0; run < 2; run++ {
		cfg := core.QuickScale()
		cfg.BaseSeed += uint64(run) // a distinct spec is a distinct job
		spec := coord.JobSpec{Kind: "study", Study: &cfg}
		id, err := coord.JobID(spec)
		if err != nil {
			t.Fatal(err)
		}
		fleetJob(t, spec, ts)
		tr, found := fetchTrace(t, ts.URL, id)
		if !found {
			t.Fatalf("job %d left no trace", run)
		}
		units := 0
		for _, sp := range tr.Spans {
			units += len(sp.Units)
		}
		if want := cfg.TotalSessions(); units != want {
			t.Errorf("job %d trace covers %d units, want %d", run, units, want)
		}
	}
}
