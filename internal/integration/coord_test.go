package integration

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
)

// Fleet-campaign acceptance tests: a campaign run as a persistent
// job, interrupted by killing its coordinator daemon mid-flight, must
// resume from the persisted ledger on a second daemon — byte-identical
// to local execution, recomputing only the units the dead daemon had
// not finished.

// newStallingBackend boots an fx8d node that serves its first
// afterUnits unit requests normally and then hangs — the view a
// coordinator has of a daemon that stops answering without closing
// connections.  The stall lifts at test cleanup so the server can
// shut down.
func newStallingBackend(t *testing.T, afterUnits int64) *httptest.Server {
	t.Helper()
	var admitted atomic.Int64
	stall := make(chan struct{})
	inner := service.New(service.Config{Workers: 1, MaxInFlight: 4})
	t.Cleanup(inner.Close)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/run/") && admitted.Add(1) > afterUnits {
			<-stall
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(stall) })
	return ts
}

// registryOf builds a coord registry holding the given backends.
func registryOf(addrs ...string) *coord.Registry {
	r := coord.NewRegistry()
	for _, a := range addrs {
		r.Register(a, time.Hour)
	}
	return r
}

// TestCampaignResumesAfterCoordinatorKilledMidRun is the tentpole
// acceptance test: a quick-scale campaign job is started on
// coordinator 1, whose only backend stalls after 3 of the 8 units
// (>25% done); coordinator 1 is then killed (Close, the in-process
// equivalent of the daemon dying).  Coordinator 2 shares the store,
// resumes the job with a healthy backend, and must (a) produce the
// byte-identical study, (b) replay exactly the units completed before
// the kill, and (c) compute exactly the rest.
func TestCampaignResumesAfterCoordinatorKilledMidRun(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-campaign resume proof in -short mode")
	}
	cfg := core.QuickScale()
	units := cfg.Units()
	total := len(units)
	local := core.RunStudy(cfg)
	localJSON, err := core.EncodeStudy(local)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const completeBeforeKill = 3 // of 8: past the 25% bar

	// Phase 1: coordinator 1 drives the job through a backend that
	// stalls after 3 units.
	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stalling := newStallingBackend(t, completeBeforeKill)
	c1 := coord.New(coord.Config{
		Store:       s1,
		Registry:    registryOf(stalling.URL),
		UnitTimeout: time.Hour, // the stall must hang, not time out into a retry
	})
	spec := coord.JobSpec{Kind: "study", Study: &cfg}
	st, created, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !created || st.Total != total {
		t.Fatalf("submit: created=%v status=%+v", created, st)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if cur, err := c1.Status(st.ID); err == nil && cur.Done >= completeBeforeKill {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached %d completed units", completeBeforeKill)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c1.Close() // kill the daemon mid-campaign

	// The persisted ledger knows exactly which units finished.
	completed := 0
	for _, u := range units {
		key, err := store.Key(coord.SessionUnitNamespace, u)
		if err != nil {
			t.Fatal(err)
		}
		if s1.Has(key) {
			completed++
		}
	}
	if completed < completeBeforeKill || completed >= total {
		t.Fatalf("completed %d of %d units before the kill, want a partial campaign >= %d",
			completed, total, completeBeforeKill)
	}

	// Phase 2: a fresh coordinator on the same store resumes the job
	// with a healthy backend.
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	healthy := newBackend(t)
	c2 := coord.New(coord.Config{Store: s2, Registry: registryOf(healthy.URL)})
	defer c2.Close()
	st2, created2, err := c2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if created2 {
		t.Error("resubmission created a new job instead of resuming the persisted one")
	}
	for {
		cur, err := c2.Status(st2.ID)
		if err != nil {
			t.Fatal(err)
		}
		if coord.TerminalState(cur.State) {
			if cur.State != coord.StateDone {
				t.Fatalf("resumed job ended %s: %s", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("resumed job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	res, err := c2.Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	resumedJSON, err := core.EncodeStudy(res.Study)
	if err != nil {
		t.Fatal(err)
	}
	if string(resumedJSON) != string(localJSON) {
		t.Error("resumed campaign differs from local campaign")
	}

	stats := c2.Stats()
	if stats.JobsResumed != 1 {
		t.Errorf("JobsResumed = %d, want 1", stats.JobsResumed)
	}
	if stats.UnitsReplayed != uint64(completed) {
		t.Errorf("resumed coordinator replayed %d units, want the %d completed before the kill",
			stats.UnitsReplayed, completed)
	}
	if stats.UnitsComputed != uint64(total-completed) {
		t.Errorf("resumed coordinator computed %d units, want only the %d the dead daemon left",
			stats.UnitsComputed, total-completed)
	}
}

// quickStudySHA256 is the pinned EncodeStudy sha256 of the quick-scale
// campaign, the same fingerprint core's TestQuickStudyEndToEnd checks
// for local execution.
const quickStudySHA256 = "0dfadcd070b9a57ce1e539f8ab97eeb4aedc8d3dedbde5a7f27f7dc3450ea761"

// TestStudyJobResultOverWireMatchesFingerprint is the wire-path
// oracle: a quick-scale study job's result, fetched through
// GET /v1/jobs/{id}/result and decoded by the client, must re-encode
// to the pinned fingerprint — from the coordinator that computed it,
// from a second coordinator over the same store that reruns the job by
// replaying (and decoding) every stored unit, and from a third that
// serves the stored study of the finished job.
func TestStudyJobResultOverWireMatchesFingerprint(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("quick-scale campaign job in -short mode")
	}
	cfg := core.QuickScale()
	spec := coord.JobSpec{Kind: "study", Study: &cfg}
	total := uint64(len(cfg.Units()))
	dir := t.TempDir()
	ctx := context.Background()

	// serve boots a coordinator daemon over the shared store, runs the
	// job through its HTTP API, checks the fetched result against the
	// fingerprint and returns the job ID and the coordinator's stats.
	serve := func(phase string) (string, coord.Stats) {
		s, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c := coord.New(coord.Config{Store: s})
		defer c.Close()
		ts := httptest.NewServer(service.New(service.Config{Coordinator: c}))
		defer ts.Close()

		st, err := coord.SubmitJob(ctx, nil, ts.URL, spec)
		if err != nil {
			t.Fatalf("%s: submit: %v", phase, err)
		}
		final, err := coord.AwaitJob(ctx, nil, ts.URL, st.ID, 10*time.Millisecond)
		if err != nil || final.State != coord.StateDone {
			t.Fatalf("%s: job ended %s (%s): %v", phase, final.State, final.Error, err)
		}
		res, err := coord.FetchResult(ctx, nil, ts.URL, st.ID)
		if err != nil {
			t.Fatalf("%s: result: %v", phase, err)
		}
		data, err := core.EncodeStudy(res.Study)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != quickStudySHA256 {
			t.Errorf("%s: study sha256 = %s, want %s", phase, got, quickStudySHA256)
		}
		return st.ID, c.Stats()
	}

	id, got := serve("computed")
	if got.UnitsComputed != total || got.UnitsReplayed != 0 {
		t.Errorf("first coordinator computed %d and replayed %d units, want %d computed", got.UnitsComputed, got.UnitsReplayed, total)
	}

	// Without its record the job restarts on the next coordinator; the
	// unit entries stay, so it replays every one of them.
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, err := store.Key("job/v1", id)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, got = serve("replayed"); got.UnitsReplayed != total || got.UnitsComputed != 0 {
		t.Errorf("second coordinator replayed %d and computed %d units, want %d replayed", got.UnitsReplayed, got.UnitsComputed, total)
	}

	// The job is done again, so a third coordinator serves the stored
	// study.
	if _, got = serve("stored"); got.UnitsReplayed != 0 || got.UnitsComputed != 0 {
		t.Errorf("third coordinator replayed %d and computed %d units, want the stored study", got.UnitsReplayed, got.UnitsComputed)
	}
}

// fingerprintsPath is the byte-oracle table internal/experiments
// keeps; this package owns its "job/" entries.
const fingerprintsPath = "../experiments/testdata/fingerprints.json"

var update = flag.Bool("update", false, "rewrite the job/ entries of "+fingerprintsPath+" from the current code")

// TestSessionsJobResultMatchesFingerprint pins a sessions job's result
// as fetched through GET /v1/jobs/{id}/result: one random, one all-8
// and one transition session of the quick campaign, so the triggered
// sessions' buffers cross the wire and decode in the unit results.
func TestSessionsJobResultMatchesFingerprint(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("quick-scale sessions job in -short mode")
	}
	cfg := core.QuickScale()
	all := cfg.Units()
	units := []core.StudyUnit{all[0], all[cfg.RandomSessions], all[cfg.RandomSessions+cfg.HighConcSessions]}
	c := coord.New(coord.Config{})
	defer c.Close()
	ts := httptest.NewServer(service.New(service.Config{Coordinator: c}))
	defer ts.Close()
	ctx := context.Background()
	st, err := coord.SubmitJob(ctx, nil, ts.URL, coord.JobSpec{Kind: "sessions", Units: units})
	if err != nil {
		t.Fatal(err)
	}
	final, err := coord.AwaitJob(ctx, nil, ts.URL, st.ID, 10*time.Millisecond)
	if err != nil || final.State != coord.StateDone {
		t.Fatalf("job ended %s (%s): %v", final.State, final.Error, err)
	}
	res, err := coord.FetchResult(ctx, nil, ts.URL, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res.Sessions)
	if err != nil {
		t.Fatal(err)
	}
	const name = "job/sessions"
	got := fmt.Sprintf("%x", sha256.Sum256(data))

	table := map[string]string{}
	raw, err := os.ReadFile(fingerprintsPath)
	if err == nil {
		err = json.Unmarshal(raw, &table)
	}
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		table[name] = got
		out, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintsPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got != table[name] {
		t.Errorf("%s: sha256 %q, table has %q (regenerate with -update)", name, got, table[name])
	}
}
