package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/store"
)

// smallStudy is a three-session campaign small enough for tier-1.
func smallStudy() core.StudyConfig {
	return core.StudyConfig{
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
}

// sessionUnits builds n independent cheap session units.
func sessionUnits(n int) []core.StudyUnit {
	units := make([]core.StudyUnit, n)
	for i := range units {
		spec := core.SessionSpec{
			Samples:  1,
			Sampling: monitor.SampleSpec{Snapshots: 1, GapCycles: 2_000},
			Seed:     100 + uint64(i),
		}
		units[i] = core.StudyUnit{ID: i + 1, Random: &spec}
	}
	return units
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// await polls a job to a terminal state.
func await(t *testing.T, c *coord.Coordinator, id string) coord.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(id)
		if err == nil && coord.TerminalState(st.State) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err := c.Status(id)
	t.Fatalf("job %s did not finish: status=%+v err=%v", id, st, err)
	return coord.JobStatus{}
}

func TestStudyJobMatchesLocalBytes(t *testing.T) {
	t.Parallel()
	cfg := smallStudy()
	local, err := core.EncodeStudy(core.RunStudyWorkers(cfg, 0))
	if err != nil {
		t.Fatal(err)
	}

	c := coord.New(coord.Config{Store: openStore(t, t.TempDir())})
	defer c.Close()
	st, created, err := c.Submit(coord.JobSpec{Kind: "study", Study: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("first Submit reported created=false")
	}
	final := await(t, c, st.ID)
	if final.State != coord.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if final.Done != final.Total || final.Total != cfg.TotalSessions() {
		t.Errorf("progress = %d/%d, want %d/%d", final.Done, final.Total, cfg.TotalSessions(), cfg.TotalSessions())
	}

	res, err := c.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.EncodeStudy(res.Study)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, local) {
		t.Error("coordinator study differs from local bytes")
	}

	// Resubmitting the same spec addresses the same, finished job.
	again, created, err := c.Submit(coord.JobSpec{Kind: "study", Study: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if created || again.ID != st.ID || again.State != coord.StateDone {
		t.Errorf("resubmit = created=%v %+v, want the done job %s", created, again, st.ID)
	}
}

func TestSweepJobMatchesLocal(t *testing.T) {
	t.Parallel()
	cfg := experiments.SweepConfig{Kind: "ce", Values: []int{1, 2}, Seed: 3, Samples: 1}
	local, err := experiments.RunSweepConfig(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}

	c := coord.New(coord.Config{Store: openStore(t, t.TempDir())})
	defer c.Close()
	st, _, err := c.Submit(coord.JobSpec{Kind: "sweep", Sweep: &cfg})
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
	want, _ := json.Marshal(local)
	got, _ := json.Marshal(res.Points)
	if !bytes.Equal(got, want) {
		t.Errorf("sweep job points = %s, want %s", got, want)
	}
}

// TestSweepJobUnknownKindMatchesLocal: a sweep job naming an unknown
// kind is rejected with the error local sweeps report, so the CLI,
// the daemon and coordinator jobs fail identically.
func TestSweepJobUnknownKindMatchesLocal(t *testing.T) {
	t.Parallel()
	cfg := experiments.SweepConfig{Kind: "bogus", Values: []int{1}, Seed: 3, Samples: 1}
	_, local := experiments.RunSweepConfig(cfg, 1)
	_, _, cached := experiments.CachedSweep(nil, cfg, 1)
	job := coord.JobSpec{Kind: "sweep", Sweep: &cfg}.Validate()
	if local == nil || cached == nil || job == nil {
		t.Fatalf("unknown kind accepted: RunSweepConfig %v, CachedSweep %v, Validate %v", local, cached, job)
	}
	if cached.Error() != local.Error() || job.Error() != local.Error() {
		t.Errorf("errors differ: RunSweepConfig %q, CachedSweep %q, Validate %q", local, cached, job)
	}
}

func TestMemoryOnlyCoordinator(t *testing.T) {
	t.Parallel()
	c := coord.New(coord.Config{}) // no store: nothing persists, jobs still run
	defer c.Close()
	st, _, err := c.Submit(coord.JobSpec{Kind: "sessions", Units: sessionUnits(3)})
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
	if len(res.Sessions) != 3 || res.Sessions[0].Random == nil {
		t.Fatalf("sessions result = %+v", res.Sessions)
	}
}

func TestResumeReplaysFromUnitCache(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	units := sessionUnits(4)
	spec := coord.JobSpec{Kind: "sessions", Units: units}

	c1 := coord.New(coord.Config{Store: openStore(t, dir)})
	st, _, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	await(t, c1, st.ID)
	c1.Close()
	if got := c1.Stats(); got.UnitsComputed != 4 {
		t.Fatalf("cold run computed %d units, want 4", got.UnitsComputed)
	}

	// Simulate an interruption: rewind the record to running, as if
	// the coordinator died between the last checkpoint and completion.
	s := openStore(t, dir)
	recKey, err := store.Key("job/v1", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rec coord.JobRecord
	if !store.GetJSON(s, recKey, &rec) {
		t.Fatal("job record missing after completion")
	}
	rec.State = coord.StateRunning
	rec.Done = 2
	if err := store.PutJSON(s, recKey, rec); err != nil {
		t.Fatal(err)
	}

	c2 := coord.New(coord.Config{Store: s})
	defer c2.Close()
	if n := c2.ResumeInterrupted(); n != 1 {
		t.Fatalf("ResumeInterrupted() = %d, want 1", n)
	}
	final := await(t, c2, st.ID)
	if final.State != coord.StateDone {
		t.Fatalf("resumed job ended %s: %s", final.State, final.Error)
	}
	got := c2.Stats()
	if got.UnitsReplayed != 4 || got.UnitsComputed != 0 {
		t.Errorf("resume stats = %+v, want 4 replayed / 0 computed (pure store replay)", got)
	}
	if got.JobsResumed != 1 {
		t.Errorf("JobsResumed = %d, want 1", got.JobsResumed)
	}
}

// TestCorruptJobRecordRestartsCleanly is the durability edge from the
// issue: a truncated job record must read as a miss, and resubmitting
// the spec restarts the job cleanly — still replaying the intact unit
// entries.
func TestCorruptJobRecordRestartsCleanly(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	spec := coord.JobSpec{Kind: "sessions", Units: sessionUnits(3)}

	c1 := coord.New(coord.Config{Store: openStore(t, dir)})
	st, _, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	await(t, c1, st.ID)
	c1.Close()

	// Truncate the record entry mid-payload.
	recKey, err := store.Key("job/v1", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, recKey+".fx8s")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := coord.New(coord.Config{Store: openStore(t, dir)})
	defer c2.Close()
	st2, created, err := c2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("Submit after record corruption reported created=false; corrupt record must read as a miss")
	}
	if st2.ID != st.ID {
		t.Errorf("job ID changed across corruption: %s != %s", st2.ID, st.ID)
	}
	final := await(t, c2, st2.ID)
	if final.State != coord.StateDone {
		t.Fatalf("restarted job ended %s: %s", final.State, final.Error)
	}
	got := c2.Stats()
	if got.UnitsReplayed != 3 || got.UnitsComputed != 0 {
		t.Errorf("restart stats = %+v, want 3 replayed / 0 computed (unit entries survive record corruption)", got)
	}
}

// TestRacingCoordinatorsLeaseExactlyOnce: two coordinators over one
// store directory submit the same spec concurrently; the job must be
// executed exactly once, and both must eventually observe it done.
func TestRacingCoordinatorsLeaseExactlyOnce(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	spec := coord.JobSpec{Kind: "sessions", Units: sessionUnits(4)}

	c1 := coord.New(coord.Config{Store: openStore(t, dir)})
	defer c1.Close()
	c2 := coord.New(coord.Config{Store: openStore(t, dir)})
	defer c2.Close()

	var wg sync.WaitGroup
	var id1, id2 string
	var err1, err2 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		st, _, err := c1.Submit(spec)
		id1, err1 = st.ID, err
	}()
	go func() {
		defer wg.Done()
		st, _, err := c2.Submit(spec)
		id2, err2 = st.ID, err
	}()
	wg.Wait()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if id1 != id2 {
		t.Fatalf("same spec produced different job IDs: %s / %s", id1, id2)
	}

	f1 := await(t, c1, id1)
	f2 := await(t, c2, id2)
	if f1.State != coord.StateDone || f2.State != coord.StateDone {
		t.Fatalf("states = %s / %s, want done / done", f1.State, f2.State)
	}
	n1 := c1.Stats().UnitsComputed
	n2 := c2.Stats().UnitsComputed
	if n1+n2 != 4 {
		t.Errorf("computed %d + %d units, want 4 total (no double execution)", n1, n2)
	}
	if n1 != 0 && n2 != 0 {
		t.Errorf("both coordinators computed units (%d / %d); the lease must pick exactly one", n1, n2)
	}
}

func TestCancelRunningJob(t *testing.T) {
	t.Parallel()
	// A backend that never answers, so the job reliably hangs until
	// canceled.
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	t.Cleanup(func() { close(stall); srv.Close() })

	reg := coord.NewRegistry()
	reg.Register(srv.URL, time.Minute)
	c := coord.New(coord.Config{
		Store:    openStore(t, t.TempDir()),
		Registry: reg,
		Workers:  1,
	})
	defer c.Close()

	st, _, err := c.Submit(coord.JobSpec{Kind: "sessions", Units: sessionUnits(4)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != coord.StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", got.State)
	}
	// A second cancel refuses: the job is terminal.
	if _, err := c.Cancel(st.ID); err != coord.ErrTerminal {
		t.Fatalf("second Cancel err = %v, want ErrTerminal", err)
	}
}

func TestStatusUnknownJob(t *testing.T) {
	t.Parallel()
	c := coord.New(coord.Config{})
	defer c.Close()
	if _, err := c.Status("no-such-job"); err != coord.ErrNotFound {
		t.Fatalf("Status err = %v, want ErrNotFound", err)
	}
	if _, err := c.Result("no-such-job"); err != coord.ErrNotFound {
		t.Fatalf("Result err = %v, want ErrNotFound", err)
	}
}

func TestSubmitRejectsInvalidSpecs(t *testing.T) {
	t.Parallel()
	c := coord.New(coord.Config{})
	defer c.Close()
	bad := []coord.JobSpec{
		{},
		{Kind: "study"},
		{Kind: "sweep"},
		{Kind: "sweep", Sweep: &experiments.SweepConfig{Kind: "bogus", Values: []int{1}}},
		{Kind: "sessions"},
		{Kind: "nonsense"},
	}
	for _, spec := range bad {
		if _, _, err := c.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", spec)
		}
	}
}

func TestListOrdersJobs(t *testing.T) {
	t.Parallel()
	c := coord.New(coord.Config{Store: openStore(t, t.TempDir())})
	defer c.Close()
	a, _, err := c.Submit(coord.JobSpec{Kind: "sessions", Units: sessionUnits(1)})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := c.Submit(coord.JobSpec{Kind: "sessions", Units: sessionUnits(2)})
	if err != nil {
		t.Fatal(err)
	}
	await(t, c, a.ID)
	await(t, c, b.ID)
	list := c.List()
	if len(list) != 2 {
		t.Fatalf("List() = %d jobs, want 2", len(list))
	}
	seen := map[string]bool{list[0].ID: true, list[1].ID: true}
	if !seen[a.ID] || !seen[b.ID] {
		t.Errorf("List() = %+v, missing submitted jobs", list)
	}
}

func TestJobIDDeterministic(t *testing.T) {
	t.Parallel()
	cfg := smallStudy()
	id1, err := coord.JobID(coord.JobSpec{Kind: "study", Study: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	id2, _ := coord.JobID(coord.JobSpec{Kind: "study", Study: &cfg})
	if id1 != id2 || len(id1) != 16 {
		t.Fatalf("JobID = %q / %q, want equal 16-hex IDs", id1, id2)
	}
	other := smallStudy()
	other.BaseSeed++
	id3, _ := coord.JobID(coord.JobSpec{Kind: "study", Study: &other})
	if id3 == id1 {
		t.Error("different specs hashed to the same job ID")
	}
}

func TestSubmitAndWaitOverContextCancel(t *testing.T) {
	t.Parallel()
	// AwaitJob must return promptly when its context ends.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(coord.JobStatus{ID: "x", State: coord.StateRunning})
	}))
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := coord.AwaitJob(ctx, nil, srv.URL, "x", 10*time.Millisecond); err == nil {
		t.Fatal("AwaitJob returned nil error after context deadline")
	}
}
