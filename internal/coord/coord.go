// Package coord is the fleet campaign coordinator: it turns
// campaigns into persistent, resumable job resources.
//
// A job is identified by its spec — the canonical JSON of a JobSpec
// hashes to the job ID — and is persisted as a JobRecord in the
// campaign store under the job/v1 namespace: spec, state machine
// (queued → running → done/failed/canceled), progress counts, and the
// per-unit completion keys of its unit ledger.  Unit results
// themselves ride the existing content-addressed unit caches
// (SessionUnitNamespace, SweepUnitNamespace), the same entries fx8d's
// POST /v1/run/* endpoints write; the checkpoint is therefore nothing
// more than the cache filling up, and resuming a half-finished
// campaign — after a coordinator restart, a daemon crash, a kill
// -9 — is a replay of store hits: only units whose entries are absent
// are recomputed.
//
// Execution pulls, it does not push.  A job's pending units go into
// an engine.Ledger with one deque per live backend (fleet membership
// comes from a Registry fed by POST /v1/backends/register
// heartbeats); per-backend workers lease units, POST them to their
// backend, and — when their own deque runs dry — steal from the back
// of the slowest peer's deque, so one degraded node cannot tail-block
// a campaign.  A backend that keeps failing is abandoned and its
// remaining units are stolen or drained locally; with no backends at
// all the coordinator computes in-process.  In-process compute is
// engine.Drain on the same ledger — the engine's one local pool, so
// it shows in engine.Stats like any local run.  Either way the
// assembled result is byte-identical to local execution, because
// units are pure functions of their spec and a study is reduced by
// core.AssembleStudy, the reduction local runs use, in canonical unit
// order.  Run wraps one job in a temporary coordinator over a fixed
// fleet: the cmd tools' -backends path.
//
// Exactly-once across coordinators is a store lease: before running a
// job, a coordinator claims the job's lease key with store.Claim
// (O_EXCL semantics), so two coordinators racing on the same job ID
// lease it exactly once; the loser tracks the job read-through from
// the store.  Leases carry a TTL and are refreshed while the job
// runs — an expired lease is taken over, so a coordinator that died
// without releasing does not wedge its jobs.
//
// Close stops execution but deliberately leaves running jobs' records
// in state running with their leases released: that is the resumable
// state ResumeInterrupted looks for at the next startup.
package coord

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/retry"
	"repro/internal/store"
)

// Defaults for Config's zero fields.
const (
	DefaultPerBackend  = 4
	DefaultMaxFailures = 3
	DefaultLeaseTTL    = 30 * time.Second
)

// checkpointEvery throttles mid-run record persists: completions
// within this window coalesce into one write, and the final
// completion always checkpoints.
const checkpointEvery = 200 * time.Millisecond

// localOwner is the ledger owner name for in-process compute.
const localOwner = "local"

// Sentinel errors, mapped to HTTP statuses by the service layer.
var (
	// ErrNotFound: no job under that ID.
	ErrNotFound = errors.New("coord: job not found")

	// ErrTerminal: the operation needs a live job but the job already
	// finished (cancelling a done job).
	ErrTerminal = errors.New("coord: job already terminal")

	// ErrNotDone: the job's result was requested before it finished.
	ErrNotDone = errors.New("coord: job not done")
)

// Config sizes a Coordinator.
type Config struct {
	// Store persists job records, leases and unit results.  nil runs
	// memory-only: jobs work but nothing survives a restart and no
	// cross-coordinator exclusion happens.
	Store *store.Store

	// Registry supplies fleet membership.  nil (or an empty registry)
	// computes every unit in-process.
	Registry *Registry

	// Workers bounds in-process compute (local jobs and the drain of
	// units no backend could run); 0 means one worker per CPU.
	Workers int

	// PerBackend is how many units are kept in flight per live
	// backend; 0 means DefaultPerBackend, matching fx8d's default
	// admission budget.
	PerBackend int

	// MaxFailures is how many consecutive unit failures make a
	// dispatch worker abandon its backend for the rest of the job;
	// 0 means DefaultMaxFailures.
	MaxFailures int

	// LeaseTTL is the job-ownership lease duration; the lease is
	// refreshed at a third of this. 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration

	// UnitTimeout bounds one unit POST to one backend; 0 means
	// remote.DefaultUnitTimeout.
	UnitTimeout time.Duration

	// Retry is the retry/backoff policy for dispatch failures and
	// lease refreshes: a dispatch worker whose unit POST failed backs
	// off under it before retrying (honoring a shedding backend's
	// Retry-After), and lease refreshes that hit a briefly-unwritable
	// store are retried under it instead of silently dropped.  The
	// zero value means the retry package defaults; its Metrics field
	// is resolved to the coordinator's own (see RetryStats).
	Retry retry.Policy

	// HTTPClient overrides the dispatch transport (tests).
	HTTPClient *http.Client
}

// Stats counts a coordinator's unit outcomes since New.
type Stats struct {
	// UnitsComputed were executed (remotely or locally) by this
	// coordinator's jobs.
	UnitsComputed uint64

	// UnitsReplayed were satisfied from the store's unit cache —
	// checkpoint hits, the currency of resume.
	UnitsReplayed uint64

	// UnitsStolen were leased from another owner's pending deque.
	UnitsStolen uint64

	// JobsResumed counts jobs restarted from a persisted record.
	JobsResumed uint64
}

// job is one locally-tracked job: its record, live counters, and —
// when this coordinator owns the lease — its execution state.
type job struct {
	mu        sync.Mutex
	rec       JobRecord
	steals    uint64
	lastCkpt  time.Time
	userStop  bool // Cancel() was called, as opposed to Close()
	leaseLost bool // ownership moved to a peer mid-run
	owned     bool
	cancel    context.CancelFunc
	done      chan struct{} // closed when the run goroutine returns
	result    *JobResult    // in-memory result tier (nil-store coordinators)
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return statusFrom(j.rec, j.steals)
}

func statusFrom(rec JobRecord, steals uint64) JobStatus {
	s := JobStatus{
		ID:      rec.ID,
		Kind:    rec.Spec.Kind,
		State:   rec.State,
		Done:    rec.Done,
		Total:   rec.Total,
		Steals:  steals,
		Error:   rec.Error,
		Created: rec.Created,
		Updated: rec.Updated,
	}
	s.Summary = fmt.Sprintf("%d/%d units complete", s.Done, s.Total)
	if steals > 0 {
		s.Summary += fmt.Sprintf(" (%d stolen)", steals)
	}
	return s
}

// Coordinator runs and tracks campaign jobs.  All methods are safe
// for concurrent use.
type Coordinator struct {
	cfg      Config
	httpc    *http.Client
	owner    string         // lease identity of this coordinator
	retry    retry.Policy   // resolved dispatch/lease retry policy
	rmetrics *retry.Metrics // retry outcome counters, see RetryStats

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool

	mu   sync.Mutex
	jobs map[string]*job

	computed, replayed, stolen, resumed atomic.Uint64
}

// New returns a Coordinator.  Call ResumeInterrupted after New to
// pick up jobs a previous process left half-finished, and Close on
// shutdown.
func New(cfg Config) *Coordinator {
	if cfg.PerBackend <= 0 {
		cfg.PerBackend = DefaultPerBackend
	}
	if cfg.MaxFailures <= 0 {
		cfg.MaxFailures = DefaultMaxFailures
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.UnitTimeout <= 0 {
		cfg.UnitTimeout = remote.DefaultUnitTimeout
	}
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	c := &Coordinator{
		cfg:   cfg,
		httpc: cfg.HTTPClient,
		owner: obs.NewRequestID(),
		jobs:  make(map[string]*job),
	}
	if c.httpc == nil {
		c.httpc = &http.Client{}
	}
	c.retry = cfg.Retry
	c.rmetrics = c.retry.Metrics
	if c.rmetrics == nil {
		c.rmetrics = &retry.Metrics{}
		c.retry.Metrics = c.rmetrics
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	return c
}

// Registry returns the coordinator's fleet registry — the one POST
// /v1/backends/register must feed for this coordinator to dispatch.
func (c *Coordinator) Registry() *Registry {
	return c.cfg.Registry
}

// Stats returns a snapshot of the coordinator's unit outcomes.
func (c *Coordinator) Stats() Stats {
	return Stats{
		UnitsComputed: c.computed.Load(),
		UnitsReplayed: c.replayed.Load(),
		UnitsStolen:   c.stolen.Load(),
		JobsResumed:   c.resumed.Load(),
	}
}

// RetryStats snapshots the coordinator's retry-policy outcomes —
// dispatch retries, backoff waits, give-ups — which the service
// surfaces in /v1/metrics.
func (c *Coordinator) RetryStats() retry.Snapshot {
	return c.rmetrics.Snapshot()
}

// Submit registers the job for spec and starts it if this coordinator
// wins its lease.  Submission is idempotent: the same spec addresses
// the same job, so created reports whether the job is new (the
// service's 201 vs 200).  A resubmitted spec whose job already
// finished returns the terminal status without recomputing anything.
func (c *Coordinator) Submit(spec JobSpec) (JobStatus, bool, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, false, err
	}
	id, err := JobID(spec)
	if err != nil {
		return JobStatus{}, false, err
	}
	_, _, keys, err := specUnits(spec)
	if err != nil {
		return JobStatus{}, false, err
	}

	c.mu.Lock()
	if j, ok := c.jobs[id]; ok {
		c.mu.Unlock()
		return j.status(), false, nil
	}
	c.mu.Unlock()

	created := true
	rec, found := c.loadRecord(id)
	if found {
		created = false
		if TerminalState(rec.State) {
			j := c.track(rec, false)
			return j.status(), false, nil
		}
	} else {
		now := time.Now()
		rec = JobRecord{
			ID: id, Spec: spec, State: StateQueued,
			Total: len(keys), UnitKeys: keys,
			Created: now, Updated: now,
		}
	}

	won, err := c.acquireLease(id)
	if err != nil {
		return JobStatus{}, false, err
	}
	j := c.track(rec, won)
	if !won {
		// Another coordinator owns it; Status reads through the store.
		return j.status(), created, nil
	}
	if found {
		// A persisted, non-terminal record whose lease we won: this
		// submission restarts an interrupted job.
		c.resumed.Add(1)
	}
	c.persist(j)
	c.addToIndex(id)
	c.start(j)
	return j.status(), created, nil
}

// Run executes spec as a job on a temporary coordinator built from
// cfg and returns its result: the cmd tools' -backends path, whose
// Registry lists a fixed fleet.  It submits the job, waits for it and
// closes the coordinator.  When ctx ends first the job is left
// resumable in cfg.Store, as Close leaves it.  A job that ends failed
// or canceled, or whose lease another coordinator holds, is an error.
func Run(ctx context.Context, cfg Config, spec JobSpec) (*JobResult, error) {
	c := New(cfg)
	defer c.Close()
	st, _, err := c.Submit(spec)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	j := c.jobs[st.ID]
	c.mu.Unlock()
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if st, err = c.Status(st.ID); err != nil {
		return nil, err
	}
	switch {
	case st.State == StateDone:
		return c.Result(st.ID)
	case !TerminalState(st.State):
		return nil, fmt.Errorf("coord: job %s is %s under another coordinator's lease", st.ID, st.State)
	}
	return nil, fmt.Errorf("coord: job %s ended %s: %s", st.ID, st.State, st.Error)
}

// track registers a job locally, resolving the race where two Submits
// (or a Submit and a resume) track the same ID: the first one in
// wins and the other's entry is discarded.
func (c *Coordinator) track(rec JobRecord, owned bool) *job {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j, ok := c.jobs[rec.ID]; ok {
		return j
	}
	j := &job{rec: rec, owned: owned, done: make(chan struct{})}
	if !owned {
		close(j.done)
	}
	c.jobs[rec.ID] = j
	return j
}

// Status returns a job's current state: live for jobs this
// coordinator runs, read through the store for jobs owned elsewhere.
func (c *Coordinator) Status(id string) (JobStatus, error) {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	if j != nil {
		j.mu.Lock()
		owned := j.owned
		j.mu.Unlock()
		if owned || c.cfg.Store == nil {
			return j.status(), nil
		}
	}
	if rec, ok := c.loadRecord(id); ok {
		return statusFrom(rec, 0), nil
	}
	if j != nil {
		return j.status(), nil
	}
	return JobStatus{}, ErrNotFound
}

// List returns every known job — local ones and those recorded in the
// store's job index — sorted by creation time, then ID.
func (c *Coordinator) List() []JobStatus {
	byID := make(map[string]JobStatus)
	if ids, ok := c.loadIndex(); ok {
		for _, id := range ids {
			if rec, ok := c.loadRecord(id); ok {
				byID[id] = statusFrom(rec, 0)
			}
		}
	}
	c.mu.Lock()
	locals := make([]*job, 0, len(c.jobs))
	for _, j := range c.jobs {
		locals = append(locals, j)
	}
	c.mu.Unlock()
	for _, j := range locals {
		s := j.status()
		j.mu.Lock()
		owned := j.owned
		j.mu.Unlock()
		if _, ok := byID[s.ID]; !ok || owned || c.cfg.Store == nil {
			byID[s.ID] = s
		}
	}
	out := make([]JobStatus, 0, len(byID))
	for _, s := range byID {
		out = append(out, s)
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.Before(out[k].Created)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Cancel stops a job.  Cancelling a job this coordinator runs aborts
// its in-flight units (their leases release back to the ledger, which
// is already canceled — no orphans) and persists state canceled; a
// job recorded elsewhere is marked canceled best-effort.  Cancelling
// a terminal job reports ErrTerminal.
func (c *Coordinator) Cancel(id string) (JobStatus, error) {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	if j != nil {
		j.mu.Lock()
		if TerminalState(j.rec.State) {
			j.mu.Unlock()
			return j.status(), ErrTerminal
		}
		if j.owned {
			j.userStop = true
			cancel := j.cancel
			j.mu.Unlock()
			if cancel != nil {
				cancel()
			}
			<-j.done
			return j.status(), nil
		}
		j.mu.Unlock()
	}
	rec, ok := c.loadRecord(id)
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	if TerminalState(rec.State) {
		return statusFrom(rec, 0), ErrTerminal
	}
	rec.State = StateCanceled
	rec.Updated = time.Now()
	if key, err := recordKey(id); err == nil {
		store.PutJSON(c.cfg.Store, key, rec)
	}
	return statusFrom(rec, 0), nil
}

// Result returns a done job's payload: from memory when this
// coordinator assembled it, otherwise re-read from the store's
// content-addressed artefacts (the study under its study key, sweep
// points under their sweep key, session units from the unit cache).
func (c *Coordinator) Result(id string) (*JobResult, error) {
	c.mu.Lock()
	j := c.jobs[id]
	c.mu.Unlock()
	var rec JobRecord
	if j != nil {
		j.mu.Lock()
		rec = j.rec
		res := j.result
		j.mu.Unlock()
		if res != nil {
			return res, nil
		}
	}
	if j == nil {
		var ok bool
		if rec, ok = c.loadRecord(id); !ok {
			return nil, ErrNotFound
		}
	}
	if rec.State != StateDone {
		return nil, fmt.Errorf("%w: job %s is %s", ErrNotDone, id, rec.State)
	}
	return c.loadResult(rec)
}

// loadResult reassembles a done job's payload from the store.
func (c *Coordinator) loadResult(rec JobRecord) (*JobResult, error) {
	switch rec.Spec.Kind {
	case "study":
		key, err := core.StudyKey(*rec.Spec.Study)
		if err != nil {
			return nil, err
		}
		if c.cfg.Store != nil {
			if data, ok := c.cfg.Store.Get(key); ok {
				st, err := core.DecodeStudy(data)
				if err != nil {
					return nil, err
				}
				return &JobResult{Study: st}, nil
			}
		}
		return nil, fmt.Errorf("coord: study artefact for job %s not in store", rec.ID)
	case "sweep":
		key, err := experiments.SweepKey(*rec.Spec.Sweep)
		if err != nil {
			return nil, err
		}
		var pts []experiments.SweepPoint
		if !store.GetJSON(c.cfg.Store, key, &pts) {
			return nil, fmt.Errorf("coord: sweep artefact for job %s not in store", rec.ID)
		}
		return &JobResult{Points: pts}, nil
	case "sessions":
		out := make([]core.StudyUnitResult, len(rec.UnitKeys))
		for i, key := range rec.UnitKeys {
			if !store.GetJSON(c.cfg.Store, key, &out[i]) {
				return nil, fmt.Errorf("coord: unit %d of job %s not in store", i, rec.ID)
			}
		}
		return &JobResult{Sessions: out}, nil
	}
	return nil, fmt.Errorf("coord: unknown job kind %q", rec.Spec.Kind)
}

// ResumeInterrupted scans the job index for records left queued or
// running — a previous coordinator died or was closed mid-campaign —
// and restarts every one whose lease it can claim.  Thanks to the
// unit-cache checkpoint, a resumed job recomputes only units without
// store entries.  Returns how many jobs this coordinator resumed.
func (c *Coordinator) ResumeInterrupted() int {
	ids, ok := c.loadIndex()
	if !ok {
		return 0
	}
	n := 0
	for _, id := range ids {
		c.mu.Lock()
		_, known := c.jobs[id]
		c.mu.Unlock()
		if known {
			continue
		}
		rec, ok := c.loadRecord(id)
		if !ok || TerminalState(rec.State) {
			continue
		}
		won, err := c.acquireLease(id)
		if err != nil || !won {
			continue
		}
		j := c.track(rec, true)
		c.start(j)
		c.resumed.Add(1)
		n++
	}
	return n
}

// Close stops the coordinator: every running job's context is
// canceled, in-flight units release their leases, and each job's
// record is left in state running with its store lease released — the
// resumable state, not a terminal one, so a successor (or a restarted
// process calling ResumeInterrupted) picks the campaign back up from
// its completed-unit set.
func (c *Coordinator) Close() {
	if c.closed.Swap(true) {
		return
	}
	c.cancel()
	c.wg.Wait()
}

// start launches a job's run goroutine.
func (c *Coordinator) start(j *job) {
	ctx, cancel := context.WithCancel(c.ctx)
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer cancel()
		c.run(ctx, j)
	}()
}

// run executes a job to a terminal state — or, on coordinator
// shutdown, leaves it resumable.
func (c *Coordinator) run(ctx context.Context, j *job) {
	defer close(j.done)
	stopBeat := c.keepLease(ctx, j)
	defer stopBeat()

	j.mu.Lock()
	j.rec.State = StateRunning
	j.mu.Unlock()
	c.persist(j)

	res, err := c.execute(ctx, j)

	// The final record is built aside and published to Status only
	// after it is persisted and the lease released, so a caller that
	// sees a terminal state never sees the lease still held.
	j.mu.Lock()
	lost, stopped := j.leaseLost, j.userStop
	final := j.rec
	j.mu.Unlock()
	switch {
	case err == nil:
		final.State = StateDone
		final.Done = final.Total
	case stopped:
		final.State = StateCanceled
		final.Error = "canceled"
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		// Coordinator shutdown (Close) or a lost lease, not a failure:
		// leave the record in state running — the resumable state —
		// with the Done count advanced to the last completion.
	default:
		final.State = StateFailed
		final.Error = err.Error()
	}

	// When ownership moved to a peer mid-run, the record and the
	// lease are the new owner's now.  Persisting would clobber the
	// peer's progress, and releaseLease would race its lease — this
	// coordinator just walks away.  (A completed result is still
	// booked below: the units were finished before the loss surfaced,
	// and persist is last-writer-wins on identical content-addressed
	// unit entries either way.)
	if !lost || err == nil {
		final.Updated = time.Now()
		if key, kerr := recordKey(final.ID); kerr == nil && c.cfg.Store != nil {
			store.PutJSON(c.cfg.Store, key, final)
		}
		c.releaseLease(final.ID)
	}
	j.mu.Lock()
	j.rec = final
	if err == nil {
		j.result = res
	}
	j.mu.Unlock()
}

// execute runs a job's units and assembles its result.
func (c *Coordinator) execute(ctx context.Context, j *job) (*JobResult, error) {
	j.mu.Lock()
	spec, id := j.rec.Spec, j.rec.ID
	j.mu.Unlock()
	study, sweep, keys, err := specUnits(spec)
	if err != nil {
		return nil, err
	}
	// Every unit POST carries the job ID, so GET /v1/trace/{job-id}
	// on the backends reconstructs where the job's time went.
	ctx = obs.WithRequestID(ctx, id)
	if study != nil {
		results, err := runUnits(ctx, c, j, study, keys, remote.SessionPath, core.RunStudyUnit, checkSession)
		if err != nil {
			return nil, err
		}
		if spec.Kind == "sessions" {
			return &JobResult{Sessions: results}, nil
		}
		st, err := core.AssembleStudy(*spec.Study, results)
		if err != nil {
			return nil, err
		}
		data, err := core.EncodeStudy(st)
		if err != nil {
			return nil, err
		}
		key, err := core.StudyKey(*spec.Study)
		if err != nil {
			return nil, err
		}
		if c.cfg.Store != nil {
			c.cfg.Store.Put(key, data)
		}
		return &JobResult{Study: st}, nil
	}
	results, err := runUnits(ctx, c, j, sweep, keys, remote.SweepPath, experiments.RunSweepUnit, checkSweepPoint)
	if err != nil {
		return nil, err
	}
	key, err := experiments.SweepKey(*spec.Sweep)
	if err != nil {
		return nil, err
	}
	store.PutJSON(c.cfg.Store, key, results)
	return &JobResult{Points: results}, nil
}

// checkSession rejects a session result that lacks the session kind
// its unit asked for: what a backend answering 200 with the wrong
// shape (version skew, a wrong service on the port) decodes to.
func checkSession(u core.StudyUnit, r core.StudyUnitResult) error {
	if (u.Random != nil && r.Random == nil) || (u.Triggered != nil && r.Triggered == nil) {
		return fmt.Errorf("coord: backend returned no session for unit %d", u.ID)
	}
	return nil
}

// checkSweepPoint rejects an unlabeled sweep point: RunSweepUnit
// labels every point, so an empty label marks a wrong-shape answer.
func checkSweepPoint(u experiments.SweepUnit, p experiments.SweepPoint) error {
	if p.Label == "" {
		return fmt.Errorf("coord: backend returned an empty point for sweep unit %s=%d", u.Kind, u.Value)
	}
	return nil
}

// runUnits is the dispatch loop: replay completed units from the
// store, push the rest into a per-backend ledger, and drain it with
// pulling workers — per-backend ones first, then engine.Drain, the
// engine's local pool, for whatever the fleet could not serve.  A
// dispatched result must pass check before it is stored: a
// wrong-shape answer counts as a failure of its backend, so it never
// reaches the shared unit cache.
func runUnits[U, R any](ctx context.Context, c *Coordinator, j *job, units []U, keys []string, path string,
	local func(U) (R, error), check func(U, R) error) ([]R, error) {
	results := make([]R, len(units))
	var pending []int
	for i := range units {
		if store.GetJSON(c.cfg.Store, keys[i], &results[i]) {
			c.replayed.Add(1)
			continue
		}
		pending = append(pending, i)
	}
	j.mu.Lock()
	j.rec.Done = len(units) - len(pending)
	j.mu.Unlock()
	c.persist(j)
	if len(pending) == 0 {
		return results, ctx.Err()
	}

	var backends []string
	if c.cfg.Registry != nil {
		backends = c.cfg.Registry.Snapshot()
	}
	owners := backends
	if len(owners) == 0 {
		owners = []string{localOwner}
	}
	led := engine.NewLedger[int](owners...)
	for k, idx := range pending {
		// Contiguous shares: owner k gets the k-th slice of pending
		// units, so steals (from the back) take the victim's most
		// distant work first.
		led.Add(owners[k*len(owners)/len(pending)], idx)
	}
	go func() {
		<-ctx.Done()
		led.Cancel()
	}()
	// idle ends every backoff wait once the last unit completes: a
	// worker sleeping out a failure has nothing left to retry.
	idle, drained := context.WithCancel(ctx)
	defer drained()

	// completeUnit books a computed unit; the caller settles its lease.
	completeUnit := func(ls engine.Lease[int], res R) {
		idx := ls.Item
		results[idx] = res
		store.PutJSON(c.cfg.Store, keys[idx], res)
		c.computed.Add(1)
		if ls.Stolen {
			c.stolen.Add(1)
		}
		j.mu.Lock()
		j.rec.Done++
		if ls.Stolen {
			j.steals++
		}
		final := j.rec.Done == j.rec.Total
		due := final || time.Since(j.lastCkpt) >= checkpointEvery
		if due {
			j.lastCkpt = time.Now()
		}
		j.mu.Unlock()
		if due {
			c.persist(j)
		}
		if final {
			drained()
		}
	}

	var wg sync.WaitGroup
	for _, addr := range backends {
		url := baseURL(addr) + path
		for w := 0; w < c.cfg.PerBackend; w++ {
			wg.Add(1)
			go func(owner string) {
				defer wg.Done()
				failures, sheds := 0, 0
				for {
					ls, ok := led.Lease(owner)
					if !ok {
						return
					}
					if ctx.Err() != nil {
						led.Release(ls)
						return
					}
					c.rmetrics.Attempts.Inc()
					u := units[ls.Item]
					res, err := remote.PostUnit[U, R](ctx, c.httpc, url, u, c.cfg.UnitTimeout)
					if err == nil {
						err = check(u, res)
					}
					if err == nil {
						failures, sheds = 0, 0
						completeUnit(ls, res)
						led.Complete(ls)
						continue
					}
					led.Release(ls)
					// A shed (429) is overload, not sickness: it waits out
					// the backend's Retry-After and does not count toward
					// MaxFailures, which would amplify the overload into an
					// outage.  A backend that keeps shedding is given up on
					// only when the policy's attempt budget runs out.
					hint, shed := retry.AfterHint(err)
					if shed {
						sheds++
					} else {
						failures++
					}
					if ctx.Err() != nil || failures >= c.cfg.MaxFailures || sheds >= c.retry.Attempts() {
						// Abandon this backend: its remaining units are
						// stolen by peers or drained locally below.
						c.rmetrics.GiveUps.Inc()
						return
					}
					c.rmetrics.Retries.Inc()
					if c.retry.Wait(idle, failures+sheds, hint) != nil {
						if ctx.Err() != nil {
							c.rmetrics.GiveUps.Inc()
						}
						return
					}
				}
			}(addr)
		}
	}
	wg.Wait()

	// Local drain: the whole job when no backends exist, the
	// leftovers when the fleet degraded mid-run.  This pool is what
	// guarantees a job always finishes.
	workers := c.cfg.Workers
	if wn := j.specWorkers(); wn > 0 {
		workers = wn
	}
	if err := engine.Drain(ctx, workers, led, localOwner, func(_ context.Context, ls engine.Lease[int]) error {
		res, err := local(units[ls.Item])
		if err != nil {
			return err
		}
		completeUnit(ls, res)
		return nil
	}); err != nil {
		return nil, err
	}
	return results, ctx.Err()
}

// specWorkers reads the job spec's worker bound.
func (j *job) specWorkers() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.Spec.Workers
}

// baseURL normalizes a backend address ("host:port" or a URL) to a
// URL prefix.
func baseURL(addr string) string {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	return strings.TrimRight(url, "/")
}

// --- persistence helpers ---

// persist writes a job's record to the store (no-op without one).
func (c *Coordinator) persist(j *job) {
	if c.cfg.Store == nil {
		return
	}
	j.mu.Lock()
	j.rec.Updated = time.Now()
	rec := j.rec
	j.mu.Unlock()
	if key, err := recordKey(rec.ID); err == nil {
		store.PutJSON(c.cfg.Store, key, rec)
	}
}

// loadRecord reads a job record; a corrupt or truncated record reads
// as a miss (the store removes it), so a damaged job simply restarts
// from its unit cache.
func (c *Coordinator) loadRecord(id string) (JobRecord, bool) {
	if c.cfg.Store == nil {
		return JobRecord{}, false
	}
	key, err := recordKey(id)
	if err != nil {
		return JobRecord{}, false
	}
	var rec JobRecord
	if !store.GetJSON(c.cfg.Store, key, &rec) {
		return JobRecord{}, false
	}
	if rec.ID != id {
		return JobRecord{}, false
	}
	return rec, true
}

// loadIndex reads the job-ID index.
func (c *Coordinator) loadIndex() ([]string, bool) {
	if c.cfg.Store == nil {
		return nil, false
	}
	key, err := indexKey()
	if err != nil {
		return nil, false
	}
	var ids []string
	if !store.GetJSON(c.cfg.Store, key, &ids) {
		return nil, false
	}
	return ids, true
}

// addToIndex merges id into the job index.  Two coordinators updating
// concurrently can lose one ID from the listing (last writer wins);
// records and leases are untouched, so this only narrows GET /v1/jobs
// until the next submit — an accepted cost of keeping the index a
// plain entry.
func (c *Coordinator) addToIndex(id string) {
	if c.cfg.Store == nil {
		return
	}
	key, err := indexKey()
	if err != nil {
		return
	}
	var ids []string
	store.GetJSON(c.cfg.Store, key, &ids)
	for _, have := range ids {
		if have == id {
			return
		}
	}
	ids = append(ids, id)
	sort.Strings(ids)
	store.PutJSON(c.cfg.Store, key, ids)
}

// --- lease helpers ---

// acquireLease claims job ownership, taking over an expired lease.
func (c *Coordinator) acquireLease(id string) (bool, error) {
	if c.cfg.Store == nil {
		return true, nil
	}
	key, err := LeaseKey(id)
	if err != nil {
		return false, err
	}
	lease := leaseRecord{Owner: c.owner, Expires: time.Now().Add(c.cfg.LeaseTTL)}
	won, err := store.ClaimJSON(c.cfg.Store, key, lease)
	if err != nil || won {
		return won, err
	}
	var cur leaseRecord
	if store.GetJSON(c.cfg.Store, key, &cur) && time.Now().Before(cur.Expires) {
		return false, nil // live lease held elsewhere
	}
	// Expired (or vanished between the claim and the read): take over.
	// The delete-then-claim window is racy, but Claim keeps the
	// takeover itself exactly-once.
	c.cfg.Store.Delete(key)
	lease.Expires = time.Now().Add(c.cfg.LeaseTTL)
	return store.ClaimJSON(c.cfg.Store, key, lease)
}

// keepLease refreshes a running job's lease at TTL/3 until the
// returned stop function is called or ctx ends, and — the other half
// of exactly-once — detects losing the lease.  Ownership is lost two
// ways: a peer's live lease appears under the key (it took over after
// ours expired), or refreshes keep failing past our own lease's
// expiry (the store is unwritable, so a peer is free to take over any
// moment — self-fence rather than risk two owners).  Either way the
// job's context is canceled: in-flight units release their ledger
// leases and the record is left resumable for the new owner, never
// finalized by both sides.  Refresh failures inside the window are
// retried under the coordinator's retry policy — a briefly-unwritable
// store costs backoff waits, not the lease.
func (c *Coordinator) keepLease(ctx context.Context, j *job) (stop func()) {
	if c.cfg.Store == nil {
		return func() {}
	}
	key, err := LeaseKey(j.rec.ID)
	if err != nil {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(c.cfg.LeaseTTL / 3)
		defer t.Stop()
		deadline := time.Now().Add(c.cfg.LeaseTTL) // expiry of the lease as last written
		for {
			select {
			case <-t.C:
				var cur leaseRecord
				if store.GetJSON(c.cfg.Store, key, &cur) &&
					cur.Owner != c.owner && time.Now().Before(cur.Expires) {
					// A peer holds a live lease: ours expired and was
					// taken over.  Stand down.
					c.loseLease(j)
					return
				}
				var next time.Time
				err := c.retry.Do(ctx, func(context.Context) error {
					next = time.Now().Add(c.cfg.LeaseTTL)
					return store.PutJSON(c.cfg.Store, key, leaseRecord{Owner: c.owner, Expires: next})
				})
				switch {
				case err == nil:
					deadline = next
				case ctx.Err() != nil:
					return
				case time.Now().After(deadline):
					// Could not refresh before our own lease expired:
					// assume a peer owns it now (or will momentarily).
					c.loseLease(j)
					return
				}
			case <-done:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// loseLease marks a job's ownership as lost and cancels its run:
// better to halt and leave the record resumable than to keep
// computing against a peer that now owns the job.
func (c *Coordinator) loseLease(j *job) {
	j.mu.Lock()
	j.leaseLost = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// releaseLease deletes a job's lease if this coordinator holds it.
func (c *Coordinator) releaseLease(id string) {
	if c.cfg.Store == nil {
		return
	}
	key, err := LeaseKey(id)
	if err != nil {
		return
	}
	var cur leaseRecord
	if store.GetJSON(c.cfg.Store, key, &cur) && cur.Owner != c.owner {
		return // someone else's lease (we lost ours to a takeover)
	}
	c.cfg.Store.Delete(key)
}
