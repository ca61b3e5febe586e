package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/store"
)

const (
	// fleetSessionUnits sizes the sessions job: many short units, so
	// per-unit dispatch is a visible share of the job.
	fleetSessionUnits = 320
	// pollEvery is the job-status poll period; each poll is one read
	// of one unfinished job's status.
	pollEvery = 5 * time.Millisecond
	// replayRepeats is how many replays follow each cold pass.
	replayRepeats = 5
)

// fleetSpecs are the jobs every fleet pass submits, all derived from
// the seed: a quick-scale study, a CE-count and a cache-size sweep
// (whose hardware changes force arena rebuilds on the backends), and a
// sessions job of short units.
func fleetSpecs(seed uint64) []coord.JobSpec {
	study := core.QuickScale()
	study.BaseSeed = seed
	sweep := func(kind string) *experiments.SweepConfig {
		return &experiments.SweepConfig{Kind: kind, Values: experiments.DefaultSweepValues(kind), Seed: seed, Samples: 2}
	}
	units := make([]core.StudyUnit, fleetSessionUnits)
	for i := range units {
		units[i] = core.StudyUnit{ID: i + 1, Random: &core.SessionSpec{
			Samples:  2,
			Sampling: monitor.SampleSpec{Snapshots: 5, GapCycles: 3_000},
			Seed:     seed<<20 + uint64(i),
		}}
	}
	return []coord.JobSpec{
		{Kind: "study", Study: &study},
		{Kind: "sweep", Sweep: sweep("ce")},
		{Kind: "sweep", Sweep: sweep("cache")},
		{Kind: "sessions", Units: units},
	}
}

// encodeResult is the canonical byte form of a job result, compared
// byte for byte with the local reference.
func encodeResult(kind string, res coord.JobResult) ([]byte, error) {
	switch kind {
	case "study":
		if res.Study == nil {
			return nil, fmt.Errorf("study job returned no study")
		}
		return core.EncodeStudy(res.Study)
	case "sweep":
		return json.Marshal(res.Points)
	}
	return json.Marshal(res.Sessions)
}

// fleetReference computes every job's result locally, through the same
// entry points the tools use: RunStudyRunner and RunSweepConfig.
func fleetReference(r *run, specs []coord.JobSpec) ([][]byte, error) {
	ctx := context.Background()
	out := make([][]byte, len(specs))
	for i, spec := range specs {
		var res coord.JobResult
		var err error
		switch spec.Kind {
		case "study":
			res.Study, err = core.RunStudyRunner(ctx, *spec.Study, 0, core.LocalStudyRunner(), nil)
		case "sweep":
			res.Points, err = experiments.RunSweepConfig(*spec.Sweep, 0)
		case "sessions":
			res.Sessions, err = engine.RunAll(ctx, 0, spec.Units, core.LocalStudyRunner(), nil)
		}
		if err != nil {
			return nil, err
		}
		if out[i], err = encodeResult(spec.Kind, res); err != nil {
			return nil, err
		}
		if spec.Kind == "study" {
			var first string
			checkFingerprint(r, "quick", spec.Study.BaseSeed, out[i], &first)
		}
	}
	return out, nil
}

// fleet is one coordinator daemon over a store, dispatching to two
// single-worker backend daemons.
type fleet struct {
	backends []*daemon
	coord    *coord.Coordinator
	front    *daemon
	store    *store.Store
	dispatch *timingTransport
}

// startBackends boots the two backends.  Each computes one unit at a
// time; its admission queue is deep enough that the four jobs'
// concurrent dispatch never gets shed.
func startBackends() ([]*daemon, error) {
	var out []*daemon
	for i := 0; i < 2; i++ {
		d, err := startDaemon(service.Config{Workers: 1, MaxInFlight: 1, MaxQueue: 64})
		if err != nil {
			stopAll(out)
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

func stopAll(ds []*daemon) {
	for _, d := range ds {
		d.stop()
	}
}

// bootFleet is one fleet set-up: two backends and a coordinator daemon
// over a fresh store at dir.
func bootFleet(dir string) (stop func(), err error) {
	backends, err := startBackends()
	if err != nil {
		return nil, err
	}
	f, err := startCoordinator(dir, backends, nil, span{})
	if err != nil {
		stopAll(backends)
		return nil, err
	}
	return func() { f.stop(); stopAll(backends) }, nil
}

// startCoordinator boots a coordinator daemon over the store at dir
// with the backends registered.  It dispatches the way fx8d does, with
// the default number of units in flight per backend.
func startCoordinator(dir string, backends []*daemon, tr *tracer, parent span) (*fleet, error) {
	s, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	reg := coord.NewRegistry()
	for _, b := range backends {
		reg.Register(strings.TrimPrefix(b.base, "http://"), time.Hour)
	}
	dispatch := &timingTransport{base: http.DefaultTransport.(*http.Transport).Clone(), tr: tr, parent: parent, name: "remote.unit"}
	c := coord.New(coord.Config{Store: s, Registry: reg, HTTPClient: &http.Client{Transport: dispatch}})
	cache := core.NewStudyCache()
	cache.SetStore(s)
	front, err := startDaemon(service.Config{Cache: cache, Coordinator: c})
	if err != nil {
		c.Close()
		return nil, err
	}
	return &fleet{backends: backends, coord: c, front: front, store: s, dispatch: dispatch}, nil
}

func (f *fleet) stop() {
	f.front.stop()
	f.coord.Close()
	f.dispatch.base.(*http.Transport).CloseIdleConnections()
}

// pass is one submission of every job and what the benchmark saw.
type pass struct {
	start   time.Time
	wall    time.Duration
	polls   []float64 // status-read latencies from their due times, ms
	submits []float64
	fetches []float64
	steals  uint64
	ids     []string
}

// submitAll submits every spec concurrently to a coordinator daemon,
// then polls the unfinished jobs' status in turn, one read every
// pollEvery, timing each read from its due time.  A job seen finished
// has its result fetched; the pass ends when the last result has
// arrived.  Results are decoded and checked after the clock stops: a
// real client runs on another machine, and here its decoding would
// compete with the system for the CPU.
func submitAll(r *run, tr *tracer, c *http.Client, base string, specs []coord.JobSpec, want [][]byte, root span) pass {
	ctx := context.Background()
	var (
		mu     sync.Mutex
		p      = pass{ids: make([]string, len(specs))}
		states = make([]coord.JobStatus, len(specs))
		wg     sync.WaitGroup
	)
	results := make([][]byte, len(specs))
	// finish fetches a finished job's result.
	finish := func(i int, st coord.JobStatus) {
		defer wg.Done()
		if st.State != coord.StateDone {
			mu.Lock()
			r.op(fmt.Errorf("job %s (%s) ended %s: %s", st.ID, specs[i].Kind, st.State, st.Error))
			mu.Unlock()
			return
		}
		sp := tr.start("coord.FetchResult", root)
		t0 := time.Now()
		body, err := fetchResult(ctx, c, base, st.ID)
		fetch := millis(time.Since(t0))
		tr.end(sp)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			r.op(err)
			return
		}
		results[i] = body
		p.fetches = append(p.fetches, fetch)
		p.steals += st.Steals
	}

	t0 := time.Now()
	var pending []int
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.start("coord.SubmitJob", root)
			ts := time.Now()
			st, err := coord.SubmitJob(ctx, c, base, spec)
			submit := millis(time.Since(ts))
			tr.end(sp)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				r.op(err)
				return
			}
			states[i], p.ids[i] = st, st.ID
			p.submits = append(p.submits, submit)
		}()
	}
	wg.Wait()
	for i, st := range states {
		switch {
		case st.ID == "":
		case coord.TerminalState(st.State):
			wg.Add(1)
			go finish(i, st)
		default:
			pending = append(pending, i)
		}
	}
	due := time.Now()
	for k := 0; len(pending) > 0; {
		due = due.Add(pollEvery)
		time.Sleep(time.Until(due))
		k %= len(pending)
		i := pending[k]
		sp := tr.start("coord.FetchStatus", root)
		st, err := coord.FetchStatus(ctx, c, base, p.ids[i])
		tr.end(sp)
		p.polls = append(p.polls, millis(time.Since(due)))
		switch {
		case err != nil:
			mu.Lock()
			r.op(err)
			mu.Unlock()
		case coord.TerminalState(st.State):
			wg.Add(1)
			go finish(i, st)
		default:
			k++
			continue
		}
		pending = append(pending[:k], pending[k+1:]...)
	}
	wg.Wait()
	p.start, p.wall = t0, time.Since(t0)

	for i, body := range results {
		if body == nil {
			continue // failure already booked
		}
		var res coord.JobResult
		if err := json.Unmarshal(body, &res); err != nil {
			r.op(fmt.Errorf("job %s: decoding result: %w", p.ids[i], err))
			continue
		}
		got, err := encodeResult(specs[i].Kind, res)
		if err == nil && !bytes.Equal(got, want[i]) {
			err = fmt.Errorf("%s job %s: result differs from local execution (sha %s vs %s)",
				specs[i].Kind, p.ids[i], sha(got)[:16], sha(want[i])[:16])
		}
		r.op(err)
	}
	return p
}

// fetchResult reads a done job's result document — the body
// coord.FetchResult decodes — without decoding it.
func fetchResult(ctx context.Context, c *http.Client, base, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+coord.JobsPath+"/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("job %s result: status %d", id, resp.StatusCode)
	}
	return body, err
}

// fleetJobs runs the job set cold on a fresh store, then drops the
// job records and replays it through a new coordinator on the same
// store, repeating until the window closes.
func fleetJobs(r *run) error {
	var (
		setups, colds, replays, reads, tcolds []float64
		layers                                []map[string]float64
	)
	// One set-up sample precedes every pass, so that the samples span
	// the run the way the passes do.
	setup := func() error {
		s, err := bootSample(r.dir, bootFleet)
		setups = append(setups, s)
		return err
	}
	specs := fleetSpecs(r.seed)
	want, err := fleetReference(r, specs)
	if err != nil {
		return err
	}
	pace := newPacer(r.window, 1)
	if r.trace {
		pace.min = 2
	}
	for i := 0; pace.next(); i++ {
		if err := setup(); err != nil {
			return err
		}
		traced := r.trace && i%2 == 1
		tr := r.tr
		if !traced {
			tr = nil
		}
		l, cold, replay, polls, err := fleetCycle(r, tr, filepath.Join(r.dir, fmt.Sprintf("fleet-%d", i)), specs, want)
		if err != nil {
			return err
		}
		if traced {
			spans := r.tr.take()
			for layer, ms := range selfTimes(spans) {
				l["self_ms."+layer] = ms
			}
			r.spans = append(r.spans, spans...)
			tcolds = append(tcolds, cold)
			layers = append(layers, l)
			continue
		}
		colds = append(colds, cold)
		replays = append(replays, replay)
		reads = append(reads, polls...)
	}
	for len(setups) < setupRepeats {
		if err := setup(); err != nil {
			return err
		}
	}
	r.e2e["setup_s"] = median(setups)
	r.e2e["cold_s"] = median(colds)
	r.e2e["warm_s"] = median(replays)
	r.samples["setup_s"], r.samples["cold_s"], r.samples["warm_s"] = setups, colds, replays
	r.e2e["read_p50_ms"] = quantile(reads, 0.50)
	r.e2e["read_p99_ms"] = quantile(reads, 0.99)
	if r.trace {
		for k, v := range medianMaps(layers) {
			r.layer[k] = v
		}
		r.layer["trace.overhead_frac"] = median(tcolds)/median(colds) - 1
	}
	return nil
}

// fleetCycle boots a fleet, runs the job set cold, replays it through a
// new coordinator, and tears everything down.  With a tracer it also
// returns the cycle's per-layer metrics.
func fleetCycle(r *run, tr *tracer, dir string, specs []coord.JobSpec, want [][]byte) (l map[string]float64, cold, replay float64, polls []float64, err error) {
	ctx := context.Background()
	client := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	defer client.CloseIdleConnections()
	root := tr.start("fleet.cold", span{})
	backends, err := startBackends()
	if err != nil {
		return
	}
	defer stopAll(backends)
	f, err := startCoordinator(dir, backends, tr, root)
	if err != nil {
		return
	}

	runtime.GC() // every pass starts from the same heap state
	p := submitAll(r, tr, client, f.front.base, specs, want, root)
	tr.end(root)
	cold = seconds(p.wall)
	if tr != nil {
		l = coldLayers(ctx, r, tr, client, f, p)
	}
	stats := f.coord.Stats()
	f.stop()
	r.check(stats.UnitsComputed > 0 && stats.UnitsReplayed == 0, "cold pass computed %d and replayed %d units", stats.UnitsComputed, stats.UnitsReplayed)

	var replays []float64
	for k := 0; k < replayRepeats; k++ {
		// Dropping the job records makes the next submission restart
		// every job; the unit entries stay, so the run is a pure
		// replay.
		for _, id := range p.ids {
			key, err := store.Key("job/v1", id)
			if err != nil {
				return nil, 0, 0, nil, err
			}
			if err := f.store.Delete(key); err != nil {
				return nil, 0, 0, nil, err
			}
		}
		root := tr.start("fleet.replay", span{})
		g, err := startCoordinator(dir, backends, tr, root)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		runtime.GC()
		q := submitAll(r, tr, client, g.front.base, specs, want, root)
		tr.end(root)
		replays = append(replays, seconds(q.wall))
		// Status reads are sampled on replays only: during the cold
		// pass they compete for the CPU with the in-process backends,
		// which a real fleet runs on other machines.
		polls = append(polls, q.polls...)
		rs := g.coord.Stats()
		r.check(rs.UnitsComputed == 0, "replay computed %d units; want a pure replay", rs.UnitsComputed)
		if tr != nil && k == replayRepeats-1 {
			ss := g.store.Stats()
			_, diskBytes := g.store.Disk()
			l["coord.units_replayed"] = float64(rs.UnitsReplayed)
			l["store.writes"] = float64(ss.Writes)
			l["store.hits"] = float64(ss.Hits)
			l["store.misses"] = float64(ss.Misses)
			l["store.disk_bytes"] = float64(diskBytes)
			l["coord.replay_submit_ms"] = median(q.submits)
		}
		g.stop()
	}
	return l, cold, median(replays), polls, nil
}

// coldLayers derives the per-layer metrics of a traced cold pass from
// the coordinator's counters, the dispatch transport and a scrape of
// each backend's /v1/metrics.
func coldLayers(ctx context.Context, r *run, tr *tracer, client *http.Client, f *fleet, p pass) map[string]float64 {
	l := make(map[string]float64)
	st := f.coord.Stats()
	l["coord.submit_ms"] = median(p.submits)
	l["coord.result_fetch_ms"] = median(p.fetches)
	l["coord.units_computed"] = float64(st.UnitsComputed)
	l["coord.units_stolen"] = float64(st.UnitsStolen)
	l["coord.retry_attempts"] = float64(f.coord.RetryStats().Retries)
	l["engine.ledger_steals"] = float64(p.steals)

	var rtts []float64
	var bytes int64
	busy := make(map[string][][2]int64)
	for _, x := range f.dispatch.exchanges() {
		rtts = append(rtts, millis(x.end.Sub(x.start)))
		bytes += x.bytes
		busy[x.host] = append(busy[x.host], [2]int64{x.start.UnixNano(), x.end.UnixNano()})
	}
	l["remote.unit_rtt_p50_ms"] = quantile(rtts, 0.50)
	l["remote.unit_rtt_p99_ms"] = quantile(rtts, 0.99)
	l["remote.requests"] = float64(len(rtts))
	l["remote.bytes"] = float64(bytes)

	var handled uint64
	var handlerMs float64
	for _, b := range f.backends {
		sp := tr.start("obs.scrape", span{})
		m, err := scrape(ctx, client, b.base)
		tr.end(sp)
		r.op(err)
		for _, ep := range []string{"run_session", "run_sweep"} {
			n, shed, ms := endpointTotal(m, ep)
			handled += n + shed
			handlerMs += ms
		}
	}
	r.check(handled == uint64(len(rtts)), "backends answered %d unit requests, dispatcher saw %d", handled, len(rtts))
	if handled > 0 {
		l["service.run_session_ms"] = handlerMs / float64(handled)
		l["remote.overhead_ms"] = sum(rtts)/float64(len(rtts)) - handlerMs/float64(handled)
	}
	// A backend is busy while at least one unit request to it is in
	// flight, as the dispatcher sees it.
	var busyNs int64
	for _, iv := range busy {
		busyNs += covered(iv, p.start.UnixNano(), p.start.Add(p.wall).UnixNano())
	}
	l["fleet.backend_busy_frac"] = float64(busyNs) / float64(int64(len(f.backends))*int64(p.wall))
	return l
}
