package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fastrand"
	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/store"
)

const (
	// serveRate is the open-loop arrival rate, in requests per second.
	// About one request in five is a unit write of roughly 4 ms of
	// simulation, so writes keep about a quarter of two cores busy
	// and, with the reads and HTTP handling, about two fifths.  At
	// higher rates the read tail follows the host's noise more than
	// the system.
	serveRate = 600
	// unitShare is the fraction of arrivals that are unit writes.
	unitShare = 0.2
	// verifyEvery recomputes every n-th unit write locally after the
	// window and compares the bytes.
	verifyEvery = 8
	// primeRounds is how many times a run boots a daemon and primes
	// it; cold and warm times are medians over the rounds.
	primeRounds = 5
	// warmRepeats is how many warm daemons read each primed store, and
	// warmPasses how many times each reads every artefact: enough work
	// that a pass is not a few milliseconds of noise.
	warmRepeats = 5
	warmPasses  = 3
	// maxLate is the generator lateness (p99, ms) past which a window
	// is not open-loop any more and the run is marked invalid.
	maxLate = 250
	// maxOutstanding bounds the generator's goroutines; an arrival
	// past it waits, and the wait shows as generator lateness.
	maxOutstanding = 1024
)

// request is one scheduled arrival.
type request struct {
	due        time.Duration // from the window's start
	path       string        // GET path, empty for a unit write
	revalidate bool
	unit       core.StudyUnit
}

// schedule draws a window's arrivals from the seed and the window's
// part number alone: Poisson arrivals at serveRate; a unit write with
// probability unitShare, otherwise a read of the study summary or one
// artefact, half of the reads revalidating with If-None-Match.  Unit
// writes are fresh sessions, never repeated within the run.
func schedule(seed, part uint64, window time.Duration, artefacts []string) []request {
	rng := fastrand.New(seed, 0x5e27e+part)
	var out []request
	var t time.Duration
	for i := 0; ; i++ {
		t += time.Duration(-math.Log(1-rng.Float64()) / serveRate * float64(time.Second))
		if t >= window {
			return out
		}
		rq := request{due: t}
		if rng.Float64() < unitShare {
			rq.unit = core.StudyUnit{ID: i + 1, Random: &core.SessionSpec{
				Samples:  1,
				Sampling: monitor.SampleSpec{Snapshots: 5, GapCycles: 3_000},
				Seed:     seed<<24 + part<<20 + uint64(i),
			}}
		} else {
			if k := rng.IntN(len(artefacts) + 4); k < 4 {
				rq.path = "/v1/study?scale=quick"
			} else {
				rq.path = artefacts[k-4]
			}
			rq.revalidate = rng.IntN(2) == 0
		}
		out = append(out, rq)
	}
}

// artefactPaths lists every table and figure under /v1/artefacts.
func artefactPaths() []string {
	var out []string
	for _, t := range experiments.Tables() {
		out = append(out, "/v1/artefacts/table/"+t.Name+"?scale=quick")
	}
	for _, f := range experiments.Figures() {
		out = append(out, "/v1/artefacts/figure/"+f.Name+"?scale=quick")
	}
	return out
}

// served is what a warm daemon answered for one read path: the body
// every later read must repeat, and its ETag.
type served struct {
	body []byte
	etag string
}

// serveOpen boots fx8d daemons over fresh stores, primes the quick
// campaign cold through each, reads it back warm through further
// daemons over the same store, then drives seeded open-loop traffic
// at the last one.
func serveOpen(r *run) error {
	ctx := context.Background()
	ref, err := core.RunStudyRunner(ctx, core.QuickScale(), 0, core.LocalStudyRunner(), nil)
	if err != nil {
		return err
	}
	data, err := core.EncodeStudy(ref)
	if err != nil {
		return err
	}
	var first string
	checkFingerprint(r, "quick", core.QuickScale().BaseSeed, data, &first)
	arts := artefactPaths()
	window := r.window * 3 / 4

	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
	}}
	defer client.CloseIdleConnections()

	// Each round takes a set-up sample — a store opened, a daemon
	// booted over it and the schedule drawn — then boots a daemon over
	// a fresh store, primes the campaign cold through it, and reads it
	// back warm through further daemons over the same store.  The last
	// round's daemon then takes the open-loop traffic.
	var (
		setups, colds, warms []float64
		d                    *daemon
		sched                []request
		want                 map[string]served
	)
	for i := 0; i < primeRounds; i++ {
		if d != nil {
			d.stop()
		}
		setup, err := bootSample(r.dir, func(dir string) (func(), error) {
			d, err := startServe(dir)
			if err != nil {
				return nil, err
			}
			sched = schedule(r.seed, 0, window, arts)
			return d.stop, nil
		})
		if err != nil {
			return err
		}
		setups = append(setups, setup)
		dir := filepath.Join(r.dir, fmt.Sprintf("serve-%d", i))
		if d, err = startServe(dir); err != nil {
			return err
		}
		var resp *http.Response
		runtime.GC() // every round starts from the same heap state
		cold := timed(func() { resp, err = get(ctx, client, d.base+"/v1/study?scale=quick", "") })
		if err != nil {
			d.stop()
			return err
		}
		r.op(expect(resp, http.StatusOK))
		colds = append(colds, seconds(cold))
		for k := 0; k < warmRepeats; k++ {
			var warm time.Duration
			runtime.GC()
			if want, warm, err = warmRead(r, ctx, client, dir, ref, arts); err != nil {
				d.stop()
				return err
			}
			warms = append(warms, seconds(warm))
		}
	}
	defer d.stop()
	r.e2e["setup_s"] = median(setups)
	r.e2e["cold_s"] = median(colds)
	r.e2e["warm_s"] = median(warms)
	r.samples["setup_s"], r.samples["cold_s"], r.samples["warm_s"] = setups, colds, warms

	if !r.trace {
		g := drive(r, nil, client, d.base, sched, want)
		r.e2e["read_p50_ms"] = quantile(g.reads, 0.50)
		r.e2e["read_p99_ms"] = quantile(g.reads, 0.99)
		verifyUnits(r, g)
		return nil
	}
	// Traced: an untraced half-window as the overhead baseline, then a
	// traced half-window with server scrapes around and during it.
	base := drive(r, nil, client, d.base, schedule(r.seed, 1, window/2, arts), want)
	verifyUnits(r, base)
	r.e2e["read_p50_ms"] = quantile(base.reads, 0.50)
	r.e2e["read_p99_ms"] = quantile(base.reads, 0.99)
	before, err := promScrape(ctx, r.tr, client, d.base)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var waiting []float64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if m, err := promScrape(ctx, r.tr, client, d.base); err == nil {
					waiting = append(waiting, m[`fx8d_admission_waiting`])
				}
			}
		}
	}()
	g := drive(r, r.tr, client, d.base, schedule(r.seed, 2, window/2, arts), want)
	close(stop)
	sampler.Wait()
	verifyUnits(r, g)
	after, err := promScrape(ctx, r.tr, client, d.base)
	if err != nil {
		return err
	}
	spans := r.tr.take()
	r.spans = append(r.spans, spans...)
	l := r.layer
	for layer, ms := range selfTimes(spans) {
		l["self_ms."+layer] = ms
	}
	for _, ep := range []string{"study", "artefacts", "run_session"} {
		l["service."+ep+"_p50_ms"] = histQuantile(before, after, ep, 0.50) * 1e3
		l["service."+ep+"_p99_ms"] = histQuantile(before, after, ep, 0.99) * 1e3
	}
	delta := func(prefix string) (n float64) {
		for k, v := range after {
			if strings.HasPrefix(k, prefix) {
				n += v - before[k]
			}
		}
		return n
	}
	l["service.shed"] = delta("fx8d_requests_shed_total{")
	l["service.not_modified"] = float64(g.notModified)
	l["service.admission_waiting"] = sum(waiting) / float64(max(len(waiting), 1))
	for _, tier := range []string{"memory", "disk", "compute"} {
		l["core.cache_"+tier] = delta(`fx8d_cache_outcomes_total{tier="` + tier + `"}`)
	}
	l["obs.scrape_ms"] = median(durationsMs(named(spans, "obs.scrape")))
	l["gen.late_ms"] = quantile(g.late, 0.99)
	l["gen.unit_p50_ms"] = quantile(g.units, 0.50)
	l["gen.unit_p99_ms"] = quantile(g.units, 0.99)
	l["gen.read_p50_ms"] = quantile(g.reads, 0.50)
	l["gen.read_p99_ms"] = quantile(g.reads, 0.99)
	l["trace.overhead_frac"] = quantile(g.reads, 0.5)/quantile(base.reads, 0.5) - 1
	return nil
}

// startServe boots an fx8d whose campaign cache sits on a store at dir.
func startServe(dir string) (*daemon, error) {
	s, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	cache := core.NewStudyCache()
	cache.SetStore(s)
	return startDaemon(service.Config{Cache: cache})
}

func get(ctx context.Context, c *http.Client, url, etag string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	return c.Do(req)
}

// expect drains and closes a response, reporting an unexpected status.
func expect(resp *http.Response, status int) error {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != status {
		return fmt.Errorf("%s: status %d, want %d", resp.Request.URL.Path, resp.StatusCode, status)
	}
	return nil
}

// warmRead boots a further daemon over the primed store and reads the
// study summary from it, then every artefact warmPasses times,
// checking each against the local reference; the bodies and ETags it
// returns are what every later read must repeat.  The time covers the
// reads, not the boot.
func warmRead(r *run, ctx context.Context, c *http.Client, dir string, ref *core.Study, arts []string) (map[string]served, time.Duration, error) {
	d, err := startServe(dir)
	if err != nil {
		return nil, 0, err
	}
	defer d.stop()
	want := make(map[string]served)
	paths := []string{"/v1/study?scale=quick"}
	for k := 0; k < warmPasses; k++ {
		paths = append(paths, arts...)
	}
	var readErr error
	t := timed(func() {
		for _, p := range paths {
			resp, err := get(ctx, c, d.base+p, "")
			if err != nil {
				readErr = err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				readErr = fmt.Errorf("warm read %s: status %d, %v", p, resp.StatusCode, err)
				return
			}
			if prev, ok := want[p]; ok && !bytes.Equal(prev.body, body) {
				readErr = fmt.Errorf("warm read %s: body changed between reads", p)
				return
			}
			want[p] = served{body: body, etag: resp.Header.Get("ETag")}
		}
	})
	if readErr != nil {
		return nil, 0, readErr
	}
	m, err := scrape(ctx, c, d.base)
	if err != nil {
		return nil, 0, err
	}
	r.op(errorIf(m.Cache.DiskHits != 1 || m.Cache.Computes != 0, "warm daemon cache %+v, want one disk hit", m.Cache))

	var sum service.StudyResponse
	err = json.Unmarshal(want["/v1/study?scale=quick"].body, &sum)
	r.op(errorIf(err != nil || sum.Config != ref.Config || sum.Overall != ref.OverallMeasures,
		"served study summary does not match the local campaign"))
	for _, p := range arts {
		var a service.ArtefactResponse
		err := json.Unmarshal(want[p].body, &a)
		name := strings.TrimSuffix(p[strings.LastIndex(p, "/")+1:], "?scale=quick")
		render := experiments.RenderTable
		if a.Kind == "figure" {
			render = experiments.RenderFigure
		}
		text, ok := render(name, ref)
		r.op(errorIf(err != nil || !ok || a.Text != text || want[p].etag == "", "served %s differs from the local rendering", p))
	}
	return want, t, nil
}

// generated is what one open-loop window measured.
type generated struct {
	reads, units, late []float64 // ms from each request's due time
	notModified        int
	sampled            []sampledUnit
}

// sampledUnit is a unit write kept for local recomputation.
type sampledUnit struct {
	unit core.StudyUnit
	body []byte
}

// drive sends sched open-loop: each request leaves at its due time
// whatever the state of earlier ones, and its latency counts from
// that due time, so a stall shows in every request it delays.
func drive(r *run, tr *tracer, c *http.Client, base string, sched []request, want map[string]served) generated {
	var (
		mu  sync.Mutex
		g   generated
		wg  sync.WaitGroup
		sem = make(chan struct{}, maxOutstanding)
	)
	start := time.Now()
	for i, rq := range sched {
		time.Sleep(time.Until(start.Add(rq.due)))
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			due := start.Add(rq.due)
			late := millis(time.Since(due))
			kind := "gen.read"
			if rq.path == "" {
				kind = "gen.unit"
			}
			sp := tr.start(kind, span{})
			body, notModified, err := send(c, base, rq, want)
			tr.end(sp)
			lat := millis(time.Since(due))
			mu.Lock()
			defer mu.Unlock()
			g.late = append(g.late, late)
			r.op(err)
			if rq.path == "" {
				g.units = append(g.units, lat)
				if i%verifyEvery == 0 && err == nil {
					g.sampled = append(g.sampled, sampledUnit{rq.unit, body})
				}
				return
			}
			g.reads = append(g.reads, lat)
			if notModified {
				g.notModified++
			}
		}()
	}
	wg.Wait()
	late := quantile(g.late, 0.99)
	r.check(late <= maxLate, "generator ran %.0f ms late at p99; the window was not open-loop", late)
	return g
}

// send performs one scheduled request and checks its answer.
func send(c *http.Client, base string, rq request, want map[string]served) (body []byte, notModified bool, err error) {
	ctx := context.Background()
	var resp *http.Response
	if rq.path == "" {
		payload, err := json.Marshal(rq.unit)
		if err != nil {
			return nil, false, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/run/session", bytes.NewReader(payload))
		if err != nil {
			return nil, false, err
		}
		req.Header.Set("Content-Type", "application/json")
		if resp, err = c.Do(req); err != nil {
			return nil, false, err
		}
	} else {
		etag := ""
		if rq.revalidate {
			etag = want[rq.path].etag
		}
		if resp, err = get(ctx, c, base+rq.path, etag); err != nil {
			return nil, false, err
		}
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, err
	}
	switch {
	case rq.path == "":
		var res core.StudyUnitResult
		if resp.StatusCode != http.StatusOK {
			return nil, false, fmt.Errorf("unit %d: status %d", rq.unit.ID, resp.StatusCode)
		}
		if err := json.Unmarshal(body, &res); err != nil || res.Random == nil || res.Random.ID != rq.unit.ID ||
			len(res.Random.Samples) != rq.unit.Random.Samples {
			return nil, false, fmt.Errorf("unit %d: malformed result", rq.unit.ID)
		}
		return body, false, nil
	case rq.revalidate:
		return nil, true, errorIf(resp.StatusCode != http.StatusNotModified, "%s: status %d, want 304", rq.path, resp.StatusCode)
	}
	return nil, false, errorIf(resp.StatusCode != http.StatusOK || !bytes.Equal(body, want[rq.path].body),
		"%s: status %d or body differs from the warm read", rq.path, resp.StatusCode)
}

// verifyUnits recomputes the sampled unit writes locally and compares
// the served bytes with the local encoding.
func verifyUnits(r *run, g generated) {
	for _, s := range g.sampled {
		res, err := core.RunStudyUnit(s.unit)
		if err == nil {
			var enc []byte
			if enc, err = json.Marshal(res); err == nil && !bytes.Equal(bytes.TrimSpace(s.body), enc) {
				err = fmt.Errorf("unit %d: served result differs from local execution", s.unit.ID)
			}
		}
		r.check(err == nil, "%v", err)
	}
}

// promScrape reads a daemon's Prometheus exposition into a map from
// series (name plus labels) to value.
func promScrape(ctx context.Context, tr *tracer, c *http.Client, base string) (map[string]float64, error) {
	sp := tr.start("obs.scrape", span{})
	defer tr.end(sp)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics?format=prometheus", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// histQuantile estimates an endpoint's request-duration quantile, in
// seconds, over the requests recorded between two scrapes, by linear
// interpolation within the cumulative buckets.
func histQuantile(before, after map[string]float64, endpoint string, q float64) float64 {
	prefix := `fx8d_request_duration_seconds_bucket{endpoint="` + endpoint + `",le="`
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return math.NaN()
	}
	rank := q * bs[len(bs)-1].n
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-prev)/math.Max(b.n-prev, 1)
		}
		lo, prev = b.le, b.n
	}
	return lo
}
