package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fastrand"
	"repro/internal/monitor"
	"repro/internal/perf"
	"repro/internal/service"
)

// Arrival processes and request mixes a scenario can combine.
const (
	arrivalSteady = "steady" // Poisson arrivals at a constant rate
	arrivalBursty = "bursty" // Poisson arrivals under an on/off envelope

	mixArtefacts = "artefacts" // GET study/artefacts/sweep
	mixUnits     = "units"     // POST run/session
	mixMixed     = "mixed"     // both, evenly
)

// Bursty traffic alternates burstPeriod halves at burstHi / burstLo
// times the mean rate, so the long-run average still equals Rate.
const (
	burstPeriod = time.Second
	burstHi     = 1.6
	burstLo     = 0.4
)

// loadConfig describes one load scenario against one target.
type loadConfig struct {
	Scenario string        // name for reports ("steady-artefacts")
	Arrival  string        // arrivalSteady | arrivalBursty
	Mix      string        // mixArtefacts | mixUnits | mixMixed
	Rate     float64       // mean arrivals per second
	Duration time.Duration // measured window
	Warmup   time.Duration // unrecorded traffic before the window;
	// warmup also primes every distinct request once (caches, ETags),
	// so 0 measures a cold daemon
	Seed    uint64
	BaseURL string       // target daemon
	Client  *http.Client // nil uses http.DefaultClient
}

// loadReport is one scenario's measured outcome.
type loadReport struct {
	Scenario string  `json:"scenario"`
	Arrival  string  `json:"arrival"`
	Mix      string  `json:"mix"`
	Rate     float64 `json:"offered_rps"`

	Offered        int  `json:"offered"`   // arrivals in the window
	Completed      int  `json:"completed"` // 200s + 304s
	NotModified    int  `json:"not_modified"`
	Errors         int  `json:"errors"` // transport failures + 5xx + 4xx outside the protocol
	Shed           int  `json:"shed"`   // 429s
	RetryAfterSeen bool `json:"retry_after_seen"`

	Elapsed    time.Duration `json:"elapsed_ns"`
	Throughput float64       `json:"rps"` // completed per elapsed second
	P50        time.Duration `json:"p50_ns"`
	P95        time.Duration `json:"p95_ns"`
	P99        time.Duration `json:"p99_ns"`
	Max        time.Duration `json:"max_ns"`

	// SaturationRPS is set by the -saturate ramp: the highest measured
	// throughput the target sustained within the ramp's SLO.
	SaturationRPS float64 `json:"saturation_rps,omitempty"`

	// Server-side deltas, scraped from the target's /v1/metrics
	// before and after the measured window.  The client sees a 429;
	// the server knows why — these fold the daemon's own accounting
	// (sheds booked, cache and store hit rates) into the load report.
	// Absent (ServerScraped false) when the target's metrics endpoint
	// was unreachable; a scrape failure never fails the run.
	ServerScraped bool    `json:"server_scraped,omitempty"`
	ServerShed    uint64  `json:"server_shed,omitempty"`
	ServerHitRate float64 `json:"server_hit_rate,omitempty"`
}

// serverSample is the slice of the daemon's /v1/metrics document the
// harness diffs across the measured window.
type serverSample struct {
	shed         uint64 // requests the daemon shed with 429
	hits, misses uint64 // campaign-cache + store outcomes
}

// scrapeServer fetches the target's JSON metrics document, reporting
// ok == false on any failure (absent endpoint, old daemon, transport
// error) so callers can silently skip the server-side columns.
func scrapeServer(client *http.Client, baseURL string) (serverSample, bool) {
	resp, err := client.Get(baseURL + "/v1/metrics")
	if err != nil {
		return serverSample{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return serverSample{}, false
	}
	var m service.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return serverSample{}, false
	}
	var s serverSample
	for _, ep := range m.Endpoints {
		s.shed += ep.Shed
	}
	s.hits = m.Cache.MemoryHits + m.Cache.DiskHits
	s.misses = m.Cache.Computes
	if m.Store != nil {
		s.hits += m.Store.Hits
		s.misses += m.Store.Misses
	}
	return s, true
}

// arrivals is the deterministic open-loop arrival process: a virtual
// clock advanced by exponential inter-arrival gaps, modulated by the
// burst envelope.  The whole schedule is a pure function of the seed.
type arrivals struct {
	rng    fastrand.PCG
	rate   float64
	bursty bool
	vt     time.Duration // virtual time of the last arrival
}

func newArrivals(seed uint64, arrival string, rate float64) *arrivals {
	return &arrivals{
		rng:    fastrand.New(seed, 0x10ad),
		rate:   rate,
		bursty: arrival == arrivalBursty,
	}
}

// next advances to the following arrival and returns its virtual
// time (offset from the window start).
func (a *arrivals) next() time.Duration {
	rate := a.rate
	if a.bursty {
		if (a.vt/burstPeriod)%2 == 0 {
			rate *= burstHi
		} else {
			rate *= burstLo
		}
	}
	// Exponential inter-arrival: -ln(U)/rate, guarding U=0.
	u := a.rng.Float64()
	for u == 0 {
		u = a.rng.Float64()
	}
	gap := time.Duration(-math.Log(u) / rate * float64(time.Second))
	a.vt += gap
	return a.vt
}

// request is one generated HTTP request.
type request struct {
	method string
	path   string
	body   []byte
}

// reqGen deterministically generates the scenario's request sequence.
type reqGen struct {
	rng   fastrand.PCG
	mix   string
	units [][]byte // pre-marshaled single-unit payloads
}

// artefactPaths are the conditional-request endpoints a steady reader
// would poll, plus a sweep (deliberately ETag-less).
var artefactPaths = []string{
	"/v1/study?scale=quick",
	"/v1/artefacts/table/1",
	"/v1/artefacts/table/2",
	"/v1/artefacts/figure/3",
	"/v1/artefacts/figure/7",
	"/v1/sweep?param=ce&samples=2&seed=17",
}

// loadUnitCount is how many distinct session units the unit mix
// rotates through; small specs keep one unit's compute in the tens of
// microseconds so the wire, not the simulator, is what's measured.
const loadUnitCount = 16

func newReqGen(seed uint64, mix string) *reqGen {
	g := &reqGen{rng: fastrand.New(seed, 0x4e47), mix: mix}
	for i := range loadUnitCount {
		spec := core.SessionSpec{
			Samples:  1,
			Sampling: monitor.SampleSpec{Snapshots: 1, GapCycles: 2_000},
			Seed:     uint64(100 + i),
		}
		payload, _ := json.Marshal(core.StudyUnit{ID: i + 1, Random: &spec})
		g.units = append(g.units, payload)
	}
	return g
}

// next returns the i-th request of the schedule.
func (g *reqGen) next() request {
	mix := g.mix
	if mix == mixMixed {
		if g.rng.IntN(2) == 0 {
			mix = mixArtefacts
		} else {
			mix = mixUnits
		}
	}
	if mix == mixArtefacts {
		return request{method: http.MethodGet, path: artefactPaths[g.rng.IntN(len(artefactPaths))]}
	}
	return request{method: http.MethodPost, path: "/v1/run/session", body: g.units[g.rng.IntN(len(g.units))]}
}

// primeTargets returns every distinct request the mix can generate,
// for the one-each warmup pass.
func (g *reqGen) primeTargets() []request {
	var out []request
	if g.mix == mixArtefacts || g.mix == mixMixed {
		for _, p := range artefactPaths {
			out = append(out, request{method: http.MethodGet, path: p})
		}
	}
	if g.mix == mixUnits || g.mix == mixMixed {
		for _, b := range g.units {
			out = append(out, request{method: http.MethodPost, path: "/v1/run/session", body: b})
		}
	}
	return out
}

// loader drives one scenario and accumulates its outcome.
type loader struct {
	cfg    loadConfig
	gen    *reqGen
	client *http.Client

	etags sync.Map // path -> ETag last seen, for If-None-Match

	mu             sync.Mutex
	lats           []time.Duration
	completed      int
	notModified    int
	errors         int
	shed           int
	retryAfterSeen bool
}

func validateConfig(cfg loadConfig) error {
	switch cfg.Arrival {
	case arrivalSteady, arrivalBursty:
	default:
		return fmt.Errorf("unknown arrival process %q (valid: %s, %s)", cfg.Arrival, arrivalSteady, arrivalBursty)
	}
	switch cfg.Mix {
	case mixArtefacts, mixUnits, mixMixed:
	default:
		return fmt.Errorf("unknown request mix %q (valid: %s, %s, %s)", cfg.Mix, mixArtefacts, mixUnits, mixMixed)
	}
	if cfg.Rate <= 0 {
		return fmt.Errorf("rate must be positive, got %g", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("duration must be positive, got %v", cfg.Duration)
	}
	return nil
}

// runLoad executes one scenario and returns its report.
func runLoad(cfg loadConfig) (*loadReport, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	l := &loader{cfg: cfg, gen: newReqGen(cfg.Seed, cfg.Mix), client: cfg.Client}
	if l.client == nil {
		l.client = http.DefaultClient
	}

	if cfg.Warmup > 0 {
		// Prime every distinct request once (campaign caches, unit
		// store records, ETags), then run unrecorded traffic so the
		// measured window starts on a warm, already-loaded daemon.
		for _, r := range l.gen.primeTargets() {
			l.fire(r, false)
		}
		l.drive(newArrivals(cfg.Seed^1, cfg.Arrival, cfg.Rate), cfg.Warmup, false)
	}

	before, scrapedBefore := scrapeServer(l.client, cfg.BaseURL)
	start := time.Now()
	offered := l.drive(newArrivals(cfg.Seed, cfg.Arrival, cfg.Rate), cfg.Duration, true)
	elapsed := time.Since(start)
	after, scrapedAfter := scrapeServer(l.client, cfg.BaseURL)

	l.mu.Lock()
	defer l.mu.Unlock()
	rep := &loadReport{
		Scenario:       cfg.Scenario,
		Arrival:        cfg.Arrival,
		Mix:            cfg.Mix,
		Rate:           cfg.Rate,
		Offered:        offered,
		Completed:      l.completed,
		NotModified:    l.notModified,
		Errors:         l.errors,
		Shed:           l.shed,
		RetryAfterSeen: l.retryAfterSeen,
		Elapsed:        elapsed,
	}
	if elapsed > 0 {
		rep.Throughput = float64(l.completed) / elapsed.Seconds()
	}
	rep.P50, rep.P95, rep.P99, rep.Max = percentiles(l.lats)
	if scrapedBefore && scrapedAfter {
		rep.ServerScraped = true
		// Keep the counter delta in uint64 end to end; a daemon
		// restart mid-window makes it wrap, which the guard treats
		// as "no usable delta" rather than a garbage count.
		if after.shed >= before.shed {
			rep.ServerShed = after.shed - before.shed
		}
		hits := after.hits - before.hits
		if total := hits + (after.misses - before.misses); total > 0 {
			rep.ServerHitRate = float64(hits) / float64(total)
		}
	}
	return rep, nil
}

// drive fires the arrival schedule open-loop for window: each arrival
// dispatches on its own goroutine at its scheduled time whether or
// not earlier requests have answered — a slow target faces mounting
// concurrency, exactly like production traffic, instead of a
// politely waiting closed loop.  Returns the number of arrivals.
func (l *loader) drive(sched *arrivals, window time.Duration, record bool) int {
	var wg sync.WaitGroup
	start := time.Now()
	offered := 0
	for {
		at := sched.next()
		if at > window {
			break
		}
		req := l.gen.next()
		if sleep := time.Until(start.Add(at)); sleep > 0 {
			time.Sleep(sleep)
		}
		offered++
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.fire(req, record)
		}()
	}
	wg.Wait()
	return offered
}

// fire sends one request and classifies its outcome.
func (l *loader) fire(r request, record bool) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, l.cfg.BaseURL+r.path, body)
	if err != nil {
		l.count(func() { l.errors++ }, record)
		return
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.method == http.MethodGet {
		if etag, ok := l.etags.Load(r.path); ok {
			req.Header.Set("If-None-Match", etag.(string))
		}
	}

	begin := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		l.count(func() { l.errors++ }, record)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	lat := time.Since(begin)

	if etag := resp.Header.Get("ETag"); etag != "" {
		l.etags.Store(r.path, etag)
	}
	switch {
	case resp.StatusCode == http.StatusOK, resp.StatusCode == http.StatusNotModified:
		nm := resp.StatusCode == http.StatusNotModified
		l.count(func() {
			l.completed++
			if nm {
				l.notModified++
			}
			l.lats = append(l.lats, lat)
		}, record)
	case resp.StatusCode == http.StatusTooManyRequests:
		retryAfter := resp.Header.Get("Retry-After") != ""
		l.count(func() {
			l.shed++
			if retryAfter {
				l.retryAfterSeen = true
			}
		}, record)
	default:
		l.count(func() { l.errors++ }, record)
	}
}

// count applies a counter update under the lock, unless the request
// fell in an unrecorded (warmup) phase.
func (l *loader) count(update func(), record bool) {
	if !record {
		return
	}
	l.mu.Lock()
	update()
	l.mu.Unlock()
}

// percentiles returns the p50/p95/p99/max of the recorded latencies.
func percentiles(lats []time.Duration) (p50, p95, p99, max time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0, 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	return at(0.50), at(0.95), at(0.99), sorted[len(sorted)-1]
}

// perfResult renders the report as one row of the
// BENCH_service-load.json layer: p50 latency is the gated ns/op, and
// the rest of the load profile rides along as custom metrics (which
// inform benchdiff reports but never gate).
func (r *loadReport) perfResult() perf.Result {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	metrics := map[string]float64{
		"p95-ms": ms(r.P95),
		"p99-ms": ms(r.P99),
		"rps":    r.Throughput,
	}
	if n := r.Completed + r.Errors + r.Shed; n > 0 {
		metrics["err-rate"] = float64(r.Errors) / float64(n)
		metrics["shed-rate"] = float64(r.Shed) / float64(n)
	}
	if r.SaturationRPS > 0 {
		metrics["saturation-rps"] = r.SaturationRPS
	}
	if r.ServerScraped {
		metrics["server-shed"] = float64(r.ServerShed)
		metrics["server-hit-rate"] = r.ServerHitRate
	}
	return perf.Result{
		Name:       "Load" + camel(r.Scenario),
		Iterations: int64(r.Completed),
		NsPerOp:    float64(r.P50),
		Metrics:    metrics,
	}
}

// camel turns "steady-artefacts" into "SteadyArtefacts".
func camel(s string) string {
	parts := strings.Split(s, "-")
	for i, p := range parts {
		if p != "" {
			parts[i] = strings.ToUpper(p[:1]) + p[1:]
		}
	}
	return strings.Join(parts, "")
}

// summarize prints the human-readable scenario row.
func (r *loadReport) summarize(w io.Writer) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fmt.Fprintf(w, "%-18s %7.0f rps offered  %7.1f rps served  p50 %7.3fms  p95 %7.3fms  p99 %7.3fms",
		r.Scenario, r.Rate, r.Throughput, ms(r.P50), ms(r.P95), ms(r.P99))
	if r.NotModified > 0 {
		fmt.Fprintf(w, "  %d revalidated", r.NotModified)
	}
	if r.Shed > 0 {
		fmt.Fprintf(w, "  %d shed", r.Shed)
	}
	if r.Errors > 0 {
		fmt.Fprintf(w, "  %d ERRORS", r.Errors)
	}
	if r.SaturationRPS > 0 {
		fmt.Fprintf(w, "  saturation ~%.0f rps", r.SaturationRPS)
	}
	if r.ServerScraped {
		fmt.Fprintf(w, "  [server: %d shed, %.0f%% hit rate]", r.ServerShed, r.ServerHitRate*100)
	}
	fmt.Fprintln(w)
}
