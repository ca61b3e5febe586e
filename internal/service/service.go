// Package service is the fx8d measurement service: it exposes the
// study's campaign artefacts — the full study, every table and
// figure, and the parameter sweeps — as addressable HTTP resources
// backed by the two-tier campaign cache (memory -> disk -> compute).
// Expensive endpoints run on top of the session-execution engine
// behind a bounded admission semaphore; identical concurrent requests
// singleflight down to one campaign run.  The daemon in cmd/fx8d
// wraps this package in a listener with graceful shutdown.
//
// Endpoints (all JSON unless noted):
//
//	GET  /v1/healthz                 liveness, uptime, in-flight count
//	GET  /v1/study?scale=S           campaign summary (quick|paper)
//	GET  /v1/artefacts/{kind}/{name} rendered table or figure
//	GET  /v1/sweep?param=P           sweep sched|cache|ce
//	GET  /v1/metrics                 per-endpoint latency + cache hit rates
//	GET  /v1/trace/{id}              spans recorded under one request ID
//	POST /v1/purge                   drop both cache tiers
//	POST /v1/run/session             execute one campaign session unit
//	POST /v1/run/sweep               execute one sweep-point unit
//	POST /v1/jobs                    submit a campaign job (201/200)
//	GET  /v1/jobs                    list known jobs
//	GET  /v1/jobs/{id}               job state machine + progress
//	GET  /v1/jobs/{id}/result        finished job's payload
//	GET  /v1/jobs/{id}/events        SSE stream of job progress
//	DELETE /v1/jobs/{id}             cancel a running job
//	POST /v1/backends/register       announce a worker (TTL'd)
//	GET  /v1/backends                live fleet membership
//
// The /v1/jobs endpoints are internal/coord's job-resource API:
// campaigns as persistent, resumable resources with checkpoint in the
// unit cache (see that package's doc for the lifecycle and resume
// semantics).  A campaign is watched as a job: POST its spec to
// /v1/jobs (idempotent, so an equal spec joins the existing job) and
// stream /v1/jobs/{id}/events.  Every non-2xx response from any
// endpoint carries the unified error envelope — remote.ErrorResponse:
// a machine-readable code, the message, and the request ID for trace
// correlation.
//
// The /v1/run endpoints are the serving side of fleet execution
// (internal/coord dispatching through internal/remote): each request
// carries JSON work units, runs behind the same admission semaphore
// as the other expensive endpoints, and is cached per unit in the
// campaign store, so a re-routed unit that was already computed here
// is served from disk.
//
// # Conditional requests
//
// Every campaign artefact is a pure function of its canonically
// encoded configuration, so /v1/study and /v1/artefacts/{kind}/{name}
// carry a strong ETag derived from the same sha256 content address
// the campaign store uses.  A request
// revalidating with If-None-Match gets 304 Not Modified before any
// campaign work happens — revalidation is free even when the
// campaign is not.  (/v1/sweep responses embed cache-tier provenance
// in the body, so they are deliberately ETag-less.)
//
// # Backpressure
//
// Admission is doubly bounded: MaxInFlight expensive requests run
// concurrently and at most MaxQueue more may wait.  A request past
// both bounds is shed immediately with 429 Too Many Requests and a
// Retry-After header instead of queuing unboundedly — under
// overload the daemon degrades to fast rejections, never to an
// unbounded latency tail.
//
// # Observability
//
// Every request is measured into lock-free obs counters and sharded
// latency histograms; /v1/metrics renders them as the historical
// JSON document or, when the request asks (?format=prometheus or a
// text/plain Accept header), as Prometheus text exposition covering
// the endpoints plus the engine's worker pool, the campaign cache,
// and the store.  Every request also carries an X-Request-Id —
// assigned here if the client sent none, echoed on the response —
// and a request arriving with a caller-supplied ID records one span
// under it; GET /v1/trace/{id} returns the spans, which for a fleet
// job (whose coordinator sends the job ID on every unit POST)
// reconstructs which units ran on this daemon and how long each
// took.  Tracing is opt-in by supplying the ID, so uncorrelated
// traffic never evicts a campaign's trace.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/store"
)

// Version and Commit identify the running build in /v1/healthz.
// cmd/fx8d stamps them at link time:
//
//	go build -ldflags "-X repro/internal/service.Version=v1.2.3 \
//	                   -X repro/internal/service.Commit=abc1234"
var (
	Version = "dev"
	Commit  = "unknown"
)

// Config sizes a Server.
type Config struct {
	// Cache is the campaign cache; nil creates a private memory-only
	// cache.  Attach a store to share campaigns with the CLI tools.
	Cache *core.StudyCache

	// Workers bounds each campaign's session parallelism (0 = one
	// worker per CPU), passed through to the engine.
	Workers int

	// MaxInFlight bounds concurrently admitted expensive requests
	// (study, tables, figures, sweep); further requests queue until
	// a slot frees or the client gives up.  0 means 4.
	MaxInFlight int

	// MaxQueue bounds how many expensive requests may wait for
	// admission; a request arriving past the bound is shed with
	// 429 + Retry-After instead of queuing.  0 means
	// 4 * MaxInFlight.
	MaxQueue int

	// MaxSweepSamples bounds the samples parameter of /v1/sweep:
	// admission bounds how many requests run, not how big one
	// request is, so an unbounded samples value would let a single
	// request monopolize a slot indefinitely.  Requests past the
	// bound get 400.  0 means DefaultMaxSweepSamples.
	MaxSweepSamples int

	// Logger, when set, receives one structured access-log record per
	// request (endpoint, method, path, outcome, duration, request
	// ID).  nil disables access logging.
	Logger *slog.Logger

	// Coordinator backs the /v1/jobs and /v1/backends APIs.  nil
	// creates a private coordinator sharing the cache's store; pass one
	// to share jobs with the daemon's resume-at-boot logic (cmd/fx8d).
	Coordinator *coord.Coordinator
}

// DefaultMaxSweepSamples is the /v1/sweep samples bound when
// Config.MaxSweepSamples is zero.
const DefaultMaxSweepSamples = 10_000

// Server is the fx8d HTTP handler.
type Server struct {
	cfg      Config
	cache    *core.StudyCache
	coord    *coord.Coordinator
	ownCoord bool // New built the coordinator; Close tears it down
	mux      *http.ServeMux
	sem      chan struct{}
	waiting  atomic.Int64 // expensive requests queued for admission
	metrics  *metrics
	tracer   *obs.Tracer
	start    time.Time
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Cache == nil {
		cfg.Cache = core.NewStudyCache()
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.MaxSweepSamples <= 0 {
		cfg.MaxSweepSamples = DefaultMaxSweepSamples
	}
	s := &Server{
		cfg:     cfg,
		cache:   cfg.Cache,
		coord:   cfg.Coordinator,
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		metrics: newMetrics(),
		tracer:  obs.NewTracer(obs.DefaultMaxTraces),
		start:   time.Now(),
	}
	if s.coord == nil {
		s.coord = coord.New(coord.Config{Store: cfg.Cache.Store(), Workers: cfg.Workers})
		s.ownCoord = true
	}
	s.registerProcess()

	s.handle("GET /v1/healthz", "healthz", false, s.handleHealthz)
	s.handle("GET /v1/study", "study", true, s.handleStudy)
	s.handle("GET /v1/artefacts/{kind}/{name}", "artefacts", true, s.handleArtefact)
	s.handle("GET /v1/sweep", "sweep", true, s.handleSweep)
	s.handle("GET /v1/metrics", "metrics", false, s.handleMetrics)
	s.handle("GET /v1/trace/{id}", "trace", false, s.handleTrace)
	s.handle("POST /v1/purge", "purge", false, s.handlePurge)
	s.handle("POST "+remote.SessionPath, "run_session", true, s.handleRunSession)
	s.handle("POST "+remote.SweepPath, "run_sweep", true, s.handleRunSweep)
	s.handle("POST "+coord.JobsPath, "jobs", false, s.handleJobSubmit)
	s.handle("GET "+coord.JobsPath, "jobs", false, s.handleJobList)
	s.handle("GET "+coord.JobsPath+"/{id}", "jobs", false, s.handleJobGet)
	s.handle("GET "+coord.JobsPath+"/{id}/result", "jobs", false, s.handleJobResult)
	s.handle("DELETE "+coord.JobsPath+"/{id}", "jobs", false, s.handleJobCancel)
	s.handle("POST "+coord.BackendsRegisterPath, "backends", false, s.handleBackendRegister)
	s.handle("GET "+coord.BackendsPath, "backends", false, s.handleBackendList)
	s.metrics.register("jobs_events")
	s.mux.HandleFunc("GET "+coord.JobsPath+"/{id}/events", s.handleJobEvents) // streams; self-instrumented
	return s
}

// Coordinator returns the server's campaign coordinator — the one
// behind /v1/jobs.  cmd/fx8d uses it to resume interrupted jobs at
// boot.
func (s *Server) Coordinator() *coord.Coordinator {
	return s.coord
}

// Close stops a coordinator the server built itself (Config without
// an explicit Coordinator); a caller-supplied coordinator is the
// caller's to close.
func (s *Server) Close() {
	if s.ownCoord {
		s.coord.Close()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// httpError carries an HTTP status and a machine-readable error code
// (one of remote's Code* constants) out of a handler.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return httpError{http.StatusBadRequest, remote.CodeInvalidConfig, fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return httpError{http.StatusNotFound, remote.CodeNotFound, fmt.Sprintf(format, args...)}
}

func conflict(format string, args ...any) error {
	return httpError{http.StatusConflict, remote.CodeConflict, fmt.Sprintf(format, args...)}
}

// writeError emits the unified error envelope every non-2xx response
// carries: a machine-readable code, the human-readable message, and
// the request ID already echoed on the response headers — the handle
// for GET /v1/trace/{id} when correlating the failure with a trace.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, remote.ErrorResponse{
		Code:      code,
		Message:   msg,
		RequestID: w.Header().Get(obs.RequestIDHeader),
	})
}

// spanUnits carries the work-unit IDs a handler executed out to the
// request's trace span.  The wrapper plants one per traced request;
// the unit handlers append to it from the request goroutine only.
type spanUnits struct{ ids []int }

type spanUnitsKey struct{}

func withSpanUnits(ctx context.Context, su *spanUnits) context.Context {
	return context.WithValue(ctx, spanUnitsKey{}, su)
}

func spanUnitsFrom(ctx context.Context) *spanUnits {
	su, _ := ctx.Value(spanUnitsKey{}).(*spanUnits)
	return su
}

// handle registers a handler with metrics, tracing and, for expensive
// endpoints, doubly bounded admission: MaxInFlight requests run,
// at most MaxQueue more wait, and anything past both is shed with
// 429 + Retry-After — overload degrades to fast rejections, never
// to an unbounded queue.
//
// Every request gets a request ID — the inbound X-Request-Id if the
// client sent one (the coordinator sends its job ID on every unit
// POST), a fresh one otherwise — echoed on the response.
// Spans are recorded only under caller-supplied IDs: tracing is the
// caller's opt-in, so uncorrelated traffic (dashboards, load tests)
// costs nothing on the hot path and cannot evict a campaign's trace
// from the bounded store.  GET /v1/trace/{id} reconstructs where a
// sharded campaign's time went.
func (s *Server) handle(pattern, endpoint string, expensive bool, h func(w http.ResponseWriter, r *http.Request) error) {
	s.metrics.register(endpoint)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(obs.RequestIDHeader)
		traced := id != ""
		if !traced {
			id = obs.NewRequestID()
		}
		w.Header().Set(obs.RequestIDHeader, id)
		outcome := "ok"
		if traced {
			su := &spanUnits{}
			r = r.WithContext(withSpanUnits(obs.WithRequestID(r.Context(), id), su))
			defer func() {
				s.tracer.Record(id, obs.Span{
					Name: endpoint, Start: start, Duration: time.Since(start),
					Outcome: outcome, Units: su.ids,
				})
			}()
		}
		if s.cfg.Logger != nil {
			defer func() {
				s.cfg.Logger.Info("request",
					"id", id, "endpoint", endpoint,
					"method", r.Method, "path", r.URL.Path,
					"outcome", outcome,
					"duration_ms", float64(time.Since(start))/float64(time.Millisecond))
			}()
		}
		if expensive {
			ok, why := s.admit(w, r, endpoint)
			if !ok {
				outcome = why
				return
			}
			defer func() { <-s.sem }()
			if r.Context().Err() != nil {
				// The client gave up between admission and compute:
				// don't spend a campaign on a response nobody will
				// read, and don't book the disconnect as a server
				// error.
				s.metrics.recordCanceled(endpoint, time.Since(start))
				outcome = "canceled"
				return
			}
		}
		err := h(w, r)
		s.metrics.record(endpoint, time.Since(start), err != nil)
		if err != nil {
			outcome = "error"
			status, code := http.StatusInternalServerError, remote.CodeInternal
			if he, ok := err.(httpError); ok {
				status, code = he.status, he.code
			}
			writeError(w, status, code, err.Error())
		}
	})
}

// retryAfterSeconds is the Retry-After hint on shed responses: one
// admission slot's typical turnaround at quick scale.
const retryAfterSeconds = "1"

// admit acquires an admission slot, reporting ok == false (with the
// response already written or abandoned, and why — "shed" or
// "canceled" — for the trace span) when the request was shed or the
// client gave up while queued.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string) (ok bool, why string) {
	select {
	case s.sem <- struct{}{}:
		return true, "" // free slot: no queuing, no shed check
	default:
	}
	// Compare in int64: int(n) on GOARCH=386 would wrap negative past
	// 2^31 waiters and silently bypass the queue bound.
	if n := s.waiting.Add(1); n > int64(s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		s.metrics.recordShed(endpoint)
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusTooManyRequests, remote.CodeShed,
			"admission queue full; retry later")
		return false, "shed"
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return true, ""
	case <-r.Context().Done():
		// Client gave up while queued; nothing to write.
		s.metrics.recordCanceled(endpoint, 0)
		return false, "canceled"
	}
}

// writeJSON emits one canonical JSON document: compact encoding plus
// a trailing newline.  Canonical bytes are part of the service's
// contract — the same artefact is byte-identical no matter which
// cache tier produced it.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		// Even the failure path speaks the envelope; ErrorResponse
		// itself always marshals, so this cannot recurse.
		writeError(w, http.StatusInternalServerError, remote.CodeInternal, err.Error())
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
	return nil
}

// ETag namespaces version the request-identity encoding behind each
// artefact endpoint's ETag.  They are distinct from the campaign
// store's namespaces: an ETag names a response shape, not a stored
// record.
const (
	studyETagNamespace    = "http/study/v1"
	artefactETagNamespace = "http/artefact/v1"
)

// etagFor derives a strong ETag from the canonical content address of
// a response's request identity.  Artefact responses are pure
// functions of that identity, so the tag is computable before any
// campaign work — revalidation costs nothing even when computing the
// response would not.
func etagFor(namespace string, v any) string {
	key, err := store.Key(namespace, v)
	if err != nil {
		return "" // unencodable identity: skip conditional handling
	}
	return `"` + key + `"`
}

// clientHasETag reports whether the request's If-None-Match matches
// etag.  Weak-prefixed tags compare equal to their strong form: the
// byte-identical-responses discipline makes every match semantically
// exact.
func clientHasETag(r *http.Request, etag string) bool {
	if etag == "" {
		return false
	}
	for _, c := range strings.Split(r.Header.Get("If-None-Match"), ",") {
		c = strings.TrimSpace(c)
		c = strings.TrimPrefix(c, "W/")
		if c == etag || c == "*" {
			return true
		}
	}
	return false
}

// maybeNotModified sets the ETag header and, when the client already
// holds the current representation, answers 304 — reporting true so
// the handler skips the campaign entirely.
func maybeNotModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	if etag == "" {
		return false
	}
	w.Header().Set("ETag", etag)
	if clientHasETag(r, etag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// scaleParam resolves the scale query parameter (default quick).
func scaleParam(r *http.Request) (string, core.StudyConfig, error) {
	scale := r.FormValue("scale")
	if scale == "" {
		scale = "quick"
	}
	cfg, err := core.ScaleConfig(scale)
	if err != nil {
		return "", core.StudyConfig{}, badRequest("%v", err)
	}
	return scale, cfg, nil
}

// HealthzResponse is the /v1/healthz body: liveness plus the build
// identity (stamped via -ldflags -X, see Version) and a few Go
// runtime vitals.
type HealthzResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	InFlight      int     `json:"in_flight"`
	MaxInFlight   int     `json:"max_in_flight"`
	Store         bool    `json:"store_attached"`
	Version       string  `json:"version"`
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	Goroutines    int     `json:"goroutines"`
	HeapAlloc     uint64  `json:"heap_alloc_bytes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return writeJSON(w, http.StatusOK, HealthzResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      len(s.sem),
		MaxInFlight:   s.cfg.MaxInFlight,
		Store:         s.cache.Store() != nil,
		Version:       Version,
		Commit:        Commit,
		GoVersion:     runtime.Version(),
		Goroutines:    runtime.NumGoroutine(),
		HeapAlloc:     ms.HeapAlloc,
	})
}

// StudyResponse is the /v1/study body: the campaign's configuration
// and headline results.  Every field is a pure function of the
// configuration, so responses are byte-identical across processes and
// cache tiers.
type StudyResponse struct {
	Scale    string           `json:"scale"`
	Config   core.StudyConfig `json:"config"`
	Sessions struct {
		Random     int `json:"random"`
		HighConc   int `json:"high_conc"`
		Transition int `json:"transition"`
	} `json:"sessions"`
	Samples  int              `json:"samples"`
	Overall  core.Concurrency `json:"overall"`
	Records  int              `json:"records"`
	Headline struct {
		MissRateAtHalf float64 `json:"missrate_at_half_cw"`
		MissRateAtFull float64 `json:"missrate_at_full_cw"`
		Ratio          float64 `json:"ratio"`
	} `json:"headline"`
}

func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) error {
	scale, cfg, err := scaleParam(r)
	if err != nil {
		return err
	}
	if maybeNotModified(w, r, etagFor(studyETagNamespace, cfg)) {
		return nil
	}
	st := s.cache.Get(cfg, s.cfg.Workers)
	resp := StudyResponse{Scale: scale, Config: st.Config}
	resp.Sessions.Random = len(st.Random)
	resp.Sessions.HighConc = len(st.HighConc)
	resp.Sessions.Transition = len(st.Transition)
	resp.Samples = len(st.AllSamples)
	resp.Overall = st.OverallMeasures
	resp.Records = st.Overall.Records
	atHalf, atFull, ratio := st.Models.MissRateIncrease()
	resp.Headline.MissRateAtHalf = atHalf
	resp.Headline.MissRateAtFull = atFull
	resp.Headline.Ratio = ratio
	return writeJSON(w, http.StatusOK, resp)
}

// ArtefactResponse is the body of /v1/artefacts/{kind}/{name}: the
// artefact rendered in the same SAS-style text form the CLI tools
// print.
type ArtefactResponse struct {
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	Scale string `json:"scale"`
	Text  string `json:"text"`
}

// artefactIdentity is the request identity behind a table or figure
// ETag: everything the rendered text is a function of.  Name is
// lowercased so the case-insensitive spellings of one artefact share
// one ETag.
type artefactIdentity struct {
	Kind   string
	Name   string
	Config core.StudyConfig
}

// handleArtefact serves GET /v1/artefacts/{kind}/{name}: validate
// the name against kind's catalogue, answer 304 off the ETag when
// possible, otherwise render from the cached study.
func (s *Server) handleArtefact(w http.ResponseWriter, r *http.Request) error {
	kind, name := r.PathValue("kind"), r.PathValue("name")
	has, render, catalogue := experiments.HasTable, experiments.RenderTable, experiments.Tables
	switch kind {
	case "table":
	case "figure":
		has, render, catalogue = experiments.HasFigure, experiments.RenderFigure, experiments.Figures
	default:
		return notFound("unknown artefact kind %q (valid kinds: table, figure)", kind)
	}
	scale, cfg, err := scaleParam(r)
	if err != nil {
		return err
	}
	if !has(name) {
		return notFound("unknown %s %q (valid %ss: %v)", kind, name, kind, experiments.Names(catalogue()))
	}
	id := artefactIdentity{Kind: kind, Name: strings.ToLower(name), Config: cfg}
	if maybeNotModified(w, r, etagFor(artefactETagNamespace, id)) {
		return nil
	}
	st := s.cache.Get(cfg, s.cfg.Workers)
	text, _ := render(name, st)
	return writeJSON(w, http.StatusOK, ArtefactResponse{Kind: kind, Name: name, Scale: scale, Text: text})
}

// SweepResponse is the /v1/sweep body.
type SweepResponse struct {
	Param  string                   `json:"param"`
	Title  string                   `json:"title"`
	Cached bool                     `json:"cached"`
	Points []experiments.SweepPoint `json:"points"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) error {
	param := r.FormValue("param")
	if param == "" {
		param = "sched"
	}
	samples := 12
	if v := r.FormValue("samples"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return badRequest("samples must be a positive integer, got %q", v)
		}
		if n > s.cfg.MaxSweepSamples {
			return badRequest("samples %d exceeds the %d-sample bound", n, s.cfg.MaxSweepSamples)
		}
		samples = n
	}
	seed := uint64(1987)
	if v := r.FormValue("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return badRequest("seed must be an unsigned integer, got %q", v)
		}
		seed = n
	}
	cfg := experiments.SweepConfig{
		Kind:    param,
		Values:  experiments.DefaultSweepValues(param),
		Seed:    seed,
		Samples: samples,
	}
	pts, hit, err := experiments.CachedSweep(s.cache.Store(), cfg, s.cfg.Workers)
	if err != nil {
		return badRequest("%v", err)
	}
	return writeJSON(w, http.StatusOK, SweepResponse{
		Param:  param,
		Title:  experiments.SweepTitle(param),
		Cached: hit,
		Points: pts,
	})
}

// PurgeResponse is the /v1/purge body.
type PurgeResponse struct {
	Purged bool `json:"purged"`
}

func (s *Server) handlePurge(w http.ResponseWriter, r *http.Request) error {
	if err := s.cache.Purge(); err != nil {
		return fmt.Errorf("purging store: %w", err)
	}
	return writeJSON(w, http.StatusOK, PurgeResponse{Purged: true})
}

// wantsPrometheus reports whether a /v1/metrics request asked for
// text exposition instead of the historical JSON document: an
// explicit ?format=prometheus, or an Accept header naming text/plain
// or the OpenMetrics type (what Prometheus scrapers send).  Plain
// curl and the loadgen scraper keep getting JSON.
func wantsPrometheus(r *http.Request) bool {
	switch r.FormValue("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		return s.metrics.reg.WritePrometheus(w)
	}
	return writeJSON(w, http.StatusOK, s.metricsSnapshot())
}

// TraceResponse is the GET /v1/trace/{id} body: every span this
// daemon recorded under one request ID, in recording order.  For a
// sharded campaign, querying each backend for the campaign's ID
// reconstructs which units ran where and how long each took.
type TraceResponse struct {
	ID      string     `json:"id"`
	Spans   []obs.Span `json:"spans"`
	Dropped int        `json:"dropped,omitempty"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	spans, dropped, ok := s.tracer.Trace(id)
	if !ok {
		return notFound("unknown trace %q (traces are retained for the last %d request IDs)",
			id, obs.DefaultMaxTraces)
	}
	return writeJSON(w, http.StatusOK, TraceResponse{ID: id, Spans: spans, Dropped: dropped})
}

// Unit-execution endpoints: the serving side of internal/remote.

// Unit results are cached under the shared namespaces in
// internal/coord (SessionUnitNamespace, SweepUnitNamespace): the
// fleet coordinator replays exactly the entries these endpoints
// write, which is what makes a job's checkpoint nothing more than the
// unit cache filling up.

// maxUnitBody bounds a /v1/run request body; work units are small
// configuration records.
const maxUnitBody = 1 << 20

// decodeUnit reads one JSON work unit from a request body.
func decodeUnit(w http.ResponseWriter, r *http.Request, unit any) error {
	body := http.MaxBytesReader(w, r.Body, maxUnitBody)
	if err := json.NewDecoder(body).Decode(unit); err != nil {
		return badRequest("decoding work unit: %v", err)
	}
	return nil
}

// Unit results flow through store.GetOrComputeJSON: a unit already
// computed here (or by a peer sharing the store directory) is served
// from disk, and computed results are written back — a re-routed
// duplicate never recomputes.

func (s *Server) handleRunSession(w http.ResponseWriter, r *http.Request) error {
	var unit core.StudyUnit
	if err := decodeUnit(w, r, &unit); err != nil {
		return err
	}
	if unit.Random == nil && unit.Triggered == nil {
		return badRequest("session unit %d has no spec", unit.ID)
	}
	if su := spanUnitsFrom(r.Context()); su != nil {
		su.ids = append(su.ids, unit.ID)
	}
	res, err := store.GetOrComputeJSON(s.cache.Store(), coord.SessionUnitNamespace, unit, func() (core.StudyUnitResult, error) {
		return core.RunStudyUnit(unit)
	})
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleRunSweep(w http.ResponseWriter, r *http.Request) error {
	var unit experiments.SweepUnit
	if err := decodeUnit(w, r, &unit); err != nil {
		return err
	}
	if experiments.DefaultSweepValues(unit.Kind) == nil {
		return badRequest("unknown sweep kind %q", unit.Kind)
	}
	res, err := store.GetOrComputeJSON(s.cache.Store(), coord.SweepUnitNamespace, unit, func() (experiments.SweepPoint, error) {
		return experiments.RunSweepUnit(unit)
	})
	if err != nil {
		// The kind was validated above; remaining unit errors are
		// out-of-range values — the client's fault, not ours.
		return badRequest("%v", err)
	}
	return writeJSON(w, http.StatusOK, res)
}
