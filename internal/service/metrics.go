package service

import (
	"sort"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// metrics is the server's telemetry surface: per-endpoint obs
// counters and latency histograms plus the registry that renders them
// as Prometheus text exposition.  Endpoints register during New —
// before the server serves — so the per map is read-only on the
// request path and recording never takes a lock.
type metrics struct {
	reg *obs.Registry
	per map[string]*endpointMetrics
}

// endpointMetrics is one endpoint's recording surface.  Requests and
// average/max latency derive from the histogram; the counters book
// the outcomes that need separating (a client hangup is not a server
// failure, and a shed request never reached a handler).
type endpointMetrics struct {
	errors   *obs.Counter
	canceled *obs.Counter // client gave up before the handler ran
	shed     *obs.Counter // rejected with 429 past the admission queue bound
	lat      *obs.Histogram
}

func newMetrics() *metrics {
	return &metrics{reg: obs.NewRegistry(), per: make(map[string]*endpointMetrics)}
}

// register names an endpoint's series.  New-time only: the per map
// must not grow once the server is serving.
func (m *metrics) register(endpoint string) *endpointMetrics {
	if em := m.per[endpoint]; em != nil {
		return em
	}
	labels := obs.Labels{"endpoint": endpoint}
	em := &endpointMetrics{
		errors:   m.reg.Counter("fx8d_request_errors_total", "Requests answered with an error status.", labels),
		canceled: m.reg.Counter("fx8d_requests_canceled_total", "Requests whose client disconnected before a response.", labels),
		shed:     m.reg.Counter("fx8d_requests_shed_total", "Requests rejected with 429 past the admission queue bound.", labels),
		lat: m.reg.Histogram("fx8d_request_duration_seconds",
			"Request latency from arrival to response.", labels, nil, 1e-9),
	}
	m.per[endpoint] = em
	return em
}

func (m *metrics) record(endpoint string, d time.Duration, failed bool) {
	em := m.per[endpoint]
	if em == nil {
		return
	}
	if failed {
		em.errors.Inc()
	}
	em.lat.Observe(int64(d))
}

// recordCanceled books a request whose client disconnected before any
// response could be written.  Cancellations are counted apart from
// errors: a client hanging up is not a server failure, and folding the
// two together made error rates unreadable under load.
func (m *metrics) recordCanceled(endpoint string, d time.Duration) {
	em := m.per[endpoint]
	if em == nil {
		return
	}
	em.canceled.Inc()
	em.lat.Observe(int64(d))
}

// recordShed books a request rejected with 429 past the admission
// queue bound.  Sheds are neither errors nor regular requests — they
// never reached a handler — so they get their own counter and stay
// out of the latency histogram.
func (m *metrics) recordShed(endpoint string) {
	if em := m.per[endpoint]; em != nil {
		em.shed.Inc()
	}
}

// registerProcess wires the registry to the counters owned elsewhere
// — the admission semaphore, the engine's worker accounting, the
// campaign cache, the store — via render-time func series, so one
// scrape sees the whole process without double bookkeeping.
func (s *Server) registerProcess() {
	reg := s.metrics.reg
	reg.GaugeFunc("fx8d_inflight_requests",
		"Expensive requests holding an admission slot.", nil,
		func() float64 { return float64(len(s.sem)) })
	reg.GaugeFunc("fx8d_admission_waiting",
		"Expensive requests queued for admission.", nil,
		func() float64 { return float64(s.waiting.Load()) })

	reg.GaugeFunc("fx8d_engine_queued_units",
		"Units accepted by a worker pool but not yet started.", nil,
		func() float64 { return float64(engine.Stats().Queued) })
	reg.GaugeFunc("fx8d_engine_inflight_units",
		"Units executing on engine workers right now.", nil,
		func() float64 { return float64(engine.Stats().InFlight) })
	reg.CounterFunc("fx8d_engine_units_completed_total",
		"Units that returned normally from an engine worker.", nil,
		func() float64 { return float64(engine.Stats().UnitsCompleted) })
	reg.CounterFunc("fx8d_engine_busy_seconds_total",
		"Cumulative worker time spent inside units.", nil,
		func() float64 { return float64(engine.Stats().BusyNs) / 1e9 })
	reg.CounterFunc("fx8d_engine_pools_total",
		"Engine worker pools run (one per RunAll and per job's local drain).", nil,
		func() float64 { return float64(engine.Stats().Pools) })

	for _, tier := range []struct {
		name string
		fn   func(core.CacheStats) uint64
	}{
		{"memory", func(cs core.CacheStats) uint64 { return cs.MemoryHits }},
		{"disk", func(cs core.CacheStats) uint64 { return cs.DiskHits }},
		{"compute", func(cs core.CacheStats) uint64 { return cs.Computes }},
	} {
		fn := tier.fn
		reg.CounterFunc("fx8d_cache_outcomes_total",
			"Campaign-cache Gets by serving tier (memory|disk|compute).",
			obs.Labels{"tier": tier.name},
			func() float64 { return float64(fn(s.cache.Stats())) })
	}
	reg.CounterFunc("fx8d_cache_store_errors_total",
		"Campaign-cache store write failures.", nil,
		func() float64 { return float64(s.cache.Stats().StoreErrors) })

	if st := s.cache.Store(); st != nil {
		for _, c := range []struct {
			name, help string
			fn         func(store.Stats) uint64
		}{
			{"fx8d_store_hits_total", "Store entries served intact.", func(ss store.Stats) uint64 { return ss.Hits }},
			{"fx8d_store_misses_total", "Store lookups of absent entries.", func(ss store.Stats) uint64 { return ss.Misses }},
			{"fx8d_store_corrupt_total", "Store entries rejected as corrupt.", func(ss store.Stats) uint64 { return ss.Corrupt }},
			{"fx8d_store_writes_total", "Store entries written.", func(ss store.Stats) uint64 { return ss.Writes }},
			{"fx8d_store_evicted_total", "Store entries evicted by the size bound.", func(ss store.Stats) uint64 { return ss.Evicted }},
		} {
			fn := c.fn
			reg.CounterFunc(c.name, c.help, nil,
				func() float64 { return float64(fn(st.Stats())) })
		}
		reg.GaugeFunc("fx8d_store_disk_bytes",
			"Total bytes of store entries on disk.", nil,
			func() float64 { _, bytes := st.Disk(); return float64(bytes) })
	}

	if c := s.coord; c != nil {
		for _, row := range []struct {
			name, help string
			fn         func(coord.RetryStats) float64
		}{
			{"fx8d_retry_attempts_total", "Operation launches under the coordinator's retry policy.",
				func(rs coord.RetryStats) float64 { return float64(rs.Attempts) }},
			{"fx8d_retry_retries_total", "Relaunches after a retryable failure.",
				func(rs coord.RetryStats) float64 { return float64(rs.Retries) }},
			{"fx8d_retry_giveups_total", "Operations abandoned after exhausting the retry policy.",
				func(rs coord.RetryStats) float64 { return float64(rs.GiveUps) }},
			{"fx8d_retry_backoff_waits_total", "Backoff sleeps taken between retry attempts.",
				func(rs coord.RetryStats) float64 { return float64(rs.BackoffWaits) }},
			{"fx8d_retry_backoff_seconds_total", "Cumulative time spent in backoff waits.",
				func(rs coord.RetryStats) float64 { return rs.BackoffSecs }},
		} {
			fn := row.fn
			reg.CounterFunc(row.name, row.help, nil,
				func() float64 { return fn(c.RetryStats()) })
		}
	}
}

// EndpointMetrics is one endpoint's row in the /v1/metrics body.
type EndpointMetrics struct {
	Endpoint string  `json:"endpoint"`
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	Canceled uint64  `json:"canceled"`
	Shed     uint64  `json:"shed"`
	AvgMs    float64 `json:"avg_ms"`
	MaxMs    float64 `json:"max_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// EngineMetrics is the engine's worker accounting in the /v1/metrics
// body.
type EngineMetrics struct {
	UnitsStarted   uint64  `json:"units_started"`
	UnitsCompleted uint64  `json:"units_completed"`
	InFlight       int64   `json:"in_flight"`
	Queued         int64   `json:"queued"`
	BusySeconds    float64 `json:"busy_seconds"`
	Pools          uint64  `json:"pools"`
}

// MetricsResponse is the /v1/metrics JSON body: request latencies per
// endpoint plus the hit rates of both campaign-cache tiers, the
// underlying store, and the engine's worker accounting.  The same
// endpoint renders Prometheus text exposition when the request asks
// for it (?format=prometheus or an Accept header naming text/plain or
// openmetrics).
type MetricsResponse struct {
	Endpoints []EndpointMetrics `json:"endpoints"`
	Cache     core.CacheStats   `json:"cache"`
	Store     *store.Stats      `json:"store,omitempty"`
	Engine    EngineMetrics     `json:"engine"`

	// Retry snapshots the coordinator's retry outcomes — attempts,
	// retries, give-ups, backoff waits (see coord.RetryStats).
	Retry *coord.RetryStats `json:"retry,omitempty"`
}

const msPerNs = 1e-6

func (s *Server) metricsSnapshot() MetricsResponse {
	eps := make([]EndpointMetrics, 0, len(s.metrics.per))
	for name, em := range s.metrics.per {
		snap := em.lat.Snapshot()
		p50, p95, p99 := snap.Quantiles()
		row := EndpointMetrics{
			Endpoint: name,
			Requests: snap.Count,
			Errors:   em.errors.Value(),
			Canceled: em.canceled.Value(),
			Shed:     em.shed.Value(),
			MaxMs:    float64(snap.Max) * msPerNs,
			P50Ms:    float64(p50) * msPerNs,
			P95Ms:    float64(p95) * msPerNs,
			P99Ms:    float64(p99) * msPerNs,
		}
		if snap.Count > 0 {
			row.AvgMs = float64(snap.Sum) / float64(snap.Count) * msPerNs
		}
		if row.Requests == 0 && row.Shed == 0 {
			continue // endpoint registered but never hit
		}
		eps = append(eps, row)
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].Endpoint < eps[j].Endpoint })

	es := engine.Stats()
	resp := MetricsResponse{
		Endpoints: eps,
		Cache:     s.cache.Stats(),
		Engine: EngineMetrics{
			UnitsStarted:   es.UnitsStarted,
			UnitsCompleted: es.UnitsCompleted,
			InFlight:       es.InFlight,
			Queued:         es.Queued,
			BusySeconds:    float64(es.BusyNs) / 1e9,
			Pools:          es.Pools,
		},
	}
	if st := s.cache.Store(); st != nil {
		stats := st.Stats()
		resp.Store = &stats
	}
	if s.coord != nil {
		rs := s.coord.RetryStats()
		resp.Retry = &rs
	}
	return resp
}
