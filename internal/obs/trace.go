package obs

import (
	"context"
	"hash/fnv"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"
)

// RequestIDHeader is the HTTP header carrying a request's trace ID.
// fx8d assigns one when a request arrives without it and echoes it on
// the response; the coordinator sends its job ID on every unit POST,
// so a fleet job's work is attributable end to end.
const RequestIDHeader = "X-Request-Id"

// NewRequestID returns a fresh 16-hex-character request ID.  IDs need
// uniqueness for correlation, not unpredictability, so a fast
// process-seeded generator is the right tool.
func NewRequestID() string {
	return strconv.FormatUint(rand.Uint64(), 16)
}

// requestIDKey is the context key for the propagated request ID.
type requestIDKey struct{}

// WithRequestID returns a context carrying id, for propagation into
// outbound unit requests.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the request ID carried by ctx, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// Span is one recorded step of a traced request: what ran, when, for
// how long, how it ended, and (for unit-execution endpoints) which
// work-unit IDs it covered.
type Span struct {
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Outcome  string        `json:"outcome"` // ok | error | canceled | shed
	Units    []int         `json:"units,omitempty"`
}

// DefaultMaxTraces bounds how many distinct request IDs a Tracer
// retains; the oldest trace is evicted when a new ID arrives past the
// bound.
const DefaultMaxTraces = 1024

// maxSpansPerTrace bounds one trace's span list so a single
// long-running ID cannot grow without bound; spans past the cap are
// counted, not stored.
const maxSpansPerTrace = 4096

// traceShards spreads tracer recording across independent locks so
// concurrent requests with different IDs never contend.  Requests
// sharing one ID (a sharded campaign's units) share a shard, which is
// exactly when ordering matters anyway.
const traceShards = 16

// Tracer is a bounded in-memory span store keyed by request ID — the
// reconstruction substrate behind fx8d's GET /v1/trace/{id}.  The
// zero value is not usable; construct with NewTracer.
type Tracer struct {
	perShard int
	shards   [traceShards]traceShard
}

type traceShard struct {
	mu     sync.Mutex
	traces map[string]*trace
	order  []string // insertion order, for FIFO eviction
}

type trace struct {
	spans   []Span
	dropped int
}

// NewTracer returns a tracer retaining at most maxTraces request IDs
// (<= 0 means DefaultMaxTraces).
func NewTracer(maxTraces int) *Tracer {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	per := (maxTraces + traceShards - 1) / traceShards
	if per < 1 {
		per = 1
	}
	return &Tracer{perShard: per}
}

func (t *Tracer) shard(id string) *traceShard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &t.shards[h.Sum32()%traceShards]
}

// Record appends a span to id's trace, evicting the shard's oldest
// trace if id is new and the shard is full.  A trace past
// maxSpansPerTrace counts further spans as dropped instead of
// storing them.
func (t *Tracer) Record(id string, s Span) {
	if id == "" {
		return
	}
	sh := t.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.traces == nil {
		sh.traces = make(map[string]*trace)
	}
	tr := sh.traces[id]
	if tr == nil {
		for len(sh.order) >= t.perShard {
			delete(sh.traces, sh.order[0])
			sh.order = sh.order[1:]
		}
		tr = &trace{}
		sh.traces[id] = tr
		sh.order = append(sh.order, id)
	}
	if len(tr.spans) >= maxSpansPerTrace {
		tr.dropped++
		return
	}
	tr.spans = append(tr.spans, s)
}

// Trace returns a copy of id's spans in recording order and how many
// spans were dropped past the per-trace bound; ok reports whether the
// ID is known.
func (t *Tracer) Trace(id string) (spans []Span, dropped int, ok bool) {
	sh := t.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tr := sh.traces[id]
	if tr == nil {
		return nil, 0, false
	}
	return append([]Span(nil), tr.spans...), tr.dropped, true
}

// Len returns the number of retained traces.
func (t *Tracer) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.traces)
		sh.mu.Unlock()
	}
	return n
}
