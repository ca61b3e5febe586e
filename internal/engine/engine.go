// Package engine is the shared session-execution engine: it fans
// independent units of work — simulator sessions, sweep points — out
// over a bounded worker pool and reassembles results in index order,
// so parallel output is identical to sequential output for every
// worker count.
//
// The measurement campaign is embarrassingly parallel: each session
// boots its own fx8.Cluster and concentrix.System from a derived seed
// and shares no state with any other session.  The engine exploits
// exactly that shape; it makes no attempt to parallelize within a
// session, where cycle-by-cycle ordering is the whole point.
//
// # Per-worker state
//
// Every Map variant runs on one pool of exactly min(workers, n)
// goroutines pulling unit indices from a shared atomic counter —
// never a goroutine per unit — so a worker is a stable home for
// scratch that is expensive to build and unsafe to share.  The
// contract has three clauses: (1) state is created once per worker,
// on the worker's goroutine, and is never touched by two units
// concurrently; (2) fn owns the state only for the duration of one
// call and must not retain it; (3) the result of a unit must be a
// pure function of its index — state is scratch, never input — which
// is what keeps output identical across worker counts.  MapWith
// threads such state explicitly; code whose scratch should outlive
// one Map call (core's session arenas) uses a sync.Pool instead,
// which degenerates to the same per-worker ownership under a pool
// because each goroutine re-Gets the arena it just Put.
//
// # Instrumentation
//
// Every pool books its units through process-wide atomic counters —
// queue depth, in-flight units, cumulative worker busy time —
// snapshotted by Stats().  The fx8d service exports these through
// /v1/metrics; the engine itself depends on nothing, so the
// accounting costs a handful of atomics and two clock reads per
// unit, invisible next to units that each simulate millions of
// machine cycles.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWorkers returns the default degree of parallelism: one worker
// per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// poolStats is the engine's process-wide instrumentation: every Map
// variant books units through these atomics, so the service's
// /v1/metrics can report queue depth, in-flight units and worker
// busy time without the engine knowing the service exists.  The cost
// is a few atomic adds and two clock reads per unit — noise against
// units that each simulate millions of machine cycles.
var poolStats struct {
	started   atomic.Uint64
	completed atomic.Uint64
	busyNs    atomic.Int64
	inFlight  atomic.Int64
	queued    atomic.Int64
	pools     atomic.Uint64
}

// PoolStats snapshots the engine's cumulative work accounting across
// every pool the process has run.
type PoolStats struct {
	UnitsStarted   uint64 // units handed to a worker
	UnitsCompleted uint64 // units that returned normally
	InFlight       int64  // units executing right now
	Queued         int64  // units accepted by a pool but not yet started
	BusyNs         int64  // cumulative worker time spent inside units
	Pools          uint64 // Map/RunAll invocations
}

// Stats returns a snapshot of the engine's work accounting.  Gauges
// (InFlight, Queued) are instantaneous; the rest are cumulative since
// process start.
func Stats() PoolStats {
	return PoolStats{
		UnitsStarted:   poolStats.started.Load(),
		UnitsCompleted: poolStats.completed.Load(),
		InFlight:       poolStats.inFlight.Load(),
		Queued:         poolStats.queued.Load(),
		BusyNs:         poolStats.busyNs.Load(),
		Pools:          poolStats.pools.Load(),
	}
}

// runUnit books one unit's execution around fn: queue leave,
// in-flight window, busy time, completion.
func runUnit(run func()) {
	poolStats.queued.Add(-1)
	poolStats.started.Add(1)
	poolStats.inFlight.Add(1)
	t0 := time.Now()
	defer func() {
		poolStats.busyNs.Add(int64(time.Since(t0)))
		poolStats.inFlight.Add(-1)
	}()
	run()
	poolStats.completed.Add(1)
}

// clamp resolves a requested worker count against the number of units:
// zero or negative means DefaultWorkers, and there is never a reason
// to start more workers than units.
func clamp(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	return workers
}

// Map runs fn(0) ... fn(n-1) on a pool of at most workers goroutines
// and returns the results indexed by unit: out[i] = fn(i) regardless
// of scheduling.  workers <= 0 selects DefaultWorkers.  fn must be
// safe to call from multiple goroutines on distinct indices; a panic
// in any unit is re-raised on the caller after the pool drains.
func Map[T any](workers, n int, fn func(i int) T) []T {
	return MapProgress(workers, n, fn, nil)
}

// MapWith is Map with per-worker state: each worker goroutine calls
// newState exactly once and threads the returned value through every
// unit it runs, so S can hold scratch that is expensive to build and
// unsafe to share — a simulator arena, a decode buffer, a local RNG.
// newState runs on the worker goroutine; fn(s, i) owns s for the
// duration of the call and must not retain it past returning.  States
// are never shared between workers, never used concurrently, and are
// dropped when the pool drains (put long-lived scratch in a sync.Pool
// instead if it should outlive the call).  For every worker count the
// output is out[i] = fn(·, i) in index order; determinism therefore
// requires fn's result to be independent of which state runs it —
// state must be scratch, not input.
func MapWith[S, T any](workers, n int, newState func() S, fn func(s S, i int) T) []T {
	return mapPool(workers, n, newState, fn, nil)
}

// MapProgress is Map with a completion callback: after each unit
// finishes, progress(done, n) is invoked with the number of completed
// units so far.  The callback runs on worker goroutines (possibly
// concurrently for distinct counts) and must be cheap and
// thread-safe; nil disables reporting.  Completion order — and hence
// the sequence of done values observed — depends on scheduling.  When
// every unit returns normally, progress(n, n) is always the final
// call; if a unit panics, the panic is re-raised after the pool
// drains, the panicking unit is not counted, and progress never
// reports n — callers observing a panic must not expect a final
// full-count call.
func MapProgress[T any](workers, n int, fn func(i int) T, progress func(done, total int)) []T {
	return mapPool(workers, n, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) T { return fn(i) }, progress)
}

// mapPool is the one worker pool behind Map, MapWith and MapProgress:
// exactly min(workers, n) goroutines are started (never one per unit)
// and each pulls unit indices from a shared atomic counter until the
// units are exhausted, building its per-worker state once on the way
// in.  The only cross-worker synchronization on the unit path is that
// counter (plus the optional progress counter), so workers running
// allocation-free units share nothing that serializes them.
func mapPool[S, T any](workers, n int, newState func() S, fn func(s S, i int) T, progress func(done, total int)) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	workers = clamp(workers, n)

	// Work accounting: n units enter the queue now; each leaves it as
	// a worker picks it up (runUnit), and whatever never started —
	// units abandoned after a panic — is drained on the way out so
	// the queue gauge always returns to zero.
	poolStats.pools.Add(1)
	poolStats.queued.Add(int64(n))
	var started atomic.Int64
	defer func() { poolStats.queued.Add(started.Load() - int64(n)) }()

	if workers == 1 {
		s := newState()
		for i := range out {
			started.Add(1)
			runUnit(func() { out[i] = fn(s, i) })
			if progress != nil {
				progress(i+1, n)
			}
		}
		return out
	}

	var (
		next     atomic.Int64
		done     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			s := newState()
			for {
				// Bound-check in int64 before narrowing: on
				// GOARCH=386 the old int(next.Add(1)) wrapped
				// negative past 2^31 and indexed out of range
				// instead of terminating.
				v := next.Add(1) - 1
				if v >= int64(n) || panicked.Load() != nil {
					return
				}
				i := int(v) //fxlint:allow truncation — v < n, an int
				completed := func() (completed bool) {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, &r)
						}
					}()
					started.Add(1)
					runUnit(func() { out[i] = fn(s, i) })
					return true
				}()
				// A panicked unit is not counted, so done can never
				// reach n once a unit has failed — the documented
				// "no final progress(n, n) after a panic" contract.
				if completed && progress != nil {
					// done counts completed units, so it never
					// exceeds n, an int.
					progress(int(done.Add(1)), n) //fxlint:allow truncation — done <= n
				}
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	return out
}

// Memo is a deterministic result cache keyed by a comparable
// configuration.  Concurrent Gets for the same key share one
// computation (the rest block until it finishes); Gets for different
// keys compute independently.  The zero value is ready to use and
// grows without bound; set MaxEntries before first use to cap it.
type Memo[K comparable, V any] struct {
	// MaxEntries, when positive, bounds the number of cached keys:
	// inserting a new key beyond the cap evicts the oldest-inserted
	// key whose computation has completed (FIFO over completed
	// entries).  In-flight entries are never evicted — evicting one
	// would let a concurrent Get for the same key launch a duplicate
	// computation, breaking the singleflight guarantee — so the memo
	// may transiently exceed the cap while more than MaxEntries
	// computations are in flight; it shrinks back as they complete
	// and later insertions evict.  Callers holding an evicted value
	// keep it; eviction only forgets the cache's reference.  Zero
	// means unbounded.  Set before first use; not safe to change
	// concurrently with Get.
	MaxEntries int

	mu    sync.Mutex
	m     map[K]*memoEntry[V]
	order []K // insertion order, for FIFO eviction
}

type memoEntry[V any] struct {
	once sync.Once
	done atomic.Bool
	v    V
}

// Get returns the cached value for key, computing it with compute on
// first use.  compute runs outside the cache lock, so a slow
// computation for one key never blocks lookups for another.
func (c *Memo[K, V]) Get(key K, compute func() V) V {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*memoEntry[V])
	}
	e := c.m[key]
	if e == nil {
		// Evict oldest completed entries until the insertion fits the
		// cap.  An in-flight entry must survive: a concurrent Get for
		// its key has to find it and join the computation rather than
		// start a second one.  If only in-flight entries remain, the
		// insertion goes over cap; the loop (not a single eviction)
		// is what shrinks an over-cap memo back to MaxEntries once
		// those computations complete and new keys arrive.
		for c.MaxEntries > 0 && len(c.order) >= c.MaxEntries {
			victim := -1
			for i, k := range c.order {
				if old := c.m[k]; old == nil || old.done.Load() {
					victim = i
					break
				}
			}
			if victim < 0 {
				break
			}
			delete(c.m, c.order[victim])
			c.order = append(c.order[:victim], c.order[victim+1:]...)
		}
		e = &memoEntry[V]{}
		c.m[key] = e
		c.order = append(c.order, key)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.v = compute()
		e.done.Store(true)
	})
	return e.v
}

// Peek reports whether key has a completed cached value, returning it
// if so.  It never triggers or waits for a computation.
func (c *Memo[K, V]) Peek(key K) (V, bool) {
	var zero V
	c.mu.Lock()
	e := c.m[key]
	c.mu.Unlock()
	if e == nil || !e.done.Load() {
		return zero, false
	}
	return e.v, true
}

// Len returns the number of cached keys, including entries whose
// computation is still in flight.
func (c *Memo[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Purge drops every cached entry.  In-flight computations are
// unaffected — their waiters still receive the computed value — but
// subsequent Gets recompute.
func (c *Memo[K, V]) Purge() {
	c.mu.Lock()
	c.m = nil
	c.order = nil
	c.mu.Unlock()
}

// Runner executes one independent work unit — a simulator session, a
// sweep point — and returns its result: unit in, result out.  The
// engine's worker pool (Local) computes units in-process; fleet
// execution leases units through a Ledger instead (internal/coord).
// RunUnit must be safe for concurrent calls on distinct units, and
// because every unit is a pure function of its description, a Runner
// may execute a unit more than once (retries) without changing the
// result.
type Runner[U, R any] interface {
	RunUnit(ctx context.Context, unit U) (R, error)
}

// Local is the in-process Runner: it computes every unit with Fn on
// the calling goroutine.  Concurrency comes from the pool driving it
// (RunAll), not from Local itself.
type Local[U, R any] struct {
	Fn func(U) (R, error)
}

// RunUnit implements Runner.
func (l Local[U, R]) RunUnit(_ context.Context, unit U) (R, error) {
	return l.Fn(unit)
}

// RunAll drives every unit through r on a bounded worker pool and
// returns results in unit order, so output is identical for every
// worker count and unit scheduling.  workers <= 0 selects
// DefaultWorkers.  progress follows the MapProgress contract; nil
// disables it.  The first unit error cancels ctx for the remaining
// units and is returned after the pool drains.
func RunAll[U, R any](ctx context.Context, workers int, units []U, r Runner[U, R], progress func(done, total int)) ([]R, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
	)
	out := MapProgress(workers, len(units), func(i int) R {
		res, err := r.RunUnit(ctx, units[i])
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			cancel()
		}
		return res
	}, progress)
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
