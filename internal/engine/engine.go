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
// # One local pool
//
// Drain is the engine's only in-process worker pool: exactly
// min(workers, items) goroutines lease items from a Ledger until it
// is drained or canceled — never a goroutine per unit.  RunAll is
// Drain over a one-owner ledger of unit indices; the fleet
// coordinator (internal/coord) drains whatever its backends could not
// run through the same call.  Scratch that is expensive to build and
// unsafe to share (core's session arenas) lives in a sync.Pool, which
// degenerates to per-worker ownership under a pool because each
// goroutine re-Gets the arena it just Put; a unit's result must stay
// a pure function of the unit, which is what keeps output identical
// across worker counts.
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
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWorkers returns the default degree of parallelism: one worker
// per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// poolStats is the engine's process-wide instrumentation: every Drain
// books units through these atomics, so the service's /v1/metrics
// can report queue depth, in-flight units and worker busy time
// without the engine knowing the service exists.  The cost is a few
// atomic adds and two clock reads per unit — noise against units that
// each simulate millions of machine cycles.
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
	Pools          uint64 // Drain invocations (RunAll, coord's local drain)
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
// computation for one key never blocks lookups for another.  A
// compute that panics caches nothing: its entry is dropped before the
// panic propagates, and Gets that were waiting on it retry, so the
// next Get for the key computes afresh.
func (c *Memo[K, V]) Get(key K, compute func() V) V {
	for {
		e := c.entry(key)
		e.once.Do(func() {
			defer func() {
				if !e.done.Load() {
					c.drop(key, e)
				}
			}()
			e.v = compute()
			e.done.Store(true)
		})
		if e.done.Load() {
			return e.v
		}
	}
}

// entry returns key's entry, inserting an empty one — after evicting
// down to MaxEntries — when the key is absent.
func (c *Memo[K, V]) entry(key K) *memoEntry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
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
	return e
}

// drop forgets key's entry e after its compute panicked, unless a
// Purge already replaced it.
func (c *Memo[K, V]) drop(key K, e *memoEntry[V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[key] != e {
		return
	}
	delete(c.m, key)
	if i := slices.Index(c.order, key); i >= 0 {
		c.order = slices.Delete(c.order, i, i+1)
	}
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
// sweep point — and returns its result: unit in, result out.  Local
// computes units in-process on the engine's pool (RunAll); fleet
// execution leases units to backends through a Ledger instead
// (internal/coord).
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
// DefaultWorkers.  Units are leased in index order from a one-owner
// Ledger drained by Drain, so the first unit error or the end of ctx
// stops further units from starting; the error is returned (a panic
// re-raised) after every worker exits.
//
// progress, when non-nil, is called after each unit returns
// normally with the number of completed units so far.  It runs on
// worker goroutines (possibly concurrently for distinct counts) and
// must be cheap and thread-safe; the sequence of done values depends
// on scheduling.  When every unit succeeds, progress(n, n) is always
// reported; a failed or panicking unit is not counted, so after one
// progress never reports n.
func RunAll[U, R any](ctx context.Context, workers int, units []U, r Runner[U, R], progress func(done, total int)) ([]R, error) {
	n := len(units)
	if n == 0 {
		return nil, nil
	}
	const owner = "local"
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	led := NewLedger[int](owner)
	led.Add(owner, idx...)
	out := make([]R, n)
	var done atomic.Int64
	err := Drain(ctx, workers, led, owner, func(ctx context.Context, ls Lease[int]) error {
		res, err := r.RunUnit(ctx, units[ls.Item])
		if err != nil {
			return err
		}
		out[ls.Item] = res
		if progress != nil {
			// done counts completed units, so it never exceeds n, an int.
			progress(int(done.Add(1)), n) //fxlint:allow truncation — done <= n
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Drain runs fn on items leased from led as owner — its own deque
// first, then steals from peers — on a pool of min(workers, items)
// goroutines, where items is what led holds pending when Drain
// starts; workers <= 0 selects DefaultWorkers.  Every item is booked
// in Stats.  An item whose fn returns nil is Completed.  On the first
// error, panic or end of ctx, the item in hand is Released, led is
// Canceled and the ctx handed to running fns is canceled; once every
// worker has exited, the panic is re-raised or the error returned
// (ctx's error when ctx ended).  The caller must not Complete or
// Release the leases Drain hands to fn.
func Drain[T any](ctx context.Context, workers int, led *Ledger[T], owner string, fn func(ctx context.Context, ls Lease[T]) error) error {
	led.mu.Lock()
	n := 0
	for _, q := range led.pending {
		n += len(q)
	}
	led.mu.Unlock()
	if n == 0 {
		return nil
	}
	workers = clamp(workers, n)

	// Work accounting: n items enter the queue now; each leaves it as
	// a worker picks it up (runUnit), and whatever never started —
	// items abandoned after a failure — is drained on the way out so
	// the queue gauge always returns to zero.
	poolStats.pools.Add(1)
	poolStats.queued.Add(int64(n))
	var started atomic.Int64
	defer func() { poolStats.queued.Add(started.Load() - int64(n)) }()

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// A worker blocked in Lease cannot see ctx; canceling the ledger
	// wakes it.
	defer context.AfterFunc(ctx, led.Cancel)()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		panicked atomic.Pointer[any]
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel() // cancels led too, through the AfterFunc above
	}
	// run executes one leased item, settling its lease either way.
	run := func(ls Lease[T]) {
		defer func() {
			if r := recover(); r != nil {
				led.Release(ls)
				panicked.CompareAndSwap(nil, &r)
				fail(nil) // the panic, re-raised below, outranks any error
			}
		}()
		started.Add(1)
		var err error
		runUnit(func() { err = fn(ctx, ls) })
		if err != nil {
			led.Release(ls)
			fail(err)
			return
		}
		led.Complete(ls)
	}
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				ls, ok := led.Lease(owner)
				if !ok {
					return
				}
				if err := ctx.Err(); err != nil {
					led.Release(ls)
					fail(err)
					return
				}
				run(ls)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	if firstErr != nil {
		return firstErr
	}
	return parent.Err()
}
