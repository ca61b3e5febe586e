package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// indices returns the units 0..n-1.
func indices(n int) []int {
	units := make([]int, n)
	for i := range units {
		units[i] = i
	}
	return units
}

// mapAll runs fn over indices 0..n-1 through RunAll, failing the test
// on a unit error.
func mapAll(t *testing.T, workers, n int, fn func(i int) int, progress func(done, total int)) []int {
	t.Helper()
	out, err := RunAll(context.Background(), workers, indices(n),
		Local[int, int]{Fn: func(i int) (int, error) { return fn(i), nil }}, progress)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	return out
}

// The TestMap* tests pin RunAll's map contract: out[i] is unit i's
// result whatever the worker count and scheduling.

func TestMapResultsInIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		got := mapAll(t, workers, 50, func(i int) int {
			// Finish out of submission order to stress reassembly.
			time.Sleep(time.Duration((i*7)%5) * time.Millisecond)
			return i * i
		}, nil)
		if len(got) != 50 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	before := Stats()
	if got := mapAll(t, 4, 0, func(int) int { return 1 }, nil); got != nil {
		t.Errorf("no units should return nil, got %v", got)
	}
	if after := Stats(); after.Pools != before.Pools {
		t.Errorf("an empty RunAll booked %d pools, want 0", after.Pools-before.Pools)
	}
}

func TestMapEachIndexExactlyOnce(t *testing.T) {
	const n = 200
	var calls [n]atomic.Int32
	mapAll(t, 8, n, func(i int) int {
		calls[i].Add(1)
		return i
	}, nil)
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Errorf("index %d called %d times", i, c)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	mapAll(t, workers, 40, func(i int) int {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return i
	}, nil)
	if p := peak.Load(); p > workers {
		t.Errorf("peak in-flight = %d, want <= %d", p, workers)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "unit 3 failed" {
					t.Errorf("workers=%d: recovered %v, want unit 3's panic", workers, r)
				}
			}()
			mapAll(t, workers, 8, func(i int) int {
				if i == 3 {
					panic("unit 3 failed")
				}
				return i
			}, nil)
			t.Errorf("workers=%d: RunAll returned instead of panicking", workers)
		}()
	}
}

func TestClamp(t *testing.T) {
	if got := clamp(0, 100); got != DefaultWorkers() {
		t.Errorf("clamp(0, 100) = %d, want DefaultWorkers %d", got, DefaultWorkers())
	}
	if got := clamp(-1, 100); got != DefaultWorkers() {
		t.Errorf("clamp(-1, 100) = %d", got)
	}
	if got := clamp(16, 4); got != 4 {
		t.Errorf("clamp(16, 4) = %d, want 4", got)
	}
}

func TestMemoComputesOncePerKey(t *testing.T) {
	var m Memo[int, int]
	var computes atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				if got := m.Get(k, func() int {
					computes.Add(1)
					time.Sleep(time.Millisecond)
					return k * 10
				}); got != k*10 {
					t.Errorf("Get(%d) = %d", k, got)
				}
			}
		}()
	}
	wg.Wait()
	if c := computes.Load(); c != 4 {
		t.Errorf("computed %d times, want once per key (4)", c)
	}
}

func TestMapProgressReachesTotal(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		var sawFinal atomic.Bool
		const n = 25
		out := mapAll(t, workers, n, func(i int) int { return i }, func(done, total int) {
			calls.Add(1)
			if total != n {
				t.Errorf("workers=%d: total = %d, want %d", workers, total, n)
			}
			if done == total {
				sawFinal.Store(true)
			}
		})
		if len(out) != n {
			t.Fatalf("workers=%d: len = %d", workers, len(out))
		}
		if c := calls.Load(); c != n {
			t.Errorf("workers=%d: progress called %d times, want %d", workers, c, n)
		}
		if !sawFinal.Load() {
			t.Errorf("workers=%d: progress never reported done == total", workers)
		}
	}
}

func TestMemoMaxEntriesEvictsOldest(t *testing.T) {
	m := Memo[int, int]{MaxEntries: 2}
	var computes atomic.Int32
	get := func(k int) int {
		return m.Get(k, func() int { computes.Add(1); return k })
	}
	get(1)
	get(2)
	get(3) // evicts 1
	if n := m.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
	get(3) // still cached
	if c := computes.Load(); c != 3 {
		t.Errorf("computed %d times after re-getting key 3, want 3 (key 3 cached)", c)
	}
	get(1) // evicted: recomputes
	if c := computes.Load(); c != 4 {
		t.Errorf("computed %d times, want 4 (1, 2, 3, then 1 again)", c)
	}
}

func TestMemoPurge(t *testing.T) {
	var m Memo[int, int]
	var computes atomic.Int32
	for i := 0; i < 3; i++ {
		m.Get(i, func() int { computes.Add(1); return i })
	}
	m.Purge()
	if n := m.Len(); n != 0 {
		t.Errorf("Len after Purge = %d", n)
	}
	m.Get(0, func() int { computes.Add(1); return 0 })
	if c := computes.Load(); c != 4 {
		t.Errorf("computed %d times, want 4 (purge forces recompute)", c)
	}
}

// TestMemoPanicDoesNotPoisonKey: a compute that panics caches
// nothing.  The panic reaches its caller, a Get that was waiting on
// it computes afresh instead of returning the zero value, and later
// Gets for the key see the recomputed value.
func TestMemoPanicDoesNotPoisonKey(t *testing.T) {
	var m Memo[int, *int]
	started := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		m.Get(1, func() *int { close(started); <-release; panic("compute failed") })
	}()
	<-started
	waiter := make(chan *int, 1)
	go func() { waiter <- m.Get(1, func() *int { v := 7; return &v }) }()
	close(release)
	if r := <-recovered; r != "compute failed" {
		t.Errorf("recovered %v, want the compute's panic", r)
	}
	if v := <-waiter; v == nil || *v != 7 {
		t.Errorf("Get racing a panicked compute = %v, want 7", v)
	}
	if v := m.Get(1, func() *int { v := 9; return &v }); v == nil || *v != 7 {
		t.Errorf("Get after the recompute = %v, want the cached 7", v)
	}
	if n := m.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}

	// With no concurrent waiter: the panicked key simply recomputes.
	func() {
		defer func() { recover() }()
		m.Get(2, func() *int { panic("compute failed") })
	}()
	if v := m.Get(2, func() *int { v := 8; return &v }); v == nil || *v != 8 {
		t.Errorf("Get after a panicked compute = %v, want 8", v)
	}
}

// TestMemoEvictionSkipsInFlight pins the singleflight-under-eviction
// guarantee: an in-flight entry must never be chosen as the eviction
// victim, because a concurrent Get for its key would then launch a
// duplicate computation.
func TestMemoEvictionSkipsInFlight(t *testing.T) {
	m := Memo[int, int]{MaxEntries: 1}
	var computesA atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	firstA := make(chan int, 1)
	go func() {
		firstA <- m.Get(1, func() int {
			computesA.Add(1)
			close(started)
			<-release
			return 10
		})
	}()
	<-started

	// Inserting a second key is over cap, but the only candidate is
	// in flight: it must survive, not be evicted.
	if got := m.Get(2, func() int { return 20 }); got != 20 {
		t.Fatalf("Get(2) = %d", got)
	}

	// A concurrent Get for the in-flight key must join the running
	// computation, not start a second one.
	secondA := make(chan int, 1)
	go func() {
		secondA <- m.Get(1, func() int { computesA.Add(1); return 99 })
	}()
	close(release)
	if a, b := <-firstA, <-secondA; a != 10 || b != 10 {
		t.Errorf("Get(1) pair = %d, %d, want shared result 10", a, b)
	}
	if c := computesA.Load(); c != 1 {
		t.Errorf("key 1 computed %d times under eviction pressure, want 1", c)
	}

	// Once complete, both entries become evictable: the next
	// insertion evicts in a loop, shrinking the over-cap memo all
	// the way back to the bound.
	m.Get(3, func() int { return 30 })
	if n := m.Len(); n != 1 {
		t.Errorf("Len after completion = %d, want the memo back at MaxEntries (1)", n)
	}
}

// TestMemoEvictionUnderChurn races many goroutines over a tiny capped
// memo and checks (under -race) that singleflight accounting stays
// sane: every Get observes the value its key computes.
func TestMemoEvictionUnderChurn(t *testing.T) {
	m := Memo[int, int]{MaxEntries: 2}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 5
				if got := m.Get(k, func() int { return k * 7 }); got != k*7 {
					t.Errorf("Get(%d) = %d, want %d", k, got, k*7)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMapProgressPanicSkipsFinalCall pins the documented panic
// contract: a panicking unit is re-raised, is not counted, and
// progress never reports done == total.
func TestMapProgressPanicSkipsFinalCall(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var sawFull atomic.Bool
		func() {
			defer func() {
				if r := recover(); r != "unit 2 failed" {
					t.Errorf("workers=%d: recovered %v, want unit 2's panic", workers, r)
				}
			}()
			mapAll(t, workers, 6, func(i int) int {
				if i == 2 {
					panic("unit 2 failed")
				}
				return i
			}, func(done, total int) {
				if done == total {
					sawFull.Store(true)
				}
			})
			t.Errorf("workers=%d: RunAll returned instead of panicking", workers)
		}()
		if sawFull.Load() {
			t.Errorf("workers=%d: progress reported done == total despite a panicked unit", workers)
		}
	}
}

func TestRunAllMatchesLocalMap(t *testing.T) {
	units := indices(30)
	r := Local[int, int]{Fn: func(u int) (int, error) { return u * u, nil }}
	for _, workers := range []int{0, 1, 3} {
		got, err := RunAll(context.Background(), workers, units, r, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunAllPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	r := Local[int, int]{Fn: func(u int) (int, error) {
		if u == 5 {
			return 0, fmt.Errorf("unit %d: %w", u, boom)
		}
		return u, nil
	}}
	out, err := RunAll(context.Background(), 4, indices(10), r, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if out != nil {
		t.Errorf("out = %v, want nil on error", out)
	}
}

// TestRunAllCancelsContextOnError: the ctx handed to remaining units
// is canceled once any unit fails, so the remaining units fail fast
// instead of completing work whose run is already doomed.  The assertion is
// timing: without cancellation the surviving units would sleep out
// their full 5s budget.
func TestRunAllCancelsContextOnError(t *testing.T) {
	start := time.Now()
	_, err := RunAll(context.Background(), 2, []int{0, 1, 2, 3},
		runnerFunc[int, int](func(ctx context.Context, u int) (int, error) {
			if u == 0 {
				return 0, errors.New("first unit fails")
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(5 * time.Second):
				return u, nil
			}
		}), nil)
	if err == nil {
		t.Fatal("want error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("RunAll took %v; cancellation did not propagate to running units", elapsed)
	}
}

// TestRunAllStopsDispatchAfterFirstError: once a unit fails, or ctx
// ends, no further unit starts — the failing worker cancels the
// ledger rather than leaving the rest of the units to run.
func TestRunAllStopsDispatchAfterFirstError(t *testing.T) {
	var ran atomic.Int32
	_, err := RunAll(context.Background(), 1, indices(10),
		Local[int, int]{Fn: func(u int) (int, error) {
			ran.Add(1)
			return 0, fmt.Errorf("unit %d failed", u)
		}}, nil)
	if err == nil {
		t.Fatal("want the first unit's error")
	}
	if n := ran.Load(); n != 1 {
		t.Errorf("%d units ran after the first failed, want exactly 1", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ran.Store(0)
	_, err = RunAll(ctx, 1, indices(10),
		runnerFunc[int, int](func(_ context.Context, u int) (int, error) {
			ran.Add(1)
			cancel() // the unit succeeds, but the run is over
			return u, nil
		}), nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 1 {
		t.Errorf("%d units ran after ctx was canceled, want exactly 1", n)
	}

	ran.Store(0)
	if _, err := RunAll(ctx, 4, indices(10), runnerFunc[int, int](func(_ context.Context, u int) (int, error) {
		ran.Add(1)
		return u, nil
	}), nil); !errors.Is(err, context.Canceled) || ran.Load() != 0 {
		t.Errorf("RunAll on a canceled ctx = %v after %d units, want context.Canceled and none", err, ran.Load())
	}
}

// TestDrainStealsAndCompletes drives Drain on a ledger whose items
// all sit in a peer's deque: the draining owner steals every one,
// each lease is Completed exactly once, and the pool really is
// min(workers, items) goroutines — all of them hold a lease at once.
func TestDrainStealsAndCompletes(t *testing.T) {
	for _, tc := range []struct{ workers, items, want int }{
		{4, 4, 4},
		{8, 3, 3},
	} {
		led := NewLedger[int]("peer")
		led.Add("peer", indices(tc.items)...)
		var inside, stolen atomic.Int32
		all := make(chan struct{})
		seen := make([]atomic.Int32, tc.items)
		err := Drain(context.Background(), tc.workers, led, "self", func(_ context.Context, ls Lease[int]) error {
			if ls.Stolen && ls.Owner == "peer" {
				stolen.Add(1)
			}
			seen[ls.Item].Add(1)
			if inside.Add(1) == int32(tc.want) {
				close(all)
			}
			select {
			case <-all:
				return nil
			case <-time.After(5 * time.Second):
				return errors.New("fewer workers than min(workers, items) ran concurrently")
			}
		})
		if err != nil {
			t.Fatalf("workers=%d items=%d: %v", tc.workers, tc.items, err)
		}
		if n := stolen.Load(); n != int32(tc.items) {
			t.Errorf("workers=%d items=%d: %d leases stolen from peer, want all", tc.workers, tc.items, n)
		}
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Errorf("item %d ran %d times, want once", i, n)
			}
		}
		if n, p := led.Outstanding(), led.Pending("peer"); n != 0 || p != 0 {
			t.Errorf("after Drain: Outstanding %d, Pending %d; want every lease Completed", n, p)
		}
		if _, ok := led.Lease("self"); ok {
			t.Error("Lease succeeded on a drained ledger")
		}
	}
}

// runnerFunc adapts a function to the Runner interface for tests.
type runnerFunc[U, R any] func(ctx context.Context, u U) (R, error)

func (f runnerFunc[U, R]) RunUnit(ctx context.Context, u U) (R, error) { return f(ctx, u) }

func TestMemoKeysIndependent(t *testing.T) {
	var m Memo[string, string]
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		m.Get("slow", func() string { <-release; return "s" })
		close(done)
	}()
	// A different key must not block behind the slow computation.
	got := make(chan string, 1)
	go func() { got <- m.Get("fast", func() string { return "f" }) }()
	select {
	case v := <-got:
		if v != "f" {
			t.Errorf("fast key = %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fast key blocked behind slow key")
	}
	close(release)
	<-done
}

// TestStatsAccountsUnits: the pool's process-wide work accounting
// must book every unit — started, completed, busy time — and its
// gauges (queued, in-flight) must return to their pre-call level
// even when a unit panics or fails mid-pool.
func TestStatsAccountsUnits(t *testing.T) {
	before := Stats()
	const n = 24
	mapAll(t, 4, n, func(i int) int {
		time.Sleep(100 * time.Microsecond)
		return i
	}, nil)
	after := Stats()
	if got := after.UnitsStarted - before.UnitsStarted; got != n {
		t.Errorf("UnitsStarted delta = %d, want %d", got, n)
	}
	if got := after.UnitsCompleted - before.UnitsCompleted; got != n {
		t.Errorf("UnitsCompleted delta = %d, want %d", got, n)
	}
	if after.BusyNs <= before.BusyNs {
		t.Errorf("BusyNs did not advance: %d -> %d", before.BusyNs, after.BusyNs)
	}
	if after.Pools != before.Pools+1 {
		t.Errorf("Pools delta = %d, want 1", after.Pools-before.Pools)
	}

	// Gauges return to baseline after a panicking or failing pool
	// too: the abandoned units drain from the queue on the way out.
	// Engine tests do not run in parallel, so the deltas are exact.
	func() {
		defer func() { recover() }()
		mapAll(t, 2, 16, func(i int) int {
			if i == 3 {
				panic("boom")
			}
			return i
		}, nil)
	}()
	RunAll(context.Background(), 2, indices(16), Local[int, int]{Fn: func(i int) (int, error) {
		if i == 3 {
			return 0, errors.New("boom")
		}
		return i, nil
	}}, nil)
	end := Stats()
	if end.Queued != before.Queued || end.InFlight != before.InFlight {
		t.Errorf("gauges did not return to baseline: queued %d -> %d, in-flight %d -> %d",
			before.Queued, end.Queued, before.InFlight, end.InFlight)
	}
	if end.UnitsCompleted > end.UnitsStarted {
		t.Errorf("completed %d exceeds started %d", end.UnitsCompleted, end.UnitsStarted)
	}
}
