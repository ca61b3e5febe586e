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

func TestMapResultsInIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		got := Map(workers, 50, func(i int) int {
			// Finish out of submission order to stress reassembly.
			time.Sleep(time.Duration((i*7)%5) * time.Millisecond)
			return i * i
		})
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
	if got := Map(4, 0, func(int) int { return 1 }); got != nil {
		t.Errorf("n=0 should return nil, got %v", got)
	}
	if got := Map(4, -3, func(int) int { return 1 }); got != nil {
		t.Errorf("n<0 should return nil, got %v", got)
	}
}

func TestMapEachIndexExactlyOnce(t *testing.T) {
	const n = 200
	var calls [n]atomic.Int32
	Map(8, n, func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Errorf("index %d called %d times", i, c)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	Map(workers, 40, func(i int) int {
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
	})
	if p := peak.Load(); p > workers {
		t.Errorf("peak in-flight = %d, want <= %d", p, workers)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "unit 3 failed" {
			t.Errorf("recovered %v, want unit 3's panic", r)
		}
	}()
	Map(4, 8, func(i int) int {
		if i == 3 {
			panic("unit 3 failed")
		}
		return i
	})
	t.Error("Map returned instead of panicking")
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
		Map := MapProgress(workers, n, func(i int) int { return i }, func(done, total int) {
			calls.Add(1)
			if total != n {
				t.Errorf("workers=%d: total = %d, want %d", workers, total, n)
			}
			if done == total {
				sawFinal.Store(true)
			}
		})
		if len(Map) != n {
			t.Fatalf("workers=%d: len = %d", workers, len(Map))
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
	if _, ok := m.Peek(1); ok {
		t.Error("key 1 should have been evicted")
	}
	if _, ok := m.Peek(3); !ok {
		t.Error("key 3 should be cached")
	}
	get(1) // recomputes
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

func TestMemoPeekIgnoresInFlight(t *testing.T) {
	var m Memo[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	go m.Get("k", func() int { close(started); <-release; return 7 })
	<-started
	if _, ok := m.Peek("k"); ok {
		t.Error("Peek returned an in-flight computation")
	}
	close(release)
	if got := m.Get("k", func() int { return 0 }); got != 7 {
		t.Errorf("Get after release = %d, want 7", got)
	}
	if v, ok := m.Peek("k"); !ok || v != 7 {
		t.Errorf("Peek after completion = %d, %v", v, ok)
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
			MapProgress(workers, 6, func(i int) int {
				if i == 2 {
					panic("unit 2 failed")
				}
				return i
			}, func(done, total int) {
				if done == total {
					sawFull.Store(true)
				}
			})
			t.Errorf("workers=%d: MapProgress returned instead of panicking", workers)
		}()
		if sawFull.Load() {
			t.Errorf("workers=%d: progress reported done == total despite a panicked unit", workers)
		}
	}
}

func TestRunAllMatchesLocalMap(t *testing.T) {
	units := make([]int, 30)
	for i := range units {
		units[i] = i
	}
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
	units := make([]int, 10)
	for i := range units {
		units[i] = i
	}
	out, err := RunAll(context.Background(), 4, units, r, nil)
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

// TestMapWithOneStatePerWorker pins the pool shape satellite: MapWith
// builds exactly min(workers, n) states — one per pool goroutine,
// never one per unit — which is only possible if the pool starts a
// bounded number of goroutines that each loop over units.
func TestMapWithOneStatePerWorker(t *testing.T) {
	for _, tc := range []struct{ workers, n, want int }{
		{4, 100, 4},
		{8, 3, 3},
		{1, 50, 1},
	} {
		var states atomic.Int32
		got := MapWith(tc.workers, tc.n, func() int {
			return int(states.Add(1))
		}, func(s, i int) int {
			if s < 1 || s > tc.want {
				t.Errorf("unit %d ran with state %d, want 1..%d", i, s, tc.want)
			}
			return i
		})
		if int(states.Load()) != tc.want {
			t.Errorf("workers=%d n=%d: newState called %d times, want %d",
				tc.workers, tc.n, states.Load(), tc.want)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("out[%d] = %d", i, v)
			}
		}
	}
}

// mutableState is per-worker scratch that would race if two units
// ever shared it concurrently: units mutate it without any
// synchronization, so `go test -race` proves the isolation contract.
type mutableState struct {
	units int
	sum   int
}

// TestMapWithStateIsolation runs many quick units over few workers
// and checks, under the race detector, that per-worker state is never
// mutated concurrently and that every unit ran on exactly one state.
func TestMapWithStateIsolation(t *testing.T) {
	const workers, n = 4, 400
	var mu sync.Mutex
	var states []*mutableState
	MapWith(workers, n, func() *mutableState {
		s := &mutableState{}
		mu.Lock()
		states = append(states, s)
		mu.Unlock()
		return s
	}, func(s *mutableState, i int) int {
		s.units++ // unsynchronized on purpose: -race enforces ownership
		s.sum += i
		return i
	})
	totalUnits, totalSum := 0, 0
	for _, s := range states {
		totalUnits += s.units
		totalSum += s.sum
	}
	if totalUnits != n {
		t.Errorf("states saw %d units, want %d", totalUnits, n)
	}
	if want := n * (n - 1) / 2; totalSum != want {
		t.Errorf("states saw index sum %d, want %d", totalSum, want)
	}
}

// TestMapWithPanicPropagates: MapWith shares the pool's panic
// contract with Map.
func TestMapWithPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("panic did not propagate")
		}
	}()
	MapWith(4, 20, func() int { return 0 }, func(s, i int) int {
		if i == 7 {
			panic("unit 7")
		}
		return i
	})
}

// TestStatsAccountsUnits: the pool's process-wide work accounting
// must book every unit — started, completed, busy time — and its
// gauges (queued, in-flight) must return to their pre-call level
// even when a unit panics mid-pool.
func TestStatsAccountsUnits(t *testing.T) {
	before := Stats()
	const n = 24
	Map(4, n, func(i int) int {
		time.Sleep(100 * time.Microsecond)
		return i
	})
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

	// Gauges return to baseline after a panicking pool too: the
	// abandoned units drain from the queue on the way out.
	func() {
		defer func() { recover() }()
		Map(2, 16, func(i int) int {
			if i == 3 {
				panic("boom")
			}
			return i
		})
	}()
	// In-flight/queued are global gauges shared with parallel tests,
	// so assert deltas only when the process is otherwise quiet: the
	// panicking pool must not leak its own bookkeeping.
	end := Stats()
	if leaked := (end.Queued - before.Queued) + (end.InFlight - before.InFlight); leaked < 0 {
		t.Errorf("gauges went negative relative to baseline: queued %d in-flight %d",
			end.Queued, end.InFlight)
	}
	if end.UnitsCompleted > end.UnitsStarted {
		t.Errorf("completed %d exceeds started %d", end.UnitsCompleted, end.UnitsStarted)
	}
}
