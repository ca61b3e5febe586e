package coord

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// chaosRetry is the schedule the chaos suite runs under.
var chaosRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}

// TestRetryDelayMatchesRetryPackage is the differential check for
// the backoff schedule's move into this package: delay(1..8) equals,
// to the nanosecond, what the deleted internal/retry package's
// Policy.Delay(1..8) returned for the same fields (seed 0, the only
// seed the coordinator ever used).
func TestRetryDelayMatchesRetryPackage(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		policy RetryPolicy
		want   [8]time.Duration // Policy.Delay(1..8)
	}{
		{"default", RetryPolicy{},
			[8]time.Duration{49370448, 54640385, 111678763, 223335340, 454389188, 1243562561, 1828995768, 1329255326}},
		{"chaos, 3 attempts", RetryPolicy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
			[8]time.Duration{1264241, 2909528, 6363355, 10908865, 17718473, 18299572, 14289743, 19483973}},
		{"chaos, 4 attempts", chaosRetry,
			[8]time.Duration{1264241, 2909528, 6363355, 10908865, 17718473, 18299572, 14289743, 19483973}},
	}
	for _, tc := range cases {
		c := New(Config{Retry: tc.policy})
		c.Close()
		for attempt := 1; attempt <= 8; attempt++ {
			if got := c.cfg.Retry.delay(attempt); got != tc.want[attempt-1] {
				t.Errorf("%s: delay(%d) = %d, want %d", tc.name, attempt, got, tc.want[attempt-1])
			}
			if got := c.cfg.Retry.wait(attempt, 0); got != tc.want[attempt-1] {
				t.Errorf("%s: wait(%d, no hint) = %d, want %d", tc.name, attempt, got, tc.want[attempt-1])
			}
		}
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ in, want RetryPolicy }{
		{RetryPolicy{}, RetryPolicy{DefaultMaxAttempts, DefaultBaseDelay, DefaultMaxDelay}},
		{RetryPolicy{MaxAttempts: -1}, RetryPolicy{1, DefaultBaseDelay, DefaultMaxDelay}},
		{chaosRetry, chaosRetry},
	} {
		c := New(Config{Retry: tc.in})
		c.Close()
		if c.cfg.Retry != tc.want {
			t.Errorf("New resolved %+v to %+v, want %+v", tc.in, c.cfg.Retry, tc.want)
		}
	}
}

func TestRetryDelayDeterministicAndCapped(t *testing.T) {
	t.Parallel()
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	for attempt := 1; attempt <= 10; attempt++ {
		d1, d2 := p.delay(attempt), p.delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: delay not deterministic: %v vs %v", attempt, d1, d2)
		}
		base := min(10*time.Millisecond<<(attempt-1), 80*time.Millisecond)
		if d1 < base/2 || d1 > base {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d1, base/2, base)
		}
	}
	if got := p.delay(100); got > 80*time.Millisecond {
		t.Fatalf("delay %v exceeds cap despite huge attempt", got)
	}
}

// A Retry-After hint replaces the computed wait.
func TestRetryWaitUsesAfterHint(t *testing.T) {
	t.Parallel()
	long := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Hour, MaxDelay: time.Hour}
	if got := long.wait(1, 123*time.Millisecond); got != 123*time.Millisecond {
		t.Errorf("wait with a 123ms hint = %v, want the hint", got)
	}
}

// A Retry-After hint is capped at MaxDelay like any other wait.
func TestRetryWaitCapsHintAtMaxDelay(t *testing.T) {
	t.Parallel()
	short := RetryPolicy{MaxAttempts: 4, BaseDelay: DefaultBaseDelay, MaxDelay: 50 * time.Millisecond}
	if got := short.wait(1, time.Hour); got != 50*time.Millisecond {
		t.Errorf("wait with a 1h hint = %v, want the 50ms MaxDelay", got)
	}
}

// leaseWriteFS fails the next `fail` renames (lease writes, in the
// tests below); fail < 0 fails them all.
type leaseWriteFS struct {
	store.FS
	fail atomic.Int64
}

func (f *leaseWriteFS) Rename(oldpath, newpath string) error {
	if n := f.fail.Load(); n < 0 || (n > 0 && f.fail.CompareAndSwap(n, n-1)) {
		return errors.New("injected: lease write failed")
	}
	return f.FS.Rename(oldpath, newpath)
}

func leaseCoordinator(t *testing.T, fail int64) *Coordinator {
	t.Helper()
	fsys := &leaseWriteFS{FS: store.OS()}
	s, err := store.Open(t.TempDir(), store.WithFS(fsys))
	if err != nil {
		t.Fatal(err)
	}
	fsys.fail.Store(fail) // after Open's probe write
	c := New(Config{Store: s, Retry: chaosRetry})
	t.Cleanup(c.Close)
	return c
}

func leaseKey(t *testing.T) string {
	t.Helper()
	key, err := LeaseKey("job")
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// chaosBackoffSecs is the total backoff, in seconds, that refreshLease
// books for waits after the given attempts under chaosRetry.
func chaosBackoffSecs(attempts ...int) float64 {
	var d time.Duration
	for _, a := range attempts {
		d += chaosRetry.delay(a)
	}
	return float64(d) / 1e9
}

// Two failed lease writes, then the store recovers: refreshLease
// books three attempts, two retries and their backoff, and no give-up.
func TestRefreshLeaseSucceedsAfterRetries(t *testing.T) {
	t.Parallel()
	c := leaseCoordinator(t, 2)
	if _, err := c.refreshLease(context.Background(), leaseKey(t)); err != nil {
		t.Fatalf("refreshLease: %v", err)
	}
	want := RetryStats{Attempts: 3, Retries: 2, BackoffWaits: 2, BackoffSecs: chaosBackoffSecs(1, 2)}
	if got := c.RetryStats(); got != want {
		t.Errorf("after recovering on attempt 3: %+v, want %+v", got, want)
	}
}

// Every lease write fails: MaxAttempts attempts, then a give-up.
func TestRefreshLeaseGivesUpAtMaxAttempts(t *testing.T) {
	t.Parallel()
	c := leaseCoordinator(t, -1)
	if _, err := c.refreshLease(context.Background(), leaseKey(t)); err == nil {
		t.Fatal("refreshLease succeeded against an unwritable store")
	}
	want := RetryStats{Attempts: 4, Retries: 3, GiveUps: 1, BackoffWaits: 3, BackoffSecs: chaosBackoffSecs(1, 2, 3)}
	if got := c.RetryStats(); got != want {
		t.Errorf("after exhausting attempts: %+v, want %+v", got, want)
	}
}

// A canceled context stops refreshLease after the first failed write,
// without a backoff.
func TestRefreshLeaseStopsOnContextCancel(t *testing.T) {
	t.Parallel()
	c := leaseCoordinator(t, -1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.refreshLease(ctx, leaseKey(t)); err == nil {
		t.Fatal("refreshLease succeeded against an unwritable store")
	}
	want := RetryStats{Attempts: 1, GiveUps: 1}
	if got := c.RetryStats(); got != want {
		t.Errorf("after cancel: %+v, want %+v", got, want)
	}
}
