package coord

import (
	"context"
	"time"

	"repro/internal/fastrand"
	"repro/internal/store"
)

// Defaults for RetryPolicy's zero fields.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = 50 * time.Millisecond
	DefaultMaxDelay    = 2 * time.Second
)

// RetryPolicy is the coordinator's backoff schedule: capped
// exponential backoff with deterministic jitter, so a seeded run (a
// chaos plan, a reproduced CI failure) waits the exact same schedule
// every time.  The zero value means the Default* constants.
type RetryPolicy struct {
	// MaxAttempts bounds a lease refresh's attempts and the sheds a
	// dispatch worker takes from one backend, with no success between,
	// before giving it up.  0 means DefaultMaxAttempts; negative means
	// one attempt.
	MaxAttempts int

	// BaseDelay is the backoff before the second attempt; attempt n
	// backs off BaseDelay << (n-1), capped at MaxDelay.  0 means
	// DefaultBaseDelay.
	BaseDelay time.Duration

	// MaxDelay caps a single backoff wait, a backend's Retry-After
	// included.  0 means DefaultMaxDelay.
	MaxDelay time.Duration
}

// RetryStats counts the coordinator's retry outcomes since New — the
// retry block of fx8d's /v1/metrics JSON.
type RetryStats struct {
	// Attempts counts unit POSTs and lease-refresh writes.
	Attempts uint64 `json:"attempts"`

	// Retries counts relaunches after a failure.
	Retries uint64 `json:"retries"`

	// GiveUps counts dispatch workers that abandoned their backend and
	// lease refreshes that exhausted their attempts (context
	// cancellations included).
	GiveUps uint64 `json:"give_ups"`

	// BackoffWaits counts backoff sleeps; BackoffSecs is their total
	// duration.
	BackoffWaits uint64  `json:"backoff_waits"`
	BackoffSecs  float64 `json:"backoff_seconds"`
}

// delay returns the backoff before attempt+1 after `attempt` failures
// (attempt >= 1): capped exponential, jittered uniformly into
// [d/2, d] by fastrand.New(0, attempt).
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.BaseDelay
	// Shift in a loop with a cap check so large attempt counts cannot
	// overflow the duration.
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d <<= 1
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	half := d / 2
	r := fastrand.New(0, uint64(attempt))
	return half + time.Duration(r.Uint64()%uint64(half+1))
}

// wait is the backoff after `attempt` failures: hint > 0 — a shedding
// backend's Retry-After — replaces the computed delay, and either way
// the wait is capped at MaxDelay.
func (p RetryPolicy) wait(attempt int, hint time.Duration) time.Duration {
	d := p.delay(attempt)
	if hint > 0 {
		d = hint
	}
	return min(d, p.MaxDelay)
}

// backoff books and sleeps one backoff wait, returning ctx's error if
// ctx ends first.
func (c *Coordinator) backoff(ctx context.Context, attempt int, hint time.Duration) error {
	d := c.cfg.Retry.wait(attempt, hint)
	c.backoffWaits.Add(1)
	c.backoffNanos.Add(uint64(d))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// refreshLease writes this coordinator's lease under key, expiring
// LeaseTTL after the write, backing off between failed writes for up
// to MaxAttempts attempts.  It returns the new expiry, or the last
// write's error (ctx's, if ctx ended during a backoff).
func (c *Coordinator) refreshLease(ctx context.Context, key string) (time.Time, error) {
	for attempt := 1; ; attempt++ {
		c.attempts.Add(1)
		if attempt > 1 {
			c.retries.Add(1)
		}
		expires := time.Now().Add(c.cfg.LeaseTTL)
		err := store.PutJSON(c.cfg.Store, key, leaseRecord{Owner: c.owner, Expires: expires})
		if err == nil {
			return expires, nil
		}
		if ctx.Err() != nil || attempt >= c.cfg.Retry.MaxAttempts {
			c.giveUps.Add(1)
			return time.Time{}, err
		}
		if err := c.backoff(ctx, attempt, 0); err != nil {
			c.giveUps.Add(1)
			return time.Time{}, err
		}
	}
}
