// Package retry is the repo's single retry/backoff policy: one
// Policy type replaces the hand-rolled timeout, reroute-backoff and
// lease-refresh loops that used to live separately in internal/remote
// and internal/coord.
//
// A Policy combines capped exponential backoff with *deterministic*
// jitter: the wait before attempt n is a pure function of (Seed, n),
// drawn through internal/fastrand, so a seeded run — a chaos plan, a
// reproduced CI failure — waits the exact same schedule every time.
// Policies are plain values; the zero value retries with the
// defaults below.
//
// The policy understands three stop conditions — the attempt cap, the
// elapsed-time budget, and context cancellation — plus two error
// refinements: an error wrapped with Permanent is never retried, and
// an error carrying a Retry-After hint (WithAfter, which
// remote.PostUnit attaches when a backend sheds with 429 + Retry-After)
// replaces the computed backoff with the server's advertised
// interval.  Every outcome is booked through optional obs counters
// (Metrics), which the fx8d service surfaces in /v1/metrics.
package retry

import (
	"context"
	"errors"
	"time"

	"repro/internal/fastrand"
	"repro/internal/obs"
)

// Defaults for Policy's zero fields.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = 50 * time.Millisecond
	DefaultMaxDelay    = 2 * time.Second
)

// Policy is one retry/backoff schedule.  The zero value is usable and
// means the Default* constants; a Policy is a value, so deriving a
// variant (different seed, different budget) is a struct copy.
type Policy struct {
	// MaxAttempts bounds the total number of attempts (the first try
	// plus retries).  0 means DefaultMaxAttempts; negative means one
	// attempt, no retries.
	MaxAttempts int

	// BaseDelay is the backoff before the second attempt; attempt n
	// backs off BaseDelay << (n-1), capped at MaxDelay.  0 means
	// DefaultBaseDelay.
	BaseDelay time.Duration

	// MaxDelay caps a single backoff wait (including Retry-After
	// hints).  0 means DefaultMaxDelay.
	MaxDelay time.Duration

	// Budget bounds the total elapsed time across attempts and waits:
	// once exceeded, the next failure gives up instead of backing
	// off.  0 means no budget.
	Budget time.Duration

	// PerAttempt bounds one attempt: Do derives a child context with
	// this timeout for each call of the operation.  0 means no
	// per-attempt timeout.
	PerAttempt time.Duration

	// Seed derives the deterministic jitter: the wait before attempt
	// n is uniform in [delay/2, delay], drawn from
	// fastrand.New(Seed, n).  Two policies with equal fields wait
	// identical schedules.
	Seed uint64

	// Metrics, when set, books every outcome: attempts, retries,
	// give-ups, backoff waits and waited nanoseconds.
	Metrics *Metrics

	// Sleep overrides the backoff wait (tests, simulated time).  nil
	// sleeps on a real timer honoring ctx.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Metrics books a policy's outcomes as obs counters.  One Metrics may
// back any number of policies; the fx8d service registers the
// coordinator's instance so retries are visible in /v1/metrics.
type Metrics struct {
	// Attempts counts operation launches (first tries and retries).
	Attempts obs.Counter

	// Retries counts relaunches after a retryable failure.
	Retries obs.Counter

	// GiveUps counts operations abandoned after exhausting the
	// attempt cap or budget (context cancellations included).
	GiveUps obs.Counter

	// BackoffWaits counts backoff sleeps; BackoffNanos accumulates
	// their total duration.
	BackoffWaits obs.Counter
	BackoffNanos obs.Counter
}

// Snapshot is a point-in-time copy of a Metrics' counters — the
// /v1/metrics JSON shape.
type Snapshot struct {
	Attempts     uint64  `json:"attempts"`
	Retries      uint64  `json:"retries"`
	GiveUps      uint64  `json:"give_ups"`
	BackoffWaits uint64  `json:"backoff_waits"`
	BackoffSecs  float64 `json:"backoff_seconds"`
}

// Snapshot returns the counters' current values.  A nil receiver
// reads as all-zero, so callers can thread optional metrics without
// branching.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	return Snapshot{
		Attempts:     m.Attempts.Value(),
		Retries:      m.Retries.Value(),
		GiveUps:      m.GiveUps.Value(),
		BackoffWaits: m.BackoffWaits.Value(),
		BackoffSecs:  float64(m.BackoffNanos.Value()) / 1e9,
	}
}

// withDefaults resolves zero fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	return p
}

// Attempts returns the attempt cap with defaults resolved, for
// callers that drive their own attempt loop with Wait.
func (p Policy) Attempts() int { return p.withDefaults().MaxAttempts }

// Delay returns the backoff before attempt+1 given `attempt` failures
// so far (attempt >= 1): capped exponential with deterministic jitter
// in [delay/2, delay].  Pure — equal (Policy, attempt) pairs always
// return the same duration.
func (p Policy) Delay(attempt int) time.Duration {
	p = p.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := p.BaseDelay
	// Shift in a loop with a cap check so large attempt counts cannot
	// overflow the duration.
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d <<= 1
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if d <= 0 {
		return 0
	}
	half := d / 2
	r := fastrand.New(p.Seed, uint64(attempt))
	return half + time.Duration(r.Uint64()%uint64(half+1))
}

// Wait books and performs one backoff sleep before retry `attempt`
// (attempt >= 1 failures so far).  hint > 0 — a server's Retry-After
// — replaces the computed delay; either way the wait is capped at
// MaxDelay and aborted by ctx.  Callers that drive their own attempt
// loop (the coordinator's dispatch workers) use Wait directly; Do
// wraps the whole loop.
func (p Policy) Wait(ctx context.Context, attempt int, hint time.Duration) error {
	pd := p.withDefaults()
	d := pd.Delay(attempt)
	if hint > 0 {
		d = hint
	}
	if d > pd.MaxDelay {
		d = pd.MaxDelay
	}
	if p.Metrics != nil {
		p.Metrics.BackoffWaits.Inc()
		p.Metrics.BackoffNanos.Add(uint64(d))
	}
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs op under the policy: per-attempt timeout, capped
// exponential backoff with deterministic jitter between attempts,
// Retry-After hints honored, permanent errors respected, at most
// MaxAttempts launches within Budget.  The returned error is the last
// attempt's (or the context's).
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) error {
	pd := p.withDefaults()
	start := time.Now()
	var err error
	for attempt := 1; ; attempt++ {
		if p.Metrics != nil {
			p.Metrics.Attempts.Inc()
			if attempt > 1 {
				p.Metrics.Retries.Inc()
			}
		}
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if pd.PerAttempt > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, pd.PerAttempt)
		}
		err = op(attemptCtx)
		cancel()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || IsPermanent(err) || attempt >= pd.MaxAttempts ||
			(pd.Budget > 0 && time.Since(start) >= pd.Budget) {
			break
		}
		hint, _ := AfterHint(err)
		if werr := p.Wait(ctx, attempt, hint); werr != nil {
			err = werr
			break
		}
	}
	if p.Metrics != nil {
		p.Metrics.GiveUps.Inc()
	}
	return err
}

// permanentError marks an error as not-retryable.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops retrying immediately: the failure
// is structural (a validation error, an unknown kind), not transient.
// A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// afterError carries a server-advertised retry interval.
type afterError struct {
	err   error
	after time.Duration
}

func (e *afterError) Error() string { return e.err.Error() }
func (e *afterError) Unwrap() error { return e.err }

// WithAfter attaches a Retry-After hint to err: the next backoff
// waits the advertised interval instead of the computed one.
// remote.PostUnit attaches this when a backend sheds with 429.  A nil
// err stays nil.
func WithAfter(err error, after time.Duration) error {
	if err == nil {
		return nil
	}
	return &afterError{err: err, after: after}
}

// AfterHint extracts the Retry-After hint from err, reporting whether
// one was attached.
func AfterHint(err error) (time.Duration, bool) {
	var ae *afterError
	if errors.As(err, &ae) {
		return ae.after, true
	}
	return 0, false
}
