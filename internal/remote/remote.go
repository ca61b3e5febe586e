// Package remote is the client side of fx8d's unit transport: the
// paths of the unit-execution endpoints, PostUnit (one unit, one
// backend, one attempt), the unified error envelope, and the
// -backends flag parser.
//
// Every unit is a pure function of its JSON-encoded description, so
// a unit may run on any backend, or more than once, with an identical
// result.  Scheduling lives above this package: the coordinator
// (internal/coord) leases units to per-backend workers, retries a
// failed unit by releasing its lease, and drains what the fleet could
// not serve locally.  The cmd tools' -backends flag runs a campaign
// as such a job over a fixed fleet.
//
// The serving side is fx8d's POST /v1/run/session and POST
// /v1/run/sweep endpoints (internal/service), which execute units behind the daemon's
// admission semaphore and cache unit results in the campaign store.
//
// # Errors
//
// Non-2xx responses from fx8d carry the unified ErrorResponse
// envelope (code, message, request ID); PostUnit decodes it and
// surfaces "code: message" in its error strings, so callers and logs
// can branch on the machine-readable code.  A 429 shed carries the
// backend's Retry-After as a retry hint (retry.AfterHint).
//
// # Tracing
//
// When the driving context carries a request ID (obs.WithRequestID),
// PostUnit forwards it in the X-Request-Id header, so each backend's
// span log attributes the unit to one trace: GET /v1/trace/{id} on
// the backends reconstructs where a job's time went.
package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
)

// Paths of the fx8d unit-execution endpoints, shared with
// internal/service so client and server cannot drift.
const (
	SessionPath = "/v1/run/session"
	SweepPath   = "/v1/run/sweep"
)

// DefaultUnitTimeout bounds one PostUnit attempt when the caller
// passes no timeout.
const DefaultUnitTimeout = 10 * time.Minute

// PostUnit executes one unit on one backend endpoint in a single
// attempt: the unit is POSTed as JSON to url and the 200 response
// body decoded as R.  No rerouting or fallback happens here: the
// caller schedules, as the coordinator's dispatch loop does when it
// reroutes a failed unit by releasing its lease back to the ledger.
// The driving context's request ID (obs.WithRequestID) is forwarded,
// a non-200 response surfaces the error envelope's code in the error
// string, and timeout <= 0 means DefaultUnitTimeout.
func PostUnit[U, R any](ctx context.Context, httpc *http.Client, url string, unit U, timeout time.Duration) (R, error) {
	var zero R
	payload, err := json.Marshal(unit)
	if err != nil {
		return zero, fmt.Errorf("remote: encoding unit: %w", err)
	}
	if timeout <= 0 {
		timeout = DefaultUnitTimeout
	}
	if httpc == nil {
		httpc = http.DefaultClient
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return zero, fmt.Errorf("remote: %s: %w", url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return zero, fmt.Errorf("remote: %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return zero, fmt.Errorf("remote: %s: reading response: %w", url, err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		// A shed: surface the advertised Retry-After as a hint so the
		// caller's retry policy waits the server's interval instead of
		// re-entering the queue it was just shed from.
		err := fmt.Errorf("remote: %s: %s: %s", url, resp.Status, errorBody(body))
		return zero, retry.WithAfter(err, parseRetryAfter(resp.Header.Get("Retry-After")))
	}
	if resp.StatusCode != http.StatusOK {
		return zero, fmt.Errorf("remote: %s: %s: %s", url, resp.Status, errorBody(body))
	}
	var out R
	if err := json.Unmarshal(body, &out); err != nil {
		return zero, fmt.Errorf("remote: %s: decoding result: %w", url, err)
	}
	return out, nil
}

// parseRetryAfter reads an integer-seconds Retry-After header value;
// absent or unparsable values mean one second, the interval fx8d's
// admission control advertises.
func parseRetryAfter(v string) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return time.Second
}

// ParseBackends splits a -backends flag value ("host:port,host:port")
// into its backend list, trimming blanks and dropping empty elements,
// so "" means no backends (local compute).
func ParseBackends(flagValue string) []string {
	var out []string
	for _, f := range strings.Split(flagValue, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
