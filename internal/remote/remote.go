// Package remote is the client side of fx8d's HTTP API: the paths of
// the unit-execution endpoints, DoJSON (one JSON request, one
// attempt), PostUnit (one unit on one backend), the unified error
// envelope, and the -backends flag parser.  The coordinator's job
// client (coord.SubmitJob and friends) rides DoJSON too.
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
// envelope (code, message, request ID); DoJSON decodes it and
// surfaces "code: message" in its error strings, so callers and logs
// can branch on the machine-readable code.  A 429 shed carries the
// backend's Retry-After, read back with RetryAfter.
//
// # Tracing
//
// When the driving context carries a request ID (obs.WithRequestID),
// DoJSON forwards it in the X-Request-Id header, so each backend's
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
// attempt: the unit is POSTed as JSON to url and the response body
// decoded as R (DoJSON).  No rerouting or fallback happens here: the
// caller schedules, as the coordinator's dispatch loop does when it
// reroutes a failed unit by releasing its lease back to the ledger.
// timeout <= 0 means DefaultUnitTimeout.
func PostUnit[U, R any](ctx context.Context, httpc *http.Client, url string, unit U, timeout time.Duration) (R, error) {
	if timeout <= 0 {
		timeout = DefaultUnitTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var out R
	if err := DoJSON(ctx, httpc, http.MethodPost, url, unit, &out); err != nil {
		var zero R
		return zero, err
	}
	return out, nil
}

// DoJSON issues one request to an fx8d endpoint: body, when non-nil,
// is sent as JSON, and a 200 or 201 response is decoded into out
// unless out is nil.  The driving context's request ID
// (obs.WithRequestID) is forwarded.  Any other status is an error
// quoting the envelope's "code: message"; a 429 shed also carries the
// backend's Retry-After (see RetryAfter).
func DoJSON(ctx context.Context, httpc *http.Client, method, url string, body, out any) error {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("remote: encoding request: %w", err)
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return fmt.Errorf("remote: %s: %w", url, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return fmt.Errorf("remote: %s: %w", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("remote: %s: reading response: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		err := fmt.Errorf("remote: %s: %s: %s", url, resp.Status, errorBody(data))
		if resp.StatusCode == http.StatusTooManyRequests {
			// A shed: the advertised Retry-After rides with the error so
			// the caller waits the server's interval instead of
			// re-entering the queue it was just shed from.
			return &shedError{err: err, after: parseRetryAfter(resp.Header.Get("Retry-After"))}
		}
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("remote: %s: decoding response: %w", url, err)
	}
	return nil
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
