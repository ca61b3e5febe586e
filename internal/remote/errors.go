package remote

import (
	"encoding/json"
	"errors"
	"strings"
	"time"
)

// ErrorResponse is the service's unified error envelope: every
// non-200 response from fx8d carries this JSON body, so clients can
// branch on a machine-readable Code instead of parsing prose and can
// quote RequestID when correlating a failure with the backend's trace
// log.  It lives in this package — not internal/service — because the
// client parses it and the service imports the client's types, never
// the reverse.
type ErrorResponse struct {
	// Code is one of the Code* constants below.
	Code string `json:"code"`

	// Message is the human-readable detail.
	Message string `json:"message"`

	// RequestID echoes the X-Request-Id the server assigned (or was
	// given), the handle for GET /v1/trace/{id} on that backend.
	RequestID string `json:"request_id,omitempty"`
}

// Error implements error so a decoded envelope can be returned
// directly.
func (e ErrorResponse) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return e.Code + ": " + e.Message
}

// The machine-readable error codes.  Every code the service emits is
// listed here and documented in the README's error-code table.
const (
	// CodeInvalidConfig: the request body failed validation — bad
	// JSON, out-of-range parameters, an unknown kind.  HTTP 400.
	CodeInvalidConfig = "invalid_config"

	// CodeNotFound: no resource under that path — an unknown artefact
	// or job ID.  HTTP 404.
	CodeNotFound = "not_found"

	// CodeShed: the admission queue is full and the request was shed;
	// retry after the Retry-After delay.  HTTP 429.
	CodeShed = "shed"

	// CodeConflict: the request is valid but the resource's state
	// forbids it — cancelling an already-finished job.  HTTP 409.
	CodeConflict = "conflict"

	// CodeInternal: the handler failed to execute or encode a
	// response.  HTTP 500.
	CodeInternal = "internal"
)

// errorBody renders a non-200 response body for an error string: the
// envelope's "code: message" when the body decodes as one, otherwise
// the trimmed body truncated to 200 bytes (pre-envelope daemons,
// proxies in the path).
func errorBody(body []byte) string {
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err == nil && e.Code != "" {
		return e.Error()
	}
	msg := strings.TrimSpace(string(body))
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return msg
}

// shedError is DoJSON's error for a 429 shed: the backend's
// advertised Retry-After rides with it.
type shedError struct {
	err   error
	after time.Duration
}

func (e *shedError) Error() string { return e.err.Error() }
func (e *shedError) Unwrap() error { return e.err }

// RetryAfter reports whether err (or anything it wraps) is a 429 shed
// and, if so, the Retry-After interval the backend advertised.
func RetryAfter(err error) (time.Duration, bool) {
	var se *shedError
	if errors.As(err, &se) {
		return se.after, true
	}
	return 0, false
}
