package remote

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/retry"
)

// A 429 surfaces the backend's Retry-After as the error's retry
// hint, so the caller's policy waits the advertised interval.
func TestPostUnitShedCarriesRetryAfter(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		http.Error(w, `{"code":"shed","message":"server at capacity"}`, http.StatusTooManyRequests)
	}))
	t.Cleanup(srv.Close)
	_, err := PostUnit[echoUnit, echoResult](context.Background(), nil, srv.URL, echoUnit{X: 1}, 0)
	if err == nil || !strings.Contains(err.Error(), CodeShed) {
		t.Fatalf("shed not surfaced: %v", err)
	}
	if hint, ok := retry.AfterHint(err); !ok || hint != 3*time.Second {
		t.Errorf("retry hint = %v, %v; want 3s, true", hint, ok)
	}
}

func TestParseRetryAfter(t *testing.T) {
	t.Parallel()
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"1", time.Second},
		{" 2 ", 2 * time.Second},
		{"0", 0},
		{"", time.Second},
		{"soon", time.Second},
		{"-3", time.Second},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
