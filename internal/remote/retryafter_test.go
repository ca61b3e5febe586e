package remote

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// A 429 surfaces the backend's Retry-After through RetryAfter, so the
// caller waits the advertised interval.
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
	if hint, ok := RetryAfter(err); !ok || hint != 3*time.Second {
		t.Errorf("RetryAfter = %v, %v; want 3s, true", hint, ok)
	}
}

// Failures other than a 429 carry no Retry-After hint, even when the
// backend sends the header.
func TestRetryAfterHintAbsent(t *testing.T) {
	t.Parallel()
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		http.Error(w, `{"code":"internal","message":"backend on fire"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(failing.Close)
	_, err := PostUnit[echoUnit, echoResult](context.Background(), nil, failing.URL, echoUnit{X: 1}, 0)
	if err == nil {
		t.Fatal("PostUnit succeeded against a failing backend")
	}
	if hint, ok := RetryAfter(err); ok {
		t.Errorf("RetryAfter on a 500 = %v, true; want no hint", hint)
	}
	if _, ok := RetryAfter(nil); ok {
		t.Error("RetryAfter(nil) reported a shed")
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
