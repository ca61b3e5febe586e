package remote

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// echoUnit / echoResult are a trivial unit type for exercising the
// transport without booting simulators.
type echoUnit struct {
	X int `json:"x"`
}

type echoResult struct {
	Y int `json:"y"`
}

// echoHandler serves the echo computation (Y = 2X).
func echoHandler(w http.ResponseWriter, r *http.Request) {
	var u echoUnit
	if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	json.NewEncoder(w).Encode(echoResult{Y: u.X * 2})
}

func TestPostUnitRoundTrip(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(http.HandlerFunc(echoHandler))
	t.Cleanup(srv.Close)
	res, err := PostUnit[echoUnit, echoResult](context.Background(), nil, srv.URL, echoUnit{X: 21}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Y != 42 {
		t.Fatalf("PostUnit = %+v, want Y=42", res)
	}
}

func TestErrorEnvelopeSurfacedInErrorString(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(ErrorResponse{
			Code: CodeInvalidConfig, Message: "cores out of range", RequestID: "abc123",
		})
	}))
	t.Cleanup(srv.Close)

	_, err := PostUnit[echoUnit, echoResult](context.Background(), nil, srv.URL, echoUnit{X: 1}, time.Minute)
	if err == nil {
		t.Fatal("PostUnit succeeded against an erroring backend")
	}
	if !strings.Contains(err.Error(), CodeInvalidConfig+": cores out of range") {
		t.Fatalf("error %q does not surface the envelope code", err)
	}

	// Non-envelope bodies still surface, truncated.
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "old-style text error", http.StatusInternalServerError)
	}))
	t.Cleanup(plain.Close)
	_, err = PostUnit[echoUnit, echoResult](context.Background(), nil, plain.URL, echoUnit{X: 1}, time.Minute)
	if err == nil || !strings.Contains(err.Error(), "old-style text error") {
		t.Fatalf("plain-body error not surfaced: %v", err)
	}
}

func TestClientForwardsRequestID(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := "<absent>"
		if _, present := r.Header[obs.RequestIDHeader]; present {
			id = r.Header.Get(obs.RequestIDHeader)
		}
		mu.Lock()
		got = append(got, id)
		mu.Unlock()
		echoHandler(w, r)
	}))
	t.Cleanup(srv.Close)

	ctx := obs.WithRequestID(context.Background(), "trace-forward")
	if _, err := PostUnit[echoUnit, echoResult](ctx, nil, srv.URL, echoUnit{X: 3}, 0); err != nil {
		t.Fatal(err)
	}
	// Without an ID in the context, no header is sent.
	if _, err := PostUnit[echoUnit, echoResult](context.Background(), nil, srv.URL, echoUnit{X: 1}, 0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != "trace-forward" || got[1] != "<absent>" {
		t.Errorf("X-Request-Id per POST = %q, want [trace-forward <absent>]", got)
	}
}

func TestClientRespectsContextCancel(t *testing.T) {
	t.Parallel()
	stallDone := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // let the server watch for disconnect
		select {
		case <-r.Context().Done():
		case <-stallDone:
		}
	}))
	t.Cleanup(func() { close(stallDone); stall.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := PostUnit[echoUnit, echoResult](ctx, nil, stall.URL, echoUnit{X: 1}, time.Hour); err == nil {
		t.Fatal("want context error from canceled unit")
	}
}

func TestParseBackends(t *testing.T) {
	t.Parallel()
	if got := ParseBackends(""); got != nil {
		t.Errorf("ParseBackends(\"\") = %v, want nil", got)
	}
	got := ParseBackends(" a:1, b:2 ,,c:3 ")
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("ParseBackends = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ParseBackends[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
