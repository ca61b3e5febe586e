// Package clitest is the cmd tools' shared -backends test harness: an
// in-process fx8d fleet and the check that a tool prints the same
// output locally and through the fleet.
package clitest

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/service"
)

// fleet boots n in-process fx8d backends and returns their -backends
// flag value and a counter of the unit requests they received.
func fleet(t *testing.T, n int) (string, *atomic.Int64) {
	t.Helper()
	var units atomic.Int64
	addrs := make([]string, n)
	for i := range addrs {
		inner := service.New(service.Config{Workers: 1, MaxInFlight: 4})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/run/") {
				units.Add(1)
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		t.Cleanup(inner.Close)
		addrs[i] = ts.URL
	}
	return strings.Join(addrs, ","), &units
}

// CheckFleetRuns runs a tool with args locally, then with -backends
// over a two-backend fleet without and with -cache, and once more
// from the warm cache.  Every output must match the local one, the
// fleet must serve the cold runs, and the warm run must not touch it.
func CheckFleetRuns(t *testing.T, run func(args []string, stdout io.Writer) error, args ...string) {
	t.Helper()
	render := func(extra ...string) string {
		t.Helper()
		var out strings.Builder
		if err := run(append(append([]string(nil), args...), extra...), &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	local := render()
	backends, units := fleet(t, 2)
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		extra []string
		cold  bool
	}{
		{"memory-only", []string{"-backends", backends}, true},
		{"cold cache", []string{"-backends", backends, "-cache", dir}, true},
		{"warm cache", []string{"-backends", backends, "-cache", dir}, false},
	} {
		before := units.Load()
		if got := render(tc.extra...); got != local {
			t.Errorf("%s: -backends output differs from local:\n%s\nvs\n%s", tc.name, got, local)
		}
		served := units.Load() - before
		if tc.cold && served == 0 {
			t.Errorf("%s: the fleet served no units", tc.name)
		}
		if !tc.cold && served != 0 {
			t.Errorf("%s: a stored result still sent %d unit requests to the fleet", tc.name, served)
		}
	}
}
