package main

import (
	"bytes"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/service"
	"repro/internal/store"
)

// bootTestDaemon boots a loopback fx8d sized by cfg for one test.
func bootTestDaemon(t *testing.T, cfg service.Config) string {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = core.NewStudyCache()
	}
	base, shutdown, err := bootInproc(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	return base
}

func TestScheduleIsDeterministic(t *testing.T) {
	t.Parallel()
	for _, arrival := range []string{arrivalSteady, arrivalBursty} {
		a := newArrivals(42, arrival, 100)
		b := newArrivals(42, arrival, 100)
		for i := 0; i < 500; i++ {
			if at, bt := a.next(), b.next(); at != bt {
				t.Fatalf("%s arrival %d: %v vs %v; schedule not a pure function of the seed", arrival, i, at, bt)
			}
		}
	}
	g1, g2 := newReqGen(42, mixMixed), newReqGen(42, mixMixed)
	for i := 0; i < 500; i++ {
		r1, r2 := g1.next(), g2.next()
		if r1.method != r2.method || r1.path != r2.path || !bytes.Equal(r1.body, r2.body) {
			t.Fatalf("request %d: %v vs %v; sequence not a pure function of the seed", i, r1, r2)
		}
	}
	if other := newArrivals(43, arrivalSteady, 100); other.next() == newArrivals(42, arrivalSteady, 100).next() {
		t.Error("different seeds produced the same first arrival")
	}
}

func TestBurstyArrivalsModulate(t *testing.T) {
	t.Parallel()
	// Count arrivals in hi vs lo halves of the burst envelope over
	// many periods: the on/off modulation must be visible.
	a := newArrivals(7, arrivalBursty, 200)
	var hi, lo int
	for i := 0; i < 4000; i++ {
		at := a.next()
		if (at/burstPeriod)%2 == 0 {
			hi++
		} else {
			lo++
		}
	}
	if hi < 2*lo {
		t.Errorf("bursty schedule not modulated: %d arrivals in hi halves, %d in lo", hi, lo)
	}
}

func TestPercentiles(t *testing.T) {
	t.Parallel()
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	p50, p95, p99, max := percentiles(lats)
	if p50 != 50*time.Millisecond || p95 != 95*time.Millisecond || p99 != 99*time.Millisecond || max != 100*time.Millisecond {
		t.Errorf("percentiles = %v %v %v %v", p50, p95, p99, max)
	}
	if p50, _, _, _ := percentiles(nil); p50 != 0 {
		t.Errorf("empty percentiles = %v, want 0", p50)
	}
}

func TestRunLoadUnitsMix(t *testing.T) {
	t.Parallel()
	// The unit mix posts one session unit per request, in the warmup
	// pass and in the measured schedule alike.
	g := newReqGen(11, mixUnits)
	reqs := g.primeTargets()
	for range 200 {
		reqs = append(reqs, g.next())
	}
	for _, r := range reqs {
		if r.method != http.MethodPost || r.path != "/v1/run/session" {
			t.Fatalf("unit mix request %s %s, want POST /v1/run/session", r.method, r.path)
		}
	}

	// A store-backed cache so unit results are cacheable — the
	// server-side hit-rate column needs a disk tier to count against.
	cache := core.NewStudyCache()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache.SetStore(st)
	base := bootTestDaemon(t, service.Config{MaxInFlight: 8, Cache: cache})
	rep, err := runLoad(loadConfig{
		Scenario: "steady-units",
		Arrival:  arrivalSteady,
		Mix:      mixUnits,
		Rate:     300,
		Duration: 500 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Seed:     11,
		BaseURL:  base,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d against a healthy daemon", rep.Errors)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Errorf("latency profile inconsistent: p50=%v p99=%v", rep.P50, rep.P99)
	}
	if rep.Throughput <= 0 {
		t.Errorf("throughput = %g", rep.Throughput)
	}
	if !rep.ServerScraped {
		t.Error("server-side metrics not scraped from a live daemon")
	}
	// The warmup primed every unit into the daemon's store, so the
	// measured window's units are served as cache hits.
	if rep.ServerHitRate <= 0 {
		t.Errorf("server hit rate = %g, want > 0 after a priming warmup", rep.ServerHitRate)
	}
}

func TestRunLoadArtefactsRevalidates(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("campaign-warming load run in -short mode")
	}
	base := bootTestDaemon(t, service.Config{MaxInFlight: 8})
	rep, err := runLoad(loadConfig{
		Scenario: "steady-artefacts",
		Arrival:  arrivalSteady,
		Mix:      mixArtefacts,
		Rate:     300,
		Duration: 500 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Seed:     13,
		BaseURL:  base,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d against a healthy daemon", rep.Errors)
	}
	// The warmup collected ETags, so the measured window's artefact
	// reads mostly revalidate as 304s.
	if rep.NotModified == 0 {
		t.Error("no requests revalidated via If-None-Match")
	}
}

// TestOverloadObserves429WithRetryAfter is the backpressure
// acceptance proof: offered load far past the admission queue bound
// of a deliberately tiny daemon is shed with 429 + Retry-After, and
// the shed traffic is not booked as errors.
func TestOverloadObserves429WithRetryAfter(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("campaign-computing overload run in -short mode")
	}
	base := bootTestDaemon(t, service.Config{MaxInFlight: 1, MaxQueue: 1})
	// No warmup: every artefact request wants the quick campaign, so
	// the single admission slot stays occupied for seconds while
	// arrivals keep coming — the queue fills immediately.
	rep, err := runLoad(loadConfig{
		Scenario: "overload",
		Arrival:  arrivalSteady,
		Mix:      mixArtefacts,
		Rate:     100,
		Duration: 300 * time.Millisecond,
		Warmup:   0,
		Seed:     17,
		BaseURL:  base,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatal("no requests shed past the admission queue bound")
	}
	if !rep.RetryAfterSeen {
		t.Error("shed responses carried no Retry-After header")
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d; sheds must not be booked as errors", rep.Errors)
	}
	// The daemon's own shed accounting corroborates the client's 429
	// count: every shed the client saw was booked server-side.
	if rep.ServerScraped && rep.ServerShed < uint64(rep.Shed) {
		t.Errorf("server booked %d sheds, client saw %d", rep.ServerShed, rep.Shed)
	}
}

func TestRunWritesPerfSet(t *testing.T) {
	t.Parallel()
	out := filepath.Join(t.TempDir(), "BENCH_service-load.json")
	var buf bytes.Buffer
	err := run([]string{
		"-scenario", "steady-units",
		"-rate", "200",
		"-duration", "300ms",
		"-warmup", "100ms",
		"-out", out,
		"-slo-p99", "30s",
		"-slo-errors", "0.2",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	set, err := perf.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := set.Lookup("LoadSteadyUnits")
	if !ok {
		t.Fatalf("LoadSteadyUnits missing from %s: %+v", out, set.Results)
	}
	if res.NsPerOp <= 0 || res.Iterations == 0 {
		t.Errorf("result not measured: %+v", res)
	}
	for _, unit := range []string{"p95-ms", "p99-ms", "rps", "err-rate", "shed-rate"} {
		if _, ok := res.Metrics[unit]; !ok {
			t.Errorf("metric %q missing: %+v", unit, res.Metrics)
		}
	}
	if !strings.Contains(buf.String(), "steady-units") {
		t.Errorf("summary missing scenario row:\n%s", buf.String())
	}
}

func TestSLOGateFails(t *testing.T) {
	t.Parallel()
	reports := []*loadReport{{
		Scenario:  "steady-units",
		Completed: 90,
		Shed:      10,
		P99:       40 * time.Millisecond,
	}}
	if err := checkSLOs(reports, 10*time.Millisecond, -1); err == nil {
		t.Error("p99 SLO violation not reported")
	}
	if err := checkSLOs(reports, 0, 0.05); err == nil {
		t.Error("error-rate SLO violation not reported")
	}
	if err := checkSLOs(reports, 100*time.Millisecond, 0.2); err != nil {
		t.Errorf("SLOs within bounds failed: %v", err)
	}
}

func TestUnknownScenarioAndMixRejected(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := run([]string{"-scenario", "bogus"}, &buf); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := runLoad(loadConfig{Arrival: "bogus", Mix: mixUnits, Rate: 1, Duration: time.Second}); err == nil {
		t.Error("unknown arrival accepted")
	}
	if _, err := runLoad(loadConfig{Arrival: arrivalSteady, Mix: "bogus", Rate: 1, Duration: time.Second}); err == nil {
		t.Error("unknown mix accepted")
	}
	if _, err := runLoad(loadConfig{Arrival: arrivalSteady, Mix: mixUnits, Rate: 0, Duration: time.Second}); err == nil {
		t.Error("zero rate accepted")
	}
}
