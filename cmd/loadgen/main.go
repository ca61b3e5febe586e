// Command loadgen is the fx8d load harness: an open-loop traffic
// generator that drives a daemon with the request mixes real clients
// produce — artefact reads revalidating with ETags and sharded unit
// POSTs — under steady or bursty Poisson arrivals, and
// reports the resulting latency distribution, throughput, error and
// shed rates.
//
// Usage:
//
//	loadgen [-target URL] [-scenario NAME] [-rate N] [-duration D]
//	        [-warmup D] [-seed N] [-out FILE] [-saturate]
//	        [-slo-p99 D] [-slo-errors FRAC]
//	        [-max-inflight N] [-max-queue N] [-workers N]
//
// Without -target, loadgen boots an in-process fx8d on a loopback
// listener (sized by -max-inflight/-max-queue/-workers) and drives it
// over real HTTP, so the harness needs no running daemon.  Arrival
// schedules and request sequences are pure functions of -seed: two
// runs against equivalent targets offer identical traffic.
//
// Open loop means arrivals fire on schedule whether or not earlier
// requests have completed — a saturated target faces mounting
// concurrency instead of a politely waiting benchmark, which is what
// exposes queueing collapse.
//
// With -out, the scenario results are written as a perf result set
// (BENCH_service-load.json): p50 latency is the gated ns/op and
// p95/p99/rps/error/shed rates ride along as metrics, so `make
// bench-load` and the CI bench gate diff service latency under load
// exactly like any other layer's benchmarks.  -slo-p99 / -slo-errors
// turn the run into a gate of its own: the command fails if any
// scenario exceeds them.  -saturate appends a ramp that raises the
// offered rate until the target sheds or its p99 collapses, and
// reports the last sustainable throughput.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/service"
)

func main() {
	cli.Main(run)
}

// scenarios is the standard suite `make bench-load` records.
func scenarios() []loadConfig {
	return []loadConfig{
		{Scenario: "steady-artefacts", Arrival: arrivalSteady, Mix: mixArtefacts, Rate: 400, Duration: 4 * time.Second, Warmup: time.Second},
		{Scenario: "steady-units", Arrival: arrivalSteady, Mix: mixUnits, Rate: 300, Duration: 4 * time.Second, Warmup: time.Second},
		{Scenario: "bursty-mixed", Arrival: arrivalBursty, Mix: mixMixed, Rate: 300, Duration: 4 * time.Second, Warmup: time.Second},
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	target := fs.String("target", "", "fx8d base URL (empty boots an in-process daemon)")
	scenario := fs.String("scenario", "", "run one scenario (steady-artefacts|steady-units|bursty-mixed; empty runs all)")
	rate := fs.Float64("rate", 0, "override offered arrivals per second (0 = scenario default)")
	duration := fs.Duration("duration", 0, "override measured window (0 = scenario default)")
	warmup := fs.Duration("warmup", -1, "override warmup (negative = scenario default; 0 measures a cold daemon)")
	seed := fs.Uint64("seed", 1987, "schedule seed (same seed, same traffic)")
	out := fs.String("out", "", "write results as a perf set (BENCH_service-load.json)")
	saturate := fs.Bool("saturate", false, "after the scenarios, ramp the first scenario's rate to find the saturation point")
	sloP99 := fs.Duration("slo-p99", 0, "fail if any scenario's p99 exceeds this (0 = no SLO)")
	sloErrors := fs.Float64("slo-errors", -1, "fail if any scenario's error+shed fraction exceeds this (negative = no SLO)")
	inflight := fs.Int("max-inflight", 4, "in-process daemon: concurrently admitted expensive requests")
	maxQueue := fs.Int("max-queue", 0, "in-process daemon: admission queue bound (0 = 4x max-inflight)")
	workers := fs.Int("workers", 0, "in-process daemon: campaign workers (0 = one per CPU)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	base := *target
	if base == "" {
		url, shutdown, err := bootInproc(service.Config{
			Cache:       core.NewStudyCache(),
			Workers:     *workers,
			MaxInFlight: *inflight,
			MaxQueue:    *maxQueue,
		})
		if err != nil {
			return err
		}
		defer shutdown()
		base = url
		fmt.Fprintf(stdout, "in-process fx8d at %s\n", base)
	}

	suite := scenarios()
	if *scenario != "" {
		var picked []loadConfig
		for _, cfg := range suite {
			if cfg.Scenario == *scenario {
				picked = append(picked, cfg)
			}
		}
		if picked == nil {
			return fmt.Errorf("unknown scenario %q (valid: steady-artefacts, steady-units, bursty-mixed)", *scenario)
		}
		suite = picked
	}

	var set perf.Set
	var reports []*loadReport
	for _, cfg := range suite {
		cfg.BaseURL = base
		cfg.Seed = *seed
		if *rate > 0 {
			cfg.Rate = *rate
		}
		if *duration > 0 {
			cfg.Duration = *duration
		}
		if *warmup >= 0 {
			cfg.Warmup = *warmup
		}
		rep, err := runLoad(cfg)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", cfg.Scenario, err)
		}
		if *saturate && len(reports) == 0 {
			sat, err := findSaturation(cfg, rep, stdout)
			if err != nil {
				return fmt.Errorf("saturation ramp: %w", err)
			}
			rep.SaturationRPS = sat
		}
		rep.summarize(stdout)
		reports = append(reports, rep)
		set.Results = append(set.Results, rep.perfResult())
	}

	if *out != "" {
		if err := set.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "results written to %s\n", *out)
	}
	return checkSLOs(reports, *sloP99, *sloErrors)
}

// bootInproc starts an fx8d on a loopback listener, so the harness
// measures the daemon over the real network stack without needing a
// separately managed process.
func bootInproc(cfg service.Config) (baseURL string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: service.New(cfg)}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close() }, nil
}

// Saturation-ramp policy: the rate rises by satStep per round (short
// satWindow windows) until more than satShedFrac of requests fail or
// shed, or p99 exceeds satP99Cap; the last sustainable round's
// throughput is the saturation point.
const (
	satStep     = 1.5
	satRounds   = 6
	satWindow   = time.Second
	satShedFrac = 0.05
	satP99Cap   = 250 * time.Millisecond
)

// findSaturation ramps cfg's offered rate until the target stops
// keeping up, returning the last sustained throughput.
func findSaturation(cfg loadConfig, base *loadReport, stdout io.Writer) (float64, error) {
	sustained := base.Throughput
	rate := cfg.Rate
	for round := 0; round < satRounds; round++ {
		rate *= satStep
		step := cfg
		step.Scenario = fmt.Sprintf("saturate@%.0frps", rate)
		step.Rate = rate
		step.Duration = satWindow
		step.Warmup = 0 // the suite run already warmed the target
		rep, err := runLoad(step)
		if err != nil {
			return 0, err
		}
		total := rep.Completed + rep.Errors + rep.Shed
		badFrac := 0.0
		if total > 0 {
			badFrac = float64(rep.Errors+rep.Shed) / float64(total)
		}
		fmt.Fprintf(stdout, "  ramp %7.0f rps offered: %7.1f served, p99 %6.1fms, %4.1f%% shed+err\n",
			rate, rep.Throughput, float64(rep.P99)/float64(time.Millisecond), badFrac*100)
		if badFrac > satShedFrac || rep.P99 > satP99Cap {
			break
		}
		sustained = rep.Throughput
	}
	return sustained, nil
}

// checkSLOs turns the run into a gate when SLO flags are set.
func checkSLOs(reports []*loadReport, p99 time.Duration, errFrac float64) error {
	for _, r := range reports {
		if p99 > 0 && r.P99 > p99 {
			return fmt.Errorf("SLO violation: %s p99 %v exceeds %v", r.Scenario, r.P99, p99)
		}
		if errFrac >= 0 {
			total := r.Completed + r.Errors + r.Shed
			if total > 0 {
				if got := float64(r.Errors+r.Shed) / float64(total); got > errFrac {
					return fmt.Errorf("SLO violation: %s error+shed rate %.3f exceeds %.3f", r.Scenario, got, errFrac)
				}
			}
		}
	}
	return nil
}
