// Command measure runs measurement sessions against freshly booted
// machines — random workload sampling or triggered captures — and
// prints the reduced event counts and concurrency measures, as the
// study's measurement control scripts did.  Multiple sessions (the
// study's "different measurement days") fan out over the session
// engine's worker pool.
//
// With -backends, the sessions run as a temporary coordinator job
// over that fixed fleet of fx8d nodes: backends pull sessions, a
// failing backend is abandoned, and whatever the fleet could not
// serve is computed locally.
//
// With -job, the sessions are instead submitted to an fx8d
// coordinator as one persistent job (POST /v1/jobs) and polled to
// completion — the submit-and-poll path for ad-hoc unit lists, with
// the daemon checkpointing per unit so an interrupted run resumes.
//
// Usage:
//
//	measure [-mode random|all8|transition] [-seed N] [-samples N]
//	        [-sessions N] [-workers N] [-cache DIR]
//	        [-backends HOST:PORT,...] [-job URL]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/cli"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/remote"
	"repro/internal/store"
)

func main() { cli.Main(run) }

// sessionsKey is the content-address configuration of a cached
// measure invocation: results are a pure function of these fields
// (worker count provably does not change them).
type sessionsKey struct {
	Mode     string
	Seed     uint64
	Samples  int
	Sessions int
}

// runSessions runs n session units and unwraps one result field per
// unit, in session order: mkUnit builds unit i, pick selects the
// session from its result.  The units run on the local pool, as a
// temporary job over the -backends fleet (checkpointed into st), or,
// with jobURL, as a persistent job on an fx8d coordinator.  Job
// failures are the coordinator's to retry (it drains failed backends
// locally), so there is no client-side fallback.
func runSessions[T any](jobURL string, fleet []string, st *store.Store, workers, n int,
	mkUnit func(i int) core.StudyUnit, pick func(core.StudyUnitResult) *T) ([]*T, error) {
	units := make([]core.StudyUnit, n)
	for i := range units {
		units[i] = mkUnit(i)
	}
	spec := coord.JobSpec{Kind: "sessions", Units: units}
	var results []core.StudyUnitResult
	switch {
	case jobURL != "":
		res, err := coord.SubmitAndWait(context.Background(), nil, jobURL, spec, 100*time.Millisecond)
		if err != nil {
			return nil, err
		}
		results = res.Sessions
	case len(fleet) > 0:
		res, err := cli.FleetJob(context.Background(), fleet, st, workers, spec)
		if err != nil {
			return nil, err
		}
		results = res.Sessions
	default:
		var err error
		if results, err = engine.RunAll(context.Background(), workers, units, core.LocalStudyRunner(), nil); err != nil {
			return nil, err
		}
	}
	if len(results) != len(units) {
		return nil, fmt.Errorf("job returned %d results for %d units", len(results), len(units))
	}
	out := make([]*T, len(results))
	for i, res := range results {
		if out[i] = pick(res); out[i] == nil {
			return nil, fmt.Errorf("no session returned for unit %d", i+1)
		}
	}
	return out, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("measure", flag.ContinueOnError)
	mode := fs.String("mode", "random", "session mode: random, all8 or transition")
	seed := fs.Uint64("seed", 1987, "base workload seed; session i uses seed+i")
	samples := fs.Int("samples", 20, "samples to collect per session")
	sessions := fs.Int("sessions", 1, "independent sessions to run (consecutive seeds)")
	workers := fs.Int("workers", 0, "parallel session workers (0 = one per CPU)")
	wave := fs.Int("wave", 0, "render the first N records of the first buffer as a waveform")
	cacheDir := fs.String("cache", "", "campaign store directory (shared with the other tools and fx8d)")
	backends := fs.String("backends", "", "comma-separated fx8d backends (host:port,...) to run sessions on")
	jobURL := fs.String("job", "", "fx8d coordinator URL to submit the sessions to as a persistent job (empty = run here)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *sessions < 1 {
		return fmt.Errorf("-sessions must be >= 1, got %d", *sessions)
	}
	var st *store.Store
	if *cacheDir != "" {
		var err error
		if st, err = store.Open(*cacheDir); err != nil {
			return err
		}
	}
	key := sessionsKey{Mode: *mode, Seed: *seed, Samples: *samples, Sessions: *sessions}
	fleet := remote.ParseBackends(*backends)

	switch *mode {
	case "random":
		runs, err := store.GetOrComputeJSON(st, "measure-random/v1", key, func() ([]*core.Session, error) {
			return runSessions(*jobURL, fleet, st, *workers, *sessions,
				func(i int) core.StudyUnit {
					spec := core.DefaultSessionSpec(*seed + uint64(i))
					spec.Samples = *samples
					return core.StudyUnit{ID: i + 1, Random: &spec}
				},
				func(res core.StudyUnitResult) *core.Session { return res.Random })
		})
		if err != nil {
			return err
		}
		var total monitor.EventCounts
		var faults uint64
		nsamples := 0
		for _, ses := range runs {
			total.Add(ses.Total)
			faults += ses.TotalFaults
			nsamples += len(ses.Samples)
		}
		fmt.Fprintf(stdout, "random: %d sessions, %d samples, %d records\n\n",
			len(runs), nsamples, total.Records)
		fmt.Fprintln(stdout, experiments.Table1(total))
		m := core.MeasuresFromCounts(total)
		fmt.Fprintf(stdout, "Cw = %.4f", m.Cw)
		if m.Defined {
			fmt.Fprintf(stdout, "   Pc = %.2f", m.Pc)
		}
		fmt.Fprintf(stdout, "   BusBusy = %.4f   Missrate = %.5f   PageFaults = %d\n",
			total.BusBusy(), total.MissRate(), faults)

	case "all8", "transition":
		trigger := monitor.TriggerAll8
		if *mode == "transition" {
			trigger = monitor.TriggerTransition
		}
		runs, err := store.GetOrComputeJSON(st, "measure-triggered/v1", key, func() ([]*core.TriggeredSession, error) {
			return runSessions(*jobURL, fleet, st, *workers, *sessions,
				func(i int) core.StudyUnit {
					spec := core.DefaultTriggeredSpec(trigger, *seed+uint64(i))
					spec.Samples = *samples
					return core.StudyUnit{ID: i + 1, Triggered: &spec}
				},
				func(res core.StudyUnitResult) *core.TriggeredSession { return res.Triggered })
		})
		if err != nil {
			return err
		}
		var total monitor.EventCounts
		timeouts, nbufs := 0, 0
		for _, ts := range runs {
			total.Add(ts.Total)
			timeouts += ts.Timeouts
			nbufs += len(ts.Buffers)
		}
		fmt.Fprintf(stdout, "%s: %d sessions, %d buffers captured, %d timeouts\n\n",
			trigger, len(runs), nbufs, timeouts)
		fmt.Fprintln(stdout, experiments.Table1(total))
		if *wave > 0 && len(runs) > 0 && len(runs[0].Buffers) > 0 {
			buf := runs[0].Buffers[0]
			n := *wave
			if n > len(buf) {
				n = len(buf)
			}
			fmt.Fprintln(stdout, monitor.Waveform(buf[:n], 100))
		}
		if trigger == monitor.TriggerTransition {
			var st core.TransitionStats
			for _, ts := range runs {
				st.Add(core.AnalyzeTransitions(ts.Buffers))
			}
			fmt.Fprintln(stdout, "Transition-state shares:")
			for j := 7; j >= 2; j-- {
				fmt.Fprintf(stdout, "  %d active: %.1f%%\n", j, 100*st.TransitionShare(j))
			}
			a, b := st.DominantPair()
			fmt.Fprintf(stdout, "Dominant processors during transitions: CE %d and CE %d\n", a, b)
		}

	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	return nil
}
