// Command sweep runs the measurement pipeline across configuration
// parameters — the study's proposed extensions: scheduling quantum
// (software-level parameter), shared cache size, and CE count
// (FX/1-FX/8 configurations).  Sweep points are independent machines
// and fan out over the session engine's worker pool.  With -cache,
// completed sweeps are persisted to the campaign store shared with
// the other tools and fx8d.
//
// With -backends, a sweep the cache does not hold runs as a
// temporary coordinator job over that fixed fleet of fx8d nodes:
// backends pull sweep points, a failing backend is abandoned, and
// whatever the fleet could not serve is computed locally.
//
// With -job, the sweep is instead submitted to an fx8d coordinator as
// a persistent job (POST /v1/jobs) and polled to completion: the
// daemon executes and checkpoints it, so a sweep interrupted by a
// daemon restart resumes from its completed units rather than
// starting over.
//
// Usage:
//
//	sweep [-kind sched|cache|ce] [-seed N] [-samples N] [-workers N]
//	      [-cache DIR] [-backends HOST:PORT,...] [-job URL]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/cli"
	"repro/internal/coord"
	"repro/internal/experiments"
	"repro/internal/remote"
	"repro/internal/store"
)

func main() { cli.Main(run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	kind := fs.String("kind", "sched", "sweep kind: sched, cache or ce")
	seed := fs.Uint64("seed", 1987, "workload seed")
	samples := fs.Int("samples", 12, "samples per configuration")
	workers := fs.Int("workers", 0, "parallel sweep-point workers (0 = one per CPU)")
	cacheDir := fs.String("cache", "", "campaign store directory (shared with the other tools and fx8d)")
	backends := fs.String("backends", "", "comma-separated fx8d backends (host:port,...) to run sweep points on")
	jobURL := fs.String("job", "", "fx8d coordinator URL to submit the sweep to as a persistent job (empty = run here)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	cfg := experiments.SweepConfig{
		Kind:    *kind,
		Values:  experiments.DefaultSweepValues(*kind),
		Seed:    *seed,
		Samples: *samples,
	}
	key, err := experiments.SweepKey(cfg)
	if err != nil {
		return err
	}
	var st *store.Store
	if *cacheDir != "" {
		if st, err = store.Open(*cacheDir); err != nil {
			return err
		}
	}
	var pts []experiments.SweepPoint
	fleet := remote.ParseBackends(*backends)
	spec := coord.JobSpec{Kind: "sweep", Sweep: &cfg}
	switch {
	case *jobURL != "":
		res, err := coord.SubmitAndWait(context.Background(), nil, *jobURL, spec, 100*time.Millisecond)
		if err != nil {
			return err
		}
		pts = res.Points
	case len(fleet) > 0 && (st == nil || !st.Has(key)):
		res, err := cli.FleetJob(context.Background(), fleet, st, *workers, spec)
		if err != nil {
			return err
		}
		pts = res.Points
	default:
		if pts, _, err = experiments.CachedSweep(st, cfg, *workers); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout, experiments.SweepTable(experiments.SweepTitle(*kind), pts))
	return nil
}
