// Command figures runs the measurement campaign and regenerates the
// study's figures (3-14 and the appendix series) as SAS-style text
// charts.  The campaign's sessions fan out over the session engine's
// worker pool, and the completed campaign is served through the
// two-tier cache: memoized in-process and, with -cache, persisted to
// the on-disk campaign store shared with the other tools and fx8d.
//
// With -backends, a campaign the cache does not hold runs as a
// temporary coordinator job over that fixed fleet of fx8d nodes:
// backends pull sessions, a failing backend is abandoned, and
// whatever the fleet could not serve is computed locally.  With
// -cache the job checkpoints every session, so an interrupted run
// resumes, and stores the campaign where the cache reads it.
//
// Usage:
//
//	figures [-scale quick|paper] [-only NAME] [-workers N] [-cache DIR]
//	        [-backends HOST:PORT,...]
//
// -only selects a single figure by name (e.g. "6", "12", "B.3").
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/cli"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/remote"
	"repro/internal/store"
)

func main() { cli.Main(run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	scale := fs.String("scale", "quick", "campaign scale: quick or paper")
	only := fs.String("only", "", "render a single figure by name")
	workers := fs.Int("workers", 0, "parallel session workers (0 = one per CPU)")
	cacheDir := fs.String("cache", "", "campaign store directory (shared with the other tools and fx8d)")
	backends := fs.String("backends", "", "comma-separated fx8d backends (host:port,...) to run campaign sessions on")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	cfg, err := core.ScaleConfig(*scale)
	if err != nil {
		return err
	}
	st, err := study(cfg, *cacheDir, *workers, remote.ParseBackends(*backends))
	if err != nil {
		return err
	}

	if *only != "" {
		text, ok := experiments.RenderFigure(*only, st)
		if !ok {
			return fmt.Errorf("unknown figure %q (valid figures: %s)",
				*only, strings.Join(experiments.Names(experiments.Figures()), ", "))
		}
		fmt.Fprintln(stdout, text)
		return nil
	}
	for _, f := range experiments.Figures() {
		fmt.Fprintln(stdout, f.Render(st))
	}
	return nil
}

// study returns the campaign for cfg through the cache tiers.  On a
// miss with a fleet it runs as a -backends job, which stores the
// campaign under the key the tiers read.
func study(cfg core.StudyConfig, cacheDir string, workers int, fleet []string) (*core.Study, error) {
	if len(fleet) == 0 {
		return core.StudyAt(cacheDir, cfg, workers)
	}
	var s *store.Store
	if cacheDir != "" {
		key, err := core.StudyKey(cfg)
		if err != nil {
			return nil, err
		}
		if s, err = store.Open(cacheDir); err != nil {
			return nil, err
		}
		if s.Has(key) {
			return core.StudyAt(cacheDir, cfg, workers)
		}
	}
	res, err := cli.FleetJob(context.Background(), fleet, s, workers, coord.JobSpec{Kind: "study", Study: &cfg})
	if err != nil {
		return nil, err
	}
	return res.Study, nil
}
