package cli

import (
	"context"
	"os"
	"os/signal"

	"repro/internal/coord"
	"repro/internal/store"
)

// FleetJob runs spec as a temporary coordinator job over a fixed
// fleet: the -backends path of figures, measure and sweep.  Units
// are checkpointed into st (nil runs memory-only), so a re-run over
// the same -cache store resumes from the unit cache, and workers
// bounds the local drain of units the fleet could not serve.  An
// interrupt stops the job, leaving it resumable with its lease
// released.
func FleetJob(ctx context.Context, backends []string, st *store.Store, workers int, spec coord.JobSpec) (*coord.JobResult, error) {
	reg := coord.NewRegistry()
	for _, addr := range backends {
		// The job snapshots membership once, when it starts, so the
		// heartbeat TTL never lapses under it.
		reg.Register(addr, coord.MaxTTL)
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()
	return coord.Run(ctx, coord.Config{Store: st, Registry: reg, Workers: workers}, spec)
}
