package concentrix

import (
	"math/rand/v2"
	"testing"

	"repro/internal/fx8"
)

// FuzzJobMixes is the native fuzz entry over the scheduler's input
// space: the fuzzer drives the mix seed, job count, quantum and
// resident limit, so the scheduled CI fuzz job
// (.github/workflows/fuzz.yml) explores schedules the fixed-seed
// trials below never reach.  Each mix runs twice, one Step per cycle
// and in StepN chunks, and the two runs must agree on the probe wires
// at every chunk boundary and on every statistic.  Under plain
// `go test` only the seed corpus runs.
func FuzzJobMixes(f *testing.F) {
	for _, c := range goldenMixCases {
		f.Add(c.seed, c.nJobs, c.slice, c.limit)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nJobs uint8, slice uint32, limit uint8) {
		c := mixCase{seed: seed, nJobs: nJobs, slice: slice, limit: limit}
		mixRuns(t, c)
		sys, jobs := c.build()
		for i := 0; i < 30_000_000 && !sys.Drained(); i++ {
			sys.Step()
		}
		for _, p := range jobs {
			if !p.Done || p.DoneAt < p.Arrival || p.CPUCycles == 0 {
				t.Fatalf("%s: job %d accounting wrong: %+v", c.name(), p.PID, p)
			}
		}
		if sys.Kernel.JobsCompleted != uint64(len(jobs)) {
			t.Fatalf("%s: completed %d of %d", c.name(), sys.Kernel.JobsCompleted, len(jobs))
		}
	})
}

// TestRandomJobMixesDrain submits randomized job mixes — varied
// cluster sizes, arrival bursts, loopy and serial programs, tiny
// quanta — and verifies the scheduler always drains them with correct
// accounting.
func TestRandomJobMixesDrain(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xD1, 0xCE))
	for trial := 0; trial < 15; trial++ {
		cfg := DefaultSysConfig()
		cfg.TimeSlice = 100 + rng.IntN(50_000)
		cfg.ResidentLimit = 1 + rng.IntN(64)
		cfg.FaultCycles = 50 + rng.IntN(1000)
		sys := NewSystem(quietCluster(), cfg)

		nJobs := 1 + rng.IntN(8)
		jobs := make([]*Process, 0, nJobs)
		for j := 0; j < nJobs; j++ {
			var p *Process
			if rng.IntN(2) == 0 {
				p = computeJob(j+1, 50+rng.IntN(500), int32(1+rng.IntN(4)))
			} else {
				trips := rng.IntN(30)
				body := 1 + rng.IntN(200)
				loop := &fx8.Loop{
					Trips: trips,
					Body: func(int) fx8.Stream {
						return &fx8.SliceStream{Instrs: []fx8.Instr{
							{Op: fx8.OpCompute, N: int32(body), IAddr: 0x8000},
							{Op: fx8.OpLoad, Addr: uint32(rng.Uint64() % (8 << 20)), IAddr: 0x8004},
						}}
					},
				}
				p = &Process{
					PID:         j + 1,
					ClusterSize: 1 + rng.IntN(8),
					Serial: &fx8.SliceStream{Instrs: []fx8.Instr{
						{Op: fx8.OpCompute, N: 10, IAddr: 0},
						{Op: fx8.OpCStart, Loop: loop, IAddr: 4},
						{Op: fx8.OpCompute, N: 10, IAddr: 8},
					}},
				}
			}
			p.Arrival = uint64(rng.IntN(100_000))
			jobs = append(jobs, p)
			sys.Submit(p)
		}

		for i := 0; i < 30_000_000 && !sys.Drained(); i++ {
			sys.Step()
		}
		if !sys.Drained() {
			t.Fatalf("trial %d: system never drained", trial)
		}
		for _, p := range jobs {
			if !p.Done {
				t.Fatalf("trial %d: job %d not done", trial, p.PID)
			}
			if p.DoneAt < p.Arrival {
				t.Fatalf("trial %d: job %d finished before arriving", trial, p.PID)
			}
			if p.CPUCycles == 0 {
				t.Fatalf("trial %d: job %d has no CPU time", trial, p.PID)
			}
		}
		if sys.Kernel.JobsCompleted != uint64(nJobs) {
			t.Fatalf("trial %d: completed %d of %d", trial, sys.Kernel.JobsCompleted, nJobs)
		}
	}
}
