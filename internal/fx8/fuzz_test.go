package fx8

import (
	"math/rand/v2"
	"testing"
)

// Robustness fuzzing: random but well-formed instruction streams must
// never wedge, panic, or corrupt the cluster — the simulator is the
// substrate for every experiment, so it must digest anything the
// workload generator could conceivably emit.

// randomProgram builds a random program of serial code and concurrent
// loops.  Dependences are emitted in the safe Await(i-d)/Advance(i)
// shape so programs always terminate.
func randomProgram(rng *rand.Rand) *SliceStream {
	s := &SliceStream{}
	nPhases := 1 + rng.IntN(6)
	for ph := 0; ph < nPhases; ph++ {
		if rng.IntN(2) == 0 {
			// Serial burst.
			for i := 0; i < 1+rng.IntN(30); i++ {
				s.Instrs = append(s.Instrs, randomInstr(rng))
			}
			continue
		}
		// Concurrent loop.
		trips := rng.IntN(40) // includes 0-trip loops
		dep := 0
		if rng.IntN(3) == 0 {
			dep = 1 + rng.IntN(8)
		}
		bodyLen := 1 + rng.IntN(8)
		seed := rng.Uint64()
		loop := &Loop{
			Trips: trips,
			Body: func(iter int) Stream {
				brng := rand.New(rand.NewPCG(seed, uint64(iter)))
				body := &SliceStream{}
				if dep > 0 {
					body.Instrs = append(body.Instrs,
						Instr{Op: OpAwait, N: int32(iter - dep), IAddr: 0x8000})
				}
				for i := 0; i < bodyLen; i++ {
					body.Instrs = append(body.Instrs, randomInstr(brng))
				}
				if dep > 0 {
					body.Instrs = append(body.Instrs,
						Instr{Op: OpAdvance, N: int32(iter), IAddr: 0x8100})
				}
				return body
			},
		}
		s.Instrs = append(s.Instrs, Instr{Op: OpCStart, Loop: loop, IAddr: uint32(rng.IntN(1 << 16))})
	}
	return s
}

// randomInstr emits one random non-control instruction.
func randomInstr(rng *rand.Rand) Instr {
	ia := uint32(rng.IntN(1 << 18))
	switch rng.IntN(6) {
	case 0:
		return Instr{Op: OpCompute, N: int32(rng.IntN(20)), IAddr: ia}
	case 1:
		return Instr{Op: OpVCompute, N: int32(rng.IntN(64)), IAddr: ia}
	case 2:
		return Instr{Op: OpLoad, Addr: uint32(rng.Uint64() % (64 << 20)), IAddr: ia}
	case 3:
		return Instr{Op: OpStore, Addr: uint32(rng.Uint64() % (64 << 20)), IAddr: ia}
	case 4:
		return Instr{Op: OpVLoad, Addr: uint32(rng.Uint64() % (64 << 20)), N: int32(rng.IntN(64)), IAddr: ia}
	default:
		return Instr{Op: OpVStore, Addr: uint32(rng.Uint64() % (64 << 20)), N: int32(rng.IntN(64)), IAddr: ia}
	}
}

// FuzzClusterPrograms is the native fuzz entry over the same program
// space: the fuzzer drives the generator seed, the resource class and
// the machine mode (IP traffic, MMU stalls), so the scheduled CI fuzz
// job (.github/workflows/fuzz.yml) explores program shapes the
// fixed-seed trials above never reach.  Each input runs twice, one
// Step per cycle and in StepN chunks, and the two runs must agree on
// the probe wires at every chunk boundary and on every statistic.
// Under plain `go test` only the seed corpus runs.
func FuzzClusterPrograms(f *testing.F) {
	for _, c := range goldenProgramCases {
		f.Add(c.seed, c.size, c.mode)
	}
	f.Fuzz(func(t *testing.T, seed uint64, size, mode uint8) {
		c := programCase{seed: seed, size: size, mode: mode}
		programRuns(t, c)
		cl := c.build(t)
		runUntilIdle(t, cl, 3_000_000)
		if cl.ActiveCount() != 0 {
			t.Fatalf("%s left CEs active after completion", c.name())
		}
		if cl.CCBus().Running() {
			t.Fatalf("%s left the CCB running", c.name())
		}
	})
}

func TestRandomProgramsNeverWedge(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xF0, 0x0D))
	for trial := 0; trial < 40; trial++ {
		cfg := quietConfig()
		cl := New(cfg)
		prog := randomProgram(rng)
		size := 1 + rng.IntN(8)
		if err := cl.Run(prog, size); err != nil {
			t.Fatal(err)
		}
		limit := 3_000_000
		for i := 0; i < limit && !cl.Idle(); i++ {
			cl.Step()
		}
		if !cl.Idle() {
			t.Fatalf("trial %d (size %d) wedged", trial, size)
		}
		if cl.ActiveCount() != 0 {
			t.Fatalf("trial %d left CEs active after completion", trial)
		}
		if cl.CCBus().Running() {
			t.Fatalf("trial %d left the CCB running", trial)
		}
	}
}

func TestRandomProgramsUnderTinyCaches(t *testing.T) {
	// Degenerate hardware: one-line icache sets, minimal shared
	// cache, single memory bus, slow fills.
	rng := rand.New(rand.NewPCG(0xBEE, 0xF))
	cfg := quietConfig()
	cfg.ICacheBytes = 64
	cfg.SharedCacheBytes = 2 << 10
	cfg.SharedModules = 1
	cfg.SharedWays = 1
	cfg.MemBuses = 1
	cfg.FillCycles = 40
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		cl := New(cfg)
		if err := cl.Run(randomProgram(rng), 8); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5_000_000 && !cl.Idle(); i++ {
			cl.Step()
		}
		if !cl.Idle() {
			t.Fatalf("trial %d wedged on tiny-cache machine", trial)
		}
	}
}

func TestRandomProgramsWithHostileMMU(t *testing.T) {
	// An MMU that faults on every access (worst-case paging) must
	// slow but never deadlock execution.
	rng := rand.New(rand.NewPCG(0xAB, 0xCD))
	for trial := 0; trial < 6; trial++ {
		cl := New(quietConfig())
		cl.SetMMU(&fixedMMU{stall: 200})
		if err := cl.Run(randomProgram(rng), 8); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20_000_000 && !cl.Idle(); i++ {
			cl.Step()
		}
		if !cl.Idle() {
			t.Fatalf("trial %d wedged under hostile MMU", trial)
		}
	}
}

func TestRandomProgramsDeterministic(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		seed := uint64(trial) + 0x51
		run := func() (uint64, uint64) {
			rng := rand.New(rand.NewPCG(seed, 1))
			cl := New(quietConfig())
			if err := cl.Run(randomProgram(rng), 8); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3_000_000 && !cl.Idle(); i++ {
				cl.Step()
			}
			var retired uint64
			for i := 0; i < 8; i++ {
				retired += cl.CE(i).InstrsRetired
			}
			return cl.Cycle(), retired
		}
		c1, r1 := run()
		c2, r2 := run()
		if c1 != c2 || r1 != r2 {
			t.Fatalf("trial %d nondeterministic: (%d,%d) vs (%d,%d)", trial, c1, r1, c2, r2)
		}
	}
}
