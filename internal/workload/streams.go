// Package workload synthesizes the measured machine's production
// workload: FORTRAN-style numerical jobs whose DO loops the Alliant
// compiler turned into self-scheduled concurrent loops, scalar batch
// jobs, and the arrival structure of a multi-user development machine.
//
// The paper measured a real CSRD workload that cannot be replayed;
// this package is the substitution for it.  Every property the
// study's analysis depends on is an explicit knob: the fraction of
// concurrent code, loop trip counts (including the "two leftover
// iterations" bias), per-iteration branch variance, dependence
// distances, the data intensity of parallel versus serial code, and
// streaming footprints that drive cache misses and page faults.
package workload

import (
	"slices"

	"repro/internal/fastrand"
	"repro/internal/fx8"
)

// SerialParams describes a scalar code phase: compiles, editors,
// scalar numerics — code with a modest working set and low memory
// intensity.
type SerialParams struct {
	// Instrs is the number of instructions in the phase.
	Instrs int

	// MemProb is the probability an instruction is a scalar memory
	// access; StoreProb the fraction of those that are stores.
	MemProb   float64
	StoreProb float64

	// WSBase/WSBytes is the phase's primary working set; FarProb of
	// memory accesses instead touch FarBase/FarBytes (cold data:
	// file buffers, symbol tables), generating the background miss
	// rate of serial code.
	WSBase   uint32
	WSBytes  uint32
	FarProb  float64
	FarBase  uint32
	FarBytes uint32

	// CodeBase/CodeBytes locate the phase's instruction footprint;
	// bodies below the icache size run fetch-free after warmup.
	CodeBase  uint32
	CodeBytes uint32

	// MeanCompute is the mean cycle cost of a compute instruction.
	MeanCompute int

	// Seed makes the phase deterministic.
	Seed uint64
}

// serialGen lazily generates a serial phase's instruction stream.
type serialGen struct {
	p    SerialParams
	rng  fastrand.PCG
	left int
	ipos uint32
}

// NewSerialPhase returns the instruction stream of a scalar phase.
func NewSerialPhase(p SerialParams) fx8.Stream {
	if p.WSBytes == 0 {
		p.WSBytes = 16 << 10
	}
	if p.CodeBytes == 0 {
		p.CodeBytes = 4 << 10
	}
	if p.MeanCompute < 1 {
		p.MeanCompute = 2
	}
	return &serialGen{
		p:    p,
		rng:  fastrand.New(p.Seed, 0x5e71a1),
		left: p.Instrs,
	}
}

// Next implements fx8.Stream.
func (g *serialGen) Next() (fx8.Instr, bool) {
	if g.left <= 0 {
		return fx8.Instr{}, false
	}
	g.left--
	ia := g.p.CodeBase + g.ipos
	g.ipos = (g.ipos + 4) % g.p.CodeBytes

	if g.rng.Float64() < g.p.MemProb {
		var addr uint32
		if g.p.FarBytes > 0 && g.rng.Float64() < g.p.FarProb {
			addr = g.p.FarBase + uint32(g.rng.Uint64()%uint64(g.p.FarBytes))&^7
		} else {
			addr = g.p.WSBase + uint32(g.rng.Uint64()%uint64(g.p.WSBytes))&^7
		}
		op := fx8.OpLoad
		if g.rng.Float64() < g.p.StoreProb {
			op = fx8.OpStore
		}
		return fx8.Instr{Op: op, Addr: addr, IAddr: ia}, true
	}
	n := 1 + g.rng.IntN(2*g.p.MeanCompute-1)
	return fx8.Instr{Op: fx8.OpCompute, N: int32(n), IAddr: ia}, true
}

// LoopParams describes a concurrent DO loop as the Alliant compiler
// would emit it: a trip count, a body of vector "chunks" (a blocked
// numerical kernel), optional compiler-generated synchronization for a
// loop-carried dependence, and the data regions the body touches.
type LoopParams struct {
	// Trips is the iteration count.
	Trips int

	// Dep, when positive, is the loop-carried dependence distance:
	// iteration i awaits stage i-Dep partway through its body and
	// advances stage i near the end.
	Dep int

	// ChunksMean/ChunksSpread give the per-iteration body length and
	// its variance (conditional branching that is
	// iteration-dependent, section 4.3).
	ChunksMean   int
	ChunksSpread int

	// VecLen is the vector length per memory operation, in elements
	// of 8 bytes.
	VecLen int

	// ReuseBase/ReuseBytes is the blocked, cache-resident region all
	// iterations walk — the cross-processor data locality of section
	// 5.1.  FreshBytesPerIter is the amount of new streaming data
	// each iteration pulls from FreshBase + iter*FreshBytesPerIter;
	// fresh lines are the loop's compulsory misses and its page
	// traffic.
	ReuseBase         uint32
	ReuseBytes        uint32
	FreshBase         uint32
	FreshBytesPerIter uint32

	// VComputeCycles and ScalarCycles are the per-chunk computation
	// costs between vector memory operations.
	VComputeCycles int
	ScalarCycles   int

	// CodeBase locates the body's instruction footprint.
	CodeBase uint32

	// Seed drives per-iteration variance deterministically: the
	// body of iteration i depends only on (Seed, i), never on which
	// CE runs it.
	Seed uint64
}

// NewLoop builds the fx8 loop descriptor for the parameters.  The
// descriptor provides both body forms: BodyInto appends each
// iteration into the executing CE's reusable buffer (the
// zero-allocation path the cluster prefers), and Body materializes a
// fresh stream for callers that hold iteration bodies beyond the
// iteration's execution.
func NewLoop(p LoopParams) *fx8.Loop {
	if p.VecLen <= 0 {
		p.VecLen = 32
	}
	if p.ChunksMean <= 0 {
		p.ChunksMean = 4
	}
	if p.ReuseBytes == 0 {
		p.ReuseBytes = 64 << 10
	}
	return &fx8.Loop{
		Trips:    p.Trips,
		Body:     func(iter int) fx8.Stream { return buildBody(p, iter) },
		BodyInto: func(iter int, s *fx8.SliceStream) { appendBody(p, iter, s) },
	}
}

// buildBody materializes the instruction list of one iteration as a
// fresh stream.  appendBody sizes the buffer itself once it has
// rolled the iteration's actual chunk count.
func buildBody(p LoopParams, iter int) fx8.Stream {
	s := &fx8.SliceStream{}
	appendBody(p, iter, s)
	return s
}

// appendBody appends the instruction list of iteration iter into s.
// The body is a pure function of (p, iter) — never of the buffer's
// history — so regenerating it into a reused buffer is bit-identical
// to building it fresh.
func appendBody(p LoopParams, iter int, s *fx8.SliceStream) {
	rng := fastrand.New(p.Seed, uint64(iter)+0xb0d9)
	chunks := p.ChunksMean
	if p.ChunksSpread > 0 {
		chunks += rng.IntN(2*p.ChunksSpread+1) - p.ChunksSpread
	}
	if chunks < 1 {
		chunks = 1
	}
	vecBytes := uint32(p.VecLen * 8)
	freshVecs := int(p.FreshBytesPerIter / vecBytes)

	// Synchronization placement: await at ~1/4 of the body, advance
	// at ~3/4, so distance-d loops keep up to d iterations in flight.
	awaitAt, advanceAt := chunks/4, 3*chunks/4

	// Six instructions per chunk at most, plus the two sync ops:
	// growing up front keeps the append loop reallocation-free for
	// fresh streams and for reused buffers seeing their largest body.
	s.Instrs = slices.Grow(s.Instrs, chunks*6+2)
	code := p.CodeBase
	emit := func(in fx8.Instr) {
		in.IAddr = code
		code += 4
		s.Instrs = append(s.Instrs, in)
	}

	for c := 0; c < chunks; c++ {
		if p.Dep > 0 && c == awaitAt {
			emit(fx8.Instr{Op: fx8.OpAwait, N: int32(iter - p.Dep)})
		}
		walk := (uint32(iter)*uint32(chunks) + uint32(c)) * vecBytes
		srcA := p.ReuseBase + walk%p.ReuseBytes
		dst := p.ReuseBase + (walk+p.ReuseBytes/2)%p.ReuseBytes

		emit(fx8.Instr{Op: fx8.OpVLoad, Addr: srcA, N: int32(p.VecLen)})
		if c < freshVecs {
			fresh := p.FreshBase + uint32(iter)*p.FreshBytesPerIter + uint32(c)*vecBytes
			emit(fx8.Instr{Op: fx8.OpVLoad, Addr: fresh, N: int32(p.VecLen)})
		} else {
			srcB := p.ReuseBase + (walk+p.ReuseBytes/4)%p.ReuseBytes
			emit(fx8.Instr{Op: fx8.OpVLoad, Addr: srcB, N: int32(p.VecLen)})
		}
		if p.VComputeCycles > 0 {
			emit(fx8.Instr{Op: fx8.OpVCompute, N: int32(p.VComputeCycles)})
		}
		emit(fx8.Instr{Op: fx8.OpVStore, Addr: dst, N: int32(p.VecLen)})
		if p.ScalarCycles > 0 {
			emit(fx8.Instr{Op: fx8.OpCompute, N: int32(p.ScalarCycles)})
		}
		if p.Dep > 0 && c == advanceAt {
			emit(fx8.Instr{Op: fx8.OpAdvance, N: int32(iter)})
		}
	}
}

// CStart wraps a loop into the single serial instruction that starts
// it.
func CStart(loop *fx8.Loop, iaddr uint32) fx8.Instr {
	return fx8.Instr{Op: fx8.OpCStart, Loop: loop, IAddr: iaddr}
}
