// Package fx8 simulates the Alliant FX/8 Computational Cluster at the
// bus-cycle level: eight Computational Elements (CEs) with private
// instruction caches, a shared four-way-interleaved write-back cache
// split across two modules, a crossbar between CEs and the cache, two
// memory buses to interleaved main memory, and the hardware
// Concurrency Control Bus (CCB) that implements self-scheduled
// loop-level concurrency.
//
// The simulator exposes exactly the signals the study's logic analyzer
// probed: per-CE bus opcodes (with miss qualification), memory bus
// opcodes, and per-CE activity, so the measurement methodology of
// internal/core can observe it non-intrusively.
//
// Cluster.Step executes one bus cycle; Cluster.Advance and StepN jump
// the cycles in which no CE has to act.  Underneath, the core is event
// driven: a CE sleeps through stalls, multi-cycle computes and vector
// elements inside a granted line, and each IP pre-draws its issue
// trials up to its next transaction.  Every observable — probe wires,
// statistics, the random streams — is bit-identical to stepping every
// component on every cycle; the fingerprint table in testdata pins
// both paths.
package fx8

import (
	"fmt"

	"repro/internal/trace"
)

// Config describes the hardware configuration of a simulated cluster.
// DefaultConfig returns the FX/8 as measured in the study.
type Config struct {
	// NumCE is the number of Computational Elements in the cluster
	// (1 for an FX/1 through 8 for an FX/8).
	NumCE int

	// NumIP is the number of Interactive Processors generating
	// background memory-bus traffic.
	NumIP int

	// LineBytes is the cache line size shared by the instruction and
	// data caches.
	LineBytes int

	// ICacheBytes is the per-CE private instruction cache size
	// (direct mapped).
	ICacheBytes int

	// SharedCacheBytes is the total shared data cache size, split
	// evenly across SharedModules interleaved modules.
	SharedCacheBytes int
	SharedModules    int
	SharedWays       int

	// LookupsPerModule is the number of new cache lookups each shared
	// cache module can accept per cycle; requests beyond it queue in
	// the crossbar.
	LookupsPerModule int

	// ArbBias is the per-CE crossbar arbitration bias: a contended
	// request is granted by highest (cycles waited + bias).  Larger
	// bias wins contention sooner.  Length must be NumCE; nil means
	// no bias.
	ArbBias []int

	// MemBuses is the number of cache-to-memory buses.
	MemBuses int

	// FillCycles is the memory bus occupancy of one line fill;
	// WriteBackCycles of one dirty-line write-back.
	FillCycles      int
	WriteBackCycles int

	// MissExtraCycles is the additional CE stall beyond memory bus
	// occupancy when an access misses.
	MissExtraCycles int

	// PageBytes is the virtual memory page size used for page-fault
	// checks by the MMU hook.
	PageBytes int

	// VectorLaneBytes is the data moved per bus cycle by a vector
	// memory operation (one element per cycle).
	VectorLaneBytes int

	// CStartCycles is the Concurrency Control Bus broadcast latency
	// of a concurrent-start instruction.
	CStartCycles int

	// CCBDispatchExtra is the per-CE iteration dispatch latency in
	// cycles, modelling each CE's position on the concurrency
	// control bus daisy chain.  CEs with lower dispatch latency run
	// iterations marginally faster, free up first at round
	// boundaries, and therefore absorb a loop's leftover iterations
	// — the mechanism behind the transition asymmetry of section
	// 4.3.  Length must be at least NumCE; nil means uniform.
	CCBDispatchExtra []int

	// IPActivity is the per-cycle probability (x1000, 0..1000) that
	// an idle IP issues a memory bus transaction; 0 means the IPs
	// never issue.  IPInvalidate is the probability (x1000, 0..1000)
	// that an IP write invalidates a shared-cache line.
	IPActivity   int
	IPInvalidate int

	// Seed drives the IP background traffic generator.  CE execution
	// is fully deterministic and does not consume randomness.
	Seed uint64
}

// DefaultConfig returns the configuration of the measured FX/8:
// 8 CEs, 16 KB icaches, 128 KB shared cache in two four-way modules,
// two memory buses, 4 KB pages.  The arbitration bias and CCB
// dispatch-chain latencies encode the priority asymmetry hypothesized
// in section 4.4: CEs 0 and 7 are marginally favored, so they free up
// first at loop round boundaries and absorb leftover iterations.
func DefaultConfig() Config {
	return Config{
		NumCE:            trace.NumCE,
		NumIP:            3,
		LineBytes:        32,
		ICacheBytes:      16 << 10,
		SharedCacheBytes: 128 << 10,
		SharedModules:    2,
		SharedWays:       4,
		LookupsPerModule: 1,
		ArbBias:          []int{8, 2, 5, 5, 5, 2, 2, 8},
		MemBuses:         trace.NumMemBus,
		FillCycles:       5,
		WriteBackCycles:  3,
		MissExtraCycles:  2,
		PageBytes:        4 << 10,
		VectorLaneBytes:  8,
		CStartCycles:     4,
		CCBDispatchExtra: []int{0, 4, 2, 2, 2, 4, 4, 0},
		IPActivity:       60,
		IPInvalidate:     5,
		Seed:             1987,
	}
}

// Validate reports the first configuration inconsistency found, or
// nil when the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.NumCE < 1 || c.NumCE > trace.NumCE:
		return fmt.Errorf("fx8: NumCE %d out of range 1..%d", c.NumCE, trace.NumCE)
	case c.NumIP < 0:
		return fmt.Errorf("fx8: NumIP %d must be non-negative", c.NumIP)
	case c.IPActivity < 0 || c.IPActivity > 1000:
		return fmt.Errorf("fx8: IPActivity %d out of range 0..1000", c.IPActivity)
	case c.IPInvalidate < 0 || c.IPInvalidate > 1000:
		return fmt.Errorf("fx8: IPInvalidate %d out of range 0..1000", c.IPInvalidate)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("fx8: LineBytes %d must be a positive power of two", c.LineBytes)
	case c.ICacheBytes < c.LineBytes:
		return fmt.Errorf("fx8: ICacheBytes %d smaller than a line", c.ICacheBytes)
	case c.SharedModules <= 0 || c.SharedModules&(c.SharedModules-1) != 0:
		return fmt.Errorf("fx8: SharedModules %d must be a positive power of two", c.SharedModules)
	case c.SharedWays <= 0:
		return fmt.Errorf("fx8: SharedWays %d must be positive", c.SharedWays)
	case c.SharedCacheBytes%(c.SharedModules*c.SharedWays*c.LineBytes) != 0:
		return fmt.Errorf("fx8: SharedCacheBytes %d not divisible into %d modules x %d ways of %d-byte lines",
			c.SharedCacheBytes, c.SharedModules, c.SharedWays, c.LineBytes)
	case c.LookupsPerModule <= 0:
		return fmt.Errorf("fx8: LookupsPerModule must be positive")
	case c.ArbBias != nil && len(c.ArbBias) < c.NumCE:
		return fmt.Errorf("fx8: ArbBias length %d < NumCE %d", len(c.ArbBias), c.NumCE)
	case c.MemBuses < 1 || c.MemBuses > trace.NumMemBus:
		return fmt.Errorf("fx8: MemBuses %d out of range 1..%d", c.MemBuses, trace.NumMemBus)
	case c.FillCycles <= 0 || c.WriteBackCycles <= 0:
		return fmt.Errorf("fx8: bus occupancies must be positive")
	case c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0:
		return fmt.Errorf("fx8: PageBytes %d must be a positive power of two", c.PageBytes)
	case c.VectorLaneBytes <= 0:
		return fmt.Errorf("fx8: VectorLaneBytes must be positive")
	case c.CStartCycles < 0:
		return fmt.Errorf("fx8: CStartCycles must be non-negative")
	case c.CCBDispatchExtra != nil && len(c.CCBDispatchExtra) < c.NumCE:
		return fmt.Errorf("fx8: CCBDispatchExtra length %d < NumCE %d", len(c.CCBDispatchExtra), c.NumCE)
	}
	return nil
}

// FX1Config returns the entry configuration of the product line: one
// CE, one IP, and a single 64 KB cache module on one memory bus.
func FX1Config() Config {
	cfg := DefaultConfig()
	cfg.NumCE = 1
	cfg.NumIP = 1
	cfg.SharedCacheBytes = 64 << 10
	cfg.SharedModules = 1
	cfg.MemBuses = 1
	cfg.ArbBias = nil
	cfg.CCBDispatchExtra = nil
	return cfg
}

// FX4Config returns a mid-range four-CE configuration.
func FX4Config() Config {
	cfg := DefaultConfig()
	cfg.NumCE = 4
	cfg.NumIP = 2
	cfg.ArbBias = cfg.ArbBias[:4]
	cfg.CCBDispatchExtra = cfg.CCBDispatchExtra[:4]
	return cfg
}
