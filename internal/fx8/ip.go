package fx8

import (
	"repro/internal/fastrand"
	"repro/internal/trace"
)

// IP is an Interactive Processor: the 68012-based front-end processors
// that handle interactive load, operating system functions and I/O
// through their own caches.  For the cluster measures they matter as
// background memory-bus traffic and as the occasional coherence
// invalidation of a shared-cache line (the unique-copy rule), so the
// model is a seeded stochastic traffic source.
type IP struct {
	id  int
	rng fastrand.PCG

	// next is the cycle of the IP's next transaction.  The IP rolls
	// one issue trial per cycle once its bus transaction completes;
	// the trials are drawn ahead, up to the first success, so the
	// cluster can jump the cycles between transactions.
	next uint64

	// Statistics.
	Transactions  uint64
	Invalidations uint64
}

func newIP(id int, seed uint64, activity int) IP {
	ip := IP{id: id, rng: fastrand.New(seed, uint64(id)+0xA5)}
	ip.next = ip.drawNext(0, activity)
	return ip
}

// drawNext rolls the issue trials of the free cycles from cycle from
// on and returns the cycle of the first success; an IP with activity
// 0 never issues.
func (ip *IP) drawNext(from uint64, activity int) uint64 {
	if activity <= 0 {
		return never
	}
	return from + ip.rng.Failures(1000, activity)
}

// memSpan is the modelled physical memory the IPs touch (the machine
// maxes out at 64 MB).
const memSpan = 64 << 20

// issue performs the IP's memory-bus transaction at cycle now, then
// draws the cycle of its next one.
func (ip *IP) issue(cl *Cluster, now uint64) {
	write := ip.rng.IntN(4) == 0 // reads dominate interactive work
	op := trace.MemIPRead
	if write {
		op = trace.MemIPWrite
	}
	bus := ip.rng.IntN(cl.mem.NumBuses())
	end := cl.mem.Enqueue(bus, op, 2, now)
	ip.Transactions++

	if write && ip.rng.IntN(1000) < cl.cfg.IPInvalidate {
		// Unique-copy coherence: an IP write may steal a line from
		// the CE cache, which appears as an invalidate transaction.
		addr := uint32(ip.rng.Uint64() % memSpan)
		if cl.cache.Invalidate(addr) {
			cl.mem.Enqueue(bus, trace.MemInval, 1, end)
			ip.Invalidations++
		}
	}
	// The bus is busy until end; trials resume on that cycle.
	ip.next = ip.drawNext(end, cl.cfg.IPActivity)
}
