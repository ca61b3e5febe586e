package fx8

import (
	"errors"
	"math/bits"
	"math/rand/v2"

	"repro/internal/trace"
)

// Cluster is the simulated Computational Cluster: the CEs, shared
// cache, crossbar, memory buses, CCB and IPs assembled per a Config.
//
// Time is the bus cycle, and Step executes exactly one.  The core is
// event driven underneath: a CE whose next cycles only run down its
// own counters (a stall, a multi-cycle compute, vector elements inside
// a granted line) sleeps until a wake cycle, and each IP pre-draws
// its issue trials up to its next transaction.  Step touches only the
// CEs due at the current cycle and the IPs issuing in it; Advance and
// StepN jump whole spans in which no CE is due, issuing the IP
// transactions inside them at their own cycles.  The output is
// bit-identical to stepping every CE and rolling every IP trial on
// every cycle, because nothing outside a sleeping CE reads or changes
// what it runs down, its counters are settled exactly whenever they
// are read (CE, Snapshot, Preempt), and each IP consumes its private
// random stream in the same order.
//
// An operating system layer installs one cluster process at a time via
// Run; the process's serial thread executes on one CE and concurrent
// loops fan out over the CCB.  Snapshot exposes the probe wires after
// each Step or Advance.
type Cluster struct {
	cfg       Config
	cycle     uint64
	lineShift uint // derived from cfg.LineBytes; fxlint:keep

	// Invariant configuration values hoisted out of the per-cycle
	// paths: cfg is consulted once at construction, not per step.
	// Reset keeps the configuration (only the seed changes), so the
	// derived values survive it too.
	laneBytes  uint32 // cfg.VectorLaneBytes; fxlint:keep
	lookupsCap int    // cfg.LookupsPerModule; fxlint:keep
	arbBias    []int  // cfg.ArbBias; fxlint:keep

	ces   []CE
	cache *SharedCache
	mem   *MemSystem
	ccb   *CCB
	ips   []IP
	mmu   MMU // the OS re-installs its hook; kept across Reset (fxlint:keep)

	serialStream Stream
	clusterSize  int
	running      bool

	// wantMask has bit i set while CE i has an outstanding
	// shared-cache access, so arbitration visits only the requesters
	// and skips entirely on the (frequent) cycles with none.
	wantMask uint8

	// wake[i] is the next cycle CE i must be stepped: never for an
	// idle or barrier CE until a process start, loop start or loop
	// end wakes it (the idle CEs of a process are stepped only to
	// self-schedule the iterations of a loop just started).  horizon
	// is the earliest wake and nextIP the earliest pre-drawn IP
	// transaction: cycles before both only count.
	wake    [trace.NumCE]uint64
	horizon uint64
	nextIP  uint64

	// Arbitration scratch (reused each cycle).  capacity is fully
	// rewritten at the top of every arbitrate pass, so Reset leaves
	// it alone.
	reqBuf   []*CE
	capacity []int // fxlint:keep
}

// New builds a cluster from cfg.  It panics on an invalid
// configuration; use cfg.Validate first when the configuration is not
// statically known.
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lineShift := uint(0)
	for 1<<lineShift < cfg.LineBytes {
		lineShift++
	}
	cl := &Cluster{
		cfg:        cfg,
		lineShift:  lineShift,
		laneBytes:  uint32(cfg.VectorLaneBytes),
		lookupsCap: cfg.LookupsPerModule,
		arbBias:    cfg.ArbBias,
		cache:      NewSharedCache(cfg),
		mem:        NewMemSystem(cfg.MemBuses),
		ccb:        NewCCB(),
		capacity:   make([]int, cfg.SharedModules),
	}
	// CEs and IPs live in value slices: the per-cycle loops walk one
	// contiguous block instead of chasing eight heap pointers.
	cl.ces = make([]CE, cfg.NumCE)
	for i := range cl.ces {
		cl.ces[i] = newCE(i, cfg)
	}
	cl.ips = make([]IP, cfg.NumIP)
	cl.seedIPs(cfg.Seed)
	cl.wake = sleepingCEs
	cl.horizon = never
	return cl
}

// sleepingCEs is the wake array of a cluster with no process.
var sleepingCEs = [trace.NumCE]uint64{never, never, never, never, never, never, never, never}

// seedIPs seeds the IP traffic sources from seed and pre-draws each
// one's first transaction.
func (cl *Cluster) seedIPs(seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x1F8))
	cl.nextIP = never
	for i := range cl.ips {
		cl.ips[i] = newIP(i, rng.Uint64(), cl.cfg.IPActivity)
		cl.nextIP = min(cl.nextIP, cl.ips[i].next)
	}
}

// Reset returns the cluster to the state New(cfg) would produce with
// cfg.Seed = seed, reusing every allocation — the CE and IP slices,
// the cache line arrays, the bus queues, the CCB and the arbitration
// scratch — so a worker can rebuild a session's machine in place
// instead of booting a fresh cluster.  The installed MMU hook is
// kept.  Execution after Reset is bit-identical to execution on a
// freshly constructed cluster with the same configuration and seed.
func (cl *Cluster) Reset(seed uint64) {
	cl.cfg.Seed = seed
	cl.cycle = 0
	cl.serialStream = nil
	cl.clusterSize = 0
	cl.running = false
	cl.wantMask = 0
	cl.wake = sleepingCEs
	cl.horizon = never
	cl.reqBuf = cl.reqBuf[:0]
	for i := range cl.ces {
		cl.ces[i].hardReset()
	}
	cl.cache.Reset()
	cl.mem.Reset()
	cl.ccb.Reset()
	// Re-seed the IP traffic sources exactly as New does.
	cl.seedIPs(seed)
}

// Config returns the cluster's configuration.
func (cl *Cluster) Config() Config { return cl.cfg }

// Cache exposes the shared cache for statistics inspection.
func (cl *Cluster) Cache() *SharedCache { return cl.cache }

// Mem exposes the memory system for statistics inspection.
func (cl *Cluster) Mem() *MemSystem { return cl.mem }

// CCBus exposes the concurrency control bus for statistics inspection.
func (cl *Cluster) CCBus() *CCB { return cl.ccb }

// CE returns computational element i, its statistics and bus opcode
// settled to the current cycle.
func (cl *Cluster) CE(i int) *CE {
	ce := &cl.ces[i]
	ce.settle(cl, cl.cycle)
	return ce
}

// Cycle returns the number of cycles executed.
func (cl *Cluster) Cycle() uint64 { return cl.cycle }

// SetMMU installs the operating system's virtual memory hook.
func (cl *Cluster) SetMMU(m MMU) { cl.mmu = m }

// ErrBusy is returned by Run when a process is already installed.
var ErrBusy = errors.New("fx8: cluster already running a process")

// Run installs a cluster process: its serial thread begins on CE 0 and
// concurrent loops may fan out over up to clusterSize CEs (clamped to
// the configured CE count), matching Concentrix's cluster-with-k-CEs
// resource classes.
func (cl *Cluster) Run(serial Stream, clusterSize int) error {
	if cl.running {
		return ErrBusy
	}
	if clusterSize < 1 {
		clusterSize = 1
	}
	if clusterSize > cl.cfg.NumCE {
		clusterSize = cl.cfg.NumCE
	}
	cl.clusterSize = clusterSize
	cl.running = true
	ce := &cl.ces[0]
	ce.reset(cl)
	ce.mode = ceSerial
	ce.stream = serial
	cl.wake[0] = cl.cycle
	cl.horizon = cl.cycle
	return nil
}

// Idle reports whether no process is installed.
func (cl *Cluster) Idle() bool { return !cl.running }

// InConcurrentLoop reports whether a concurrent loop is executing.
func (cl *Cluster) InConcurrentLoop() bool { return cl.ccb.Running() }

// Preempt removes the current process at a serial point and returns
// its serial stream so a scheduler can reinstall it later.  Preemption
// during a concurrent loop is refused (ok=false): Concentrix
// deschedules cluster jobs between, not inside, concurrent operations.
func (cl *Cluster) Preempt() (serial Stream, ok bool) {
	if !cl.running || cl.ccb.Running() {
		return nil, false
	}
	for i := range cl.ces {
		ce := &cl.ces[i]
		if ce.mode == ceSerial {
			s := ce.stream
			if ce.hasCur {
				// The CE had already pulled an instruction from the
				// stream; requeue it so no work is lost across the
				// context switch.
				s = &ConcatStream{Streams: []Stream{
					&SliceStream{Instrs: []Instr{ce.cur}},
					s,
				}}
			}
			// The work the CE had left of a stall, compute or
			// vector run is discarded; what it did is kept.
			ce.settle(cl, cl.cycle)
			ce.reset(cl)
			cl.running = false
			cl.updateHorizon()
			return s, true
		}
	}
	return nil, false
}

// Step executes one bus cycle: crossbar arbitration, then every CE
// due at this cycle, then the IPs issuing in it.
func (cl *Cluster) Step() {
	now := cl.cycle
	if now >= cl.horizon {
		cl.arbitrate()
		for i := range cl.ces {
			// The wake is re-read per CE because an earlier CE may
			// start a loop this very cycle, which the rest must join
			// immediately.
			if cl.wake[i] > now {
				continue
			}
			ce := &cl.ces[i]
			if ce.sleep != awake {
				// A run ending where another begins (a miss stall
				// into in-line streaming) sleeps on.
				ce.settle(cl, now)
				ce.schedule(cl, now)
				if cl.wake[i] > now {
					continue
				}
			}
			ce.step(cl)
			ce.schedule(cl, now+1)
		}
		cl.updateHorizon()
	}
	if now >= cl.nextIP {
		cl.issueIPs(now)
	}
	cl.cycle = now + 1
}

// Advance executes at least one and at most max cycles and returns
// how many: one Step when a CE is due now, otherwise a jump to the
// next cycle a CE is due, issuing the IP transactions that fall
// inside it at their own cycles.  Every cycle it jumps leaves the
// CEs' modes, and so ActiveCount and Idle, unchanged.
func (cl *Cluster) Advance(max int) int {
	if max <= 1 || cl.cycle >= cl.horizon {
		cl.Step()
		return 1
	}
	n := uint64(max)
	if d := cl.horizon - cl.cycle; d < n {
		n = d
	}
	end := cl.cycle + n
	for cl.nextIP < end {
		cl.issueIPs(cl.nextIP)
	}
	cl.cycle = end
	return int(n) //fxlint:allow truncation — n <= max, an int
}

// StepN executes n cycles.
func (cl *Cluster) StepN(n int) {
	for n > 0 {
		n -= cl.Advance(n)
	}
}

// updateHorizon recomputes the earliest CE wake.
func (cl *Cluster) updateHorizon() {
	h := never
	for _, w := range cl.wake {
		h = min(h, w)
	}
	cl.horizon = h
}

// issueIPs performs the transactions the IPs pre-drew for cycle now,
// in IP order, and finds the next one.
func (cl *Cluster) issueIPs(now uint64) {
	next := never
	for i := range cl.ips {
		ip := &cl.ips[i]
		if ip.next == now {
			ip.issue(cl, now)
		}
		next = min(next, ip.next)
	}
	cl.nextIP = next
}

// arbitrate grants pending shared-cache lookups up to each module's
// per-cycle capacity.  Contended grants go to the highest
// (cycles-waited + configured bias); aging guarantees progress while
// the bias reproduces the machine's priority asymmetry.
func (cl *Cluster) arbitrate() {
	if cl.wantMask == 0 {
		return
	}
	// Scores (cycles waited + bias) are computed once while
	// collecting requests, not per sort comparison.  Requests are
	// collected in CE order, so equal scores keep it.
	var scores [trace.NumCE]int
	reqs := cl.reqBuf[:0]
	for m := cl.wantMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		ce := &cl.ces[i]
		if cl.wake[i] <= cl.cycle && !ce.granted && ce.mode != ceIdle {
			s := ce.waited
			if cl.arbBias != nil {
				s += cl.arbBias[i]
			}
			scores[len(reqs)] = s
			reqs = append(reqs, ce)
		}
	}
	cl.reqBuf = reqs
	switch len(reqs) {
	case 0:
		return
	case 1:
		// Every module accepts at least one lookup per cycle.
		reqs[0].granted = true
		return
	}
	for i := range cl.capacity {
		cl.capacity[i] = cl.lookupsCap
	}
	// Insertion sort by descending score; ties break by CE id for
	// determinism.  At most NumCE entries.
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0 && scores[j] > scores[j-1]; j-- {
			scores[j], scores[j-1] = scores[j-1], scores[j]
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}
	for _, ce := range reqs {
		m := cl.cache.Module(ce.lookupAddr)
		if cl.capacity[m] > 0 {
			cl.capacity[m]--
			ce.granted = true
		}
	}
}

// ActiveCount returns the number of CEs currently active.
func (cl *Cluster) ActiveCount() int {
	n := 0
	for i := range cl.ces {
		if cl.ces[i].Active() {
			n++
		}
	}
	return n
}

// Snapshot latches the probe wires for the cycle just executed: the
// per-CE bus opcodes, the memory bus opcodes, and the per-CE activity
// bits.  It is meaningful only after at least one Step.
func (cl *Cluster) Snapshot() trace.Record {
	var r trace.Record
	if cl.cycle == 0 {
		return r
	}
	now := cl.cycle - 1
	for i := range cl.ces {
		if i >= trace.NumCE {
			break
		}
		r.CE[i] = cl.ces[i].opAt(cl.cycle)
		r.Active[i] = cl.ces[i].Active()
	}
	for b := 0; b < cl.mem.NumBuses() && b < trace.NumMemBus; b++ {
		r.Mem[b] = cl.mem.OpAt(b, now)
	}
	return r
}

// beginLoop starts a concurrent loop from serial CE ce: the serial
// stream parks, the CCB broadcasts the loop, and the starting CE
// self-schedules the first iteration.  Zero-trip loops fall straight
// through to serial continuation.
func (cl *Cluster) beginLoop(loop *Loop, ce *CE) {
	cl.ccb.Start(loop)
	cl.serialStream = ce.stream
	ce.stream = nil
	if loop.Trips <= 0 {
		cl.ccb.Finish()
		ce.stream = cl.serialStream
		cl.serialStream = nil
		ce.stall = cl.cfg.CStartCycles
		return
	}
	it, _ := cl.ccb.Take(ce.id)
	ce.installBody(loop, it)
	ce.mode = ceConc
	ce.stall = cl.cfg.CStartCycles
	// Wake the idle CEs of the process to self-schedule iterations:
	// those after ce in this cycle, those before it in the next.
	for i := range cl.ces[:cl.clusterSize] {
		if cl.ces[i].mode == ceIdle {
			cl.wake[i] = cl.cycle
		}
	}
}

// endLoop resumes serial execution on the CE that ran the final
// iteration.
func (cl *Cluster) endLoop() {
	last := cl.ccb.LastCE()
	cl.ccb.Finish()
	for i := range cl.ces {
		ce := &cl.ces[i]
		if ce.mode == ceBarrier || ce.mode == ceConc {
			ce.mode = ceIdle
			ce.stream = nil
		}
	}
	ce := &cl.ces[last]
	ce.mode = ceSerial
	ce.stream = cl.serialStream
	cl.wake[last] = cl.cycle
	cl.serialStream = nil
}

// processDone marks the installed process finished (its serial stream
// is exhausted).
func (cl *Cluster) processDone() {
	cl.running = false
}
