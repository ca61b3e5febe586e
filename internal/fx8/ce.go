package fx8

import (
	"fmt"

	"repro/internal/trace"
)

// ceMode is the execution state of a Computational Element.
type ceMode uint8

const (
	ceIdle    ceMode = iota // no work; not counted active
	ceSerial                // executing the process's serial thread
	ceConc                  // executing a self-scheduled loop iteration
	ceAwait                 // blocked on CCB dependence synchronization
	ceBarrier               // ran the final iteration; waiting for stragglers
)

// lookup continuation kinds: what an outstanding cache access
// completes when it is granted.
type lookupKind uint8

const (
	lkScalar lookupKind = iota // completes a scalar load/store
	lkVector                   // completes one vector line crossing
	lkFetch                    // completes an instruction fetch
)

// sleepKind is what a sleeping CE does on each cycle it is not
// stepped.
type sleepKind uint8

const (
	awake        sleepKind = iota // stepped on every cycle from wake on
	sleepStall                    // one StallCycles per cycle
	sleepCompute                  // one retirement per cycle
	sleepStream                   // one vector element and bus cycle per cycle
)

// never is the wake cycle of a CE with nothing to do until another CE
// or the operating system hands it work.
const never = ^uint64(0)

// CE is one Computational Element of the cluster.
type CE struct {
	id     int
	icache *icache

	mode   ceMode
	stream Stream
	iter   int

	// Current instruction state.
	cur     Instr
	hasCur  bool
	fetched bool

	computeLeft int
	vecLeft     int
	vecAddr     uint32
	vecWrite    bool
	vecLine     uint32 // line granted to the streaming vector operation

	// Outstanding cache access.
	wantLookup  bool
	lookupAddr  uint32
	lookupWrite bool
	lookupKind  lookupKind
	waited      int
	granted     bool

	stall      int
	awaitStage int

	// The CE sleeps through runs of cycles that touch nothing but its
	// own counters: a stall, the remaining cycles of a multi-cycle
	// compute, or the vector elements left inside an already-granted
	// line, until its wake cycle (Cluster.wake).  While asleep, stall,
	// computeLeft, vecLeft, vecAddr and the statistics hold their
	// values as of cycle syncAt; settle brings them up to date.
	sleep  sleepKind
	syncAt uint64

	// bodyBuf is the CE's private loop-body buffer: loops built with
	// BodyInto materialize each self-scheduled iteration here, reusing
	// the backing array, so iteration dispatch allocates nothing after
	// the first few iterations grow it to the largest body seen.
	bodyBuf SliceStream

	// busOp is the opcode driven on this CE's bus in the cycle just
	// executed — the wire the monitor probes.
	busOp trace.CEOp

	// Statistics.
	InstrsRetired  uint64
	BusBusyCycles  uint64
	MissCycles     uint64
	StallCycles    uint64
	AwaitCycles    uint64
	XbarWaitCycles uint64
}

func newCE(id int, cfg Config) CE {
	return CE{id: id, icache: newICache(cfg.ICacheBytes, cfg.LineBytes)}
}

// ID returns the CE's index within the cluster.
func (ce *CE) ID() int { return ce.id }

// Active reports whether the CE counts as active for the monitor's
// per-record activity bit: executing serially, executing or stalled
// inside a concurrent iteration, or waiting on dependence
// synchronization.  Barrier wait (out of iterations) and idle are
// inactive — the states whose onset the transition study measures.
func (ce *CE) Active() bool {
	switch ce.mode {
	case ceSerial, ceConc, ceAwait:
		return true
	}
	return false
}

// BusOp returns the opcode driven on the CE bus during the last
// executed cycle, as of the Cluster.CE call that returned ce.
func (ce *CE) BusOp() trace.CEOp { return ce.busOp }

// opAt returns the opcode the CE drove during cycle now-1: the
// sleep's own opcode once the sleep has run a cycle past syncAt,
// otherwise the one latched by its last step or settle.
func (ce *CE) opAt(now uint64) trace.CEOp {
	if ce.sleep == awake || now == ce.syncAt {
		return ce.busOp
	}
	if ce.sleep == sleepStream {
		return busOpFor(ce.vecWrite, false, false)
	}
	return trace.CEIdle
}

// settle brings a sleeping CE's counters and statistics up to cycle
// now (at most its wake cycle): exactly what stepping it on every
// cycle since syncAt would have left behind.
func (ce *CE) settle(cl *Cluster, now uint64) {
	if ce.sleep == awake || now == ce.syncAt {
		return
	}
	ce.busOp = ce.opAt(now)
	d := now - ce.syncAt
	// d never exceeds the sleep's run length, which was an int.
	n := int(d) //fxlint:allow truncation — d <= the sleep's int run length
	ce.syncAt = now
	switch ce.sleep {
	case sleepStall:
		ce.stall -= n
		ce.StallCycles += d
	case sleepCompute:
		ce.computeLeft -= n
		ce.InstrsRetired += d
	case sleepStream:
		ce.vecLeft -= n
		ce.vecAddr += uint32(n) * cl.laneBytes
		ce.InstrsRetired += d
		ce.BusBusyCycles += d
	}
}

// schedule sets the CE's wake cycle from the state it starts cycle
// from in.  A stall, a multi-cycle compute or in-line vector
// streaming puts it to sleep until the run is over; a pending lookup
// or a dependence wait keeps it awake; an idle or barrier CE sleeps
// until the cluster wakes it.
func (ce *CE) schedule(cl *Cluster, from uint64) {
	ce.sleep = awake
	switch ce.mode {
	case ceIdle, ceBarrier:
		cl.wake[ce.id] = never
		return
	case ceAwait:
		cl.wake[ce.id] = from
		return
	}
	run := 0
	switch {
	case ce.stall > 0:
		ce.sleep, run = sleepStall, ce.stall
	case ce.wantLookup:
	case ce.computeLeft > 0:
		ce.sleep, run = sleepCompute, ce.computeLeft
	case ce.vecLeft > 0:
		if run = ce.lineRun(cl); run > 0 {
			ce.sleep = sleepStream
		}
	}
	ce.syncAt = from
	cl.wake[ce.id] = from + uint64(run)
}

// lineRun returns how many of the vector operation's remaining
// elements lie in the granted line, one per cycle from vecAddr on.
func (ce *CE) lineRun(cl *Cluster) int {
	if ce.vecAddr>>cl.lineShift != ce.vecLine {
		return 0
	}
	end := (uint64(ce.vecLine) + 1) << cl.lineShift
	lane := uint64(cl.laneBytes)
	if k := (end - uint64(ce.vecAddr) + lane - 1) / lane; k < uint64(ce.vecLeft) {
		return int(k) //fxlint:allow truncation — k < vecLeft, an int
	}
	return ce.vecLeft
}

// reset returns the CE to the idle state, clearing any in-flight
// work.  Used on process switch; a sleeping CE must be settled first.
func (ce *CE) reset(cl *Cluster) {
	ce.mode = ceIdle
	ce.stream = nil
	ce.hasCur = false
	ce.fetched = false
	ce.computeLeft = 0
	ce.vecLeft = 0
	ce.sleep = awake
	cl.wake[ce.id] = never
	cl.wantMask &^= 1 << ce.id
	ce.wantLookup = false
	ce.granted = false
	ce.waited = 0
	ce.stall = 0
	ce.busOp = trace.CEIdle
	ce.icache.invalidate()
}

// step executes one cycle of an awake CE.  The cluster has already
// run crossbar arbitration, so ce.granted tells the CE whether an
// outstanding lookup proceeds this cycle.  Stalls, compute cycles and
// in-line vector elements never reach step: the CE sleeps through
// them and settle accounts for them.
func (ce *CE) step(cl *Cluster) {
	ce.busOp = trace.CEIdle

	switch ce.mode {
	case ceIdle:
		// An idle CE of the cluster process joins a running loop by
		// self-scheduling an iteration over the CCB.
		if cl.ccb.Running() && ce.id < cl.clusterSize {
			if it, ok := cl.ccb.Take(ce.id); ok {
				ce.beginIteration(cl, it)
			}
		}
		return
	case ceAwait:
		ce.AwaitCycles++
		if !cl.ccb.StageReached(ce.awaitStage) {
			return
		}
		ce.mode = ceConc
	}

	if ce.wantLookup {
		if !ce.granted {
			ce.waited++
			ce.XbarWaitCycles++
			return
		}
		ce.granted = false
		ce.wantLookup = false
		cl.wantMask &^= 1 << ce.id
		ce.waited = 0
		ce.performLookup(cl)
		return
	}

	ce.exec(cl)
}

// exec advances the instruction state machine by one cycle.
func (ce *CE) exec(cl *Cluster) {
	if ce.vecLeft > 0 {
		// The last element left the granted line: cross into the
		// next one.
		ce.postLookup(cl, ce.vecAddr, ce.vecWrite, lkVector)
		return
	}
	if !ce.hasCur {
		if ce.stream == nil {
			ce.streamEnded(cl)
			return
		}
		in, ok := ce.stream.Next()
		if !ok {
			ce.streamEnded(cl)
			return
		}
		ce.cur = in
		ce.hasCur = true
		ce.fetched = false
	}
	if !ce.fetched {
		if ce.icache.lookup(ce.cur.IAddr) {
			ce.fetched = true
		} else {
			// Instruction fetch forwarded to the shared cache.
			ce.postLookup(cl, ce.cur.IAddr, false, lkFetch)
			return
		}
	}
	ce.dispatch(cl)
}

// dispatch begins executing the fetched current instruction; the
// dispatch cycle performs the first cycle of work.
func (ce *CE) dispatch(cl *Cluster) {
	in := ce.cur
	switch in.Op {
	case OpCompute, OpVCompute:
		ce.hasCur = false
		ce.InstrsRetired++
		if in.N > 1 {
			ce.computeLeft = int(in.N) - 1
		}
	case OpLoad:
		ce.postLookup(cl, in.Addr, false, lkScalar)
	case OpStore:
		ce.postLookup(cl, in.Addr, true, lkScalar)
	case OpVLoad, OpVStore:
		ce.hasCur = false
		if in.N <= 0 {
			// Zero-length vector operations retire as no-ops.
			ce.InstrsRetired++
			return
		}
		ce.vecLeft = int(in.N)
		ce.vecAddr = in.Addr
		ce.vecWrite = in.Op == OpVStore
		ce.postLookup(cl, ce.vecAddr, ce.vecWrite, lkVector)
	case OpCStart:
		if cl.ccb.Running() {
			panic(fmt.Sprintf("fx8: CE %d issued OpCStart inside a concurrent loop", ce.id))
		}
		if ce.mode != ceSerial {
			panic(fmt.Sprintf("fx8: CE %d issued OpCStart outside serial mode", ce.id))
		}
		ce.hasCur = false
		ce.InstrsRetired++
		cl.beginLoop(in.Loop, ce)
	case OpAdvance:
		ce.hasCur = false
		ce.InstrsRetired++
		cl.ccb.Advance(int(in.N))
	case OpAwait:
		ce.hasCur = false
		ce.InstrsRetired++
		if !cl.ccb.StageReached(int(in.N)) {
			ce.awaitStage = int(in.N)
			ce.mode = ceAwait
		}
	default:
		panic(fmt.Sprintf("fx8: CE %d: unknown opcode %d", ce.id, in.Op))
	}
}

// consumeElement retires one vector element.
func (ce *CE) consumeElement(cl *Cluster) {
	ce.vecLeft--
	ce.vecAddr += cl.laneBytes
	ce.InstrsRetired++
}

// postLookup records an outstanding shared-cache access and consults
// the MMU; a page fault stalls the CE before the access is eligible
// for arbitration.
func (ce *CE) postLookup(cl *Cluster, addr uint32, write bool, kind lookupKind) {
	cl.wantMask |= 1 << ce.id
	ce.wantLookup = true
	ce.lookupAddr = addr
	ce.lookupWrite = write
	ce.lookupKind = kind
	ce.waited = 0
	if cl.mmu != nil && kind != lkFetch {
		if s := cl.mmu.Touch(ce.id, addr); s > 0 {
			ce.stall = s
		}
	}
}

// performLookup executes a granted cache access and drives the CE bus
// with the (possibly miss-qualified) opcode.
func (ce *CE) performLookup(cl *Cluster) {
	res := cl.cache.Lookup(ce.lookupAddr, ce.lookupWrite)
	if res.WriteBack {
		bus := cl.mem.BusFor(cl.cache.Module(res.VictimAddr))
		cl.mem.Enqueue(bus, trace.MemWrite, cl.cfg.WriteBackCycles, cl.cycle)
	}
	fetch := ce.lookupKind == lkFetch
	if res.Hit {
		ce.driveBus(busOpFor(ce.lookupWrite, false, fetch))
	} else {
		ce.driveBus(busOpFor(ce.lookupWrite, true, fetch))
		ce.MissCycles++
		bus := cl.mem.BusFor(res.Module)
		end := cl.mem.Enqueue(bus, trace.MemRead, cl.cfg.FillCycles, cl.cycle)
		// end-cl.cycle is this fill's queue wait plus service time,
		// bounded by the handful of transactions ahead of it on the
		// bus — it fits int on every GOARCH.
		ce.stall = int(end-cl.cycle) + cl.cfg.MissExtraCycles //fxlint:allow truncation
	}

	switch ce.lookupKind {
	case lkScalar:
		ce.hasCur = false
		ce.InstrsRetired++
	case lkVector:
		ce.vecLine = ce.lookupAddr >> cl.lineShift
		ce.consumeElement(cl)
	case lkFetch:
		ce.fetched = true
	}
}

// driveBus sets the CE bus opcode for this cycle.
func (ce *CE) driveBus(op trace.CEOp) {
	ce.busOp = op
	ce.BusBusyCycles++
}

// busOpFor selects the CE bus opcode for an access.
func busOpFor(write, miss, fetch bool) trace.CEOp {
	switch {
	case fetch && miss:
		return trace.CEFetchMiss
	case fetch:
		return trace.CEFetch
	case write && miss:
		return trace.CEWriteMiss
	case write:
		return trace.CEWrite
	case miss:
		return trace.CEReadMiss
	default:
		return trace.CERead
	}
}

// streamEnded handles exhaustion of the CE's current stream: end of
// the serial thread terminates the process; end of a loop-body stream
// completes the iteration and self-schedules the next.
func (ce *CE) streamEnded(cl *Cluster) {
	switch ce.mode {
	case ceSerial:
		ce.mode = ceIdle
		ce.stream = nil
		cl.processDone()
	case ceConc:
		loopDone := cl.ccb.Complete(ce.iter)
		if it, ok := cl.ccb.Take(ce.id); ok {
			ce.beginIteration(cl, it)
			return
		}
		if loopDone {
			cl.endLoop()
			return
		}
		// Out of iterations but stragglers remain.  The CE that ran
		// the final iteration parks at the barrier so serial
		// execution can resume there; others go idle.
		ce.stream = nil
		if cl.ccb.LastCE() == ce.id {
			ce.mode = ceBarrier
		} else {
			ce.mode = ceIdle
		}
	default:
		panic(fmt.Sprintf("fx8: CE %d stream ended in mode %d", ce.id, ce.mode))
	}
}

// beginIteration installs a self-scheduled iteration; the CCB dispatch
// costs one cycle plus the CE's position-dependent daisy-chain
// latency.
func (ce *CE) beginIteration(cl *Cluster, iter int) {
	ce.installBody(cl.ccb.loop, iter)
	ce.mode = ceConc
	ce.stall = 1
	if cl.cfg.CCBDispatchExtra != nil {
		ce.stall += cl.cfg.CCBDispatchExtra[ce.id]
	}
}

// installBody points the CE's stream at the body of iteration iter:
// into the CE's private reusable buffer when the loop provides
// BodyInto, through the allocating Body callback otherwise.
func (ce *CE) installBody(loop *Loop, iter int) {
	ce.iter = iter
	if loop.BodyInto != nil {
		ce.bodyBuf.Instrs = ce.bodyBuf.Instrs[:0]
		ce.bodyBuf.pos = 0
		loop.BodyInto(iter, &ce.bodyBuf)
		ce.stream = &ce.bodyBuf
		return
	}
	ce.stream = loop.Body(iter)
}

// hardReset returns the CE to its just-constructed state — idle, no
// statistics, instruction cache invalid — while keeping the
// allocations that survive a session: the icache arrays and the
// loop-body buffer's backing array.
func (ce *CE) hardReset() {
	id, ic, body := ce.id, ce.icache, ce.bodyBuf.Instrs[:0]
	*ce = CE{id: id, icache: ic}
	ce.bodyBuf.Instrs = body
	ic.reset()
}
