package monitor

import (
	"repro/internal/concentrix"
	"repro/internal/trace"
)

// Controller is the measurement control program of section 3.4: it
// configures the analyzer, arms its trigger, steps the machine while
// the analyzer observes, transfers buffers, reduces them to event
// counts, and reads the kernel's software counters alongside.
type Controller struct {
	Sys *concentrix.System
	DAS *DAS
}

// NewController attaches a fresh analyzer to a system.
func NewController(sys *concentrix.System) *Controller {
	return &Controller{Sys: sys, DAS: NewDAS()}
}

// Reset re-attaches the controller (and its analyzer, cleared in
// place) to a system, so a session arena reuses one instrument per
// worker instead of allocating a controller and analyzer per session.
func (c *Controller) Reset(sys *concentrix.System) {
	c.Sys = sys
	c.DAS.Reset()
}

// Acquire arms the analyzer in the given mode and steps the system
// until the buffer fills or maxCycles elapse.  It returns the reduced
// event counts and whether the acquisition completed (a triggered
// acquisition may time out if the trigger condition never occurs).
func (c *Controller) Acquire(mode TriggerMode, maxCycles int) (EventCounts, bool) {
	if !c.run(mode, maxCycles) {
		// Timed out; discard the partial buffer.
		return EventCounts{}, false
	}
	return c.DAS.ReduceBuffer(), true
}

// run arms the analyzer and steps the machine until the buffer fills
// or maxCycles elapse, reporting completion.  The analyzer observes
// through the probe fast path, so the machine only pays for a full
// signal snapshot on the cycles the instrument stores a record.
//
// While the trigger comparator waits, the machine advances in jumps.
// In a jump of more than one cycle the scheduler dispatched nothing
// and no CE stepped, so every cycle of it has the activity count the
// comparator saw last, and a trigger can only fire on the first cycle
// of a constant-activity span.  Recording proceeds one cycle at a
// time.
func (c *Controller) run(mode TriggerMode, maxCycles int) bool {
	c.DAS.Arm(mode)
	for i := 0; i < maxCycles && c.DAS.Armed(); {
		if c.DAS.waiting() {
			n := c.Sys.Advance(maxCycles - i)
			i += n
			if n == 1 {
				c.DAS.ObserveProbe(c.Sys.Cluster)
			}
			continue
		}
		c.Sys.Step()
		c.DAS.ObserveProbe(c.Sys.Cluster)
		i++
	}
	return !c.DAS.Armed()
}

// AcquireBuffer is Acquire returning the raw record buffer instead of
// reduced counts, for record-level analyses such as the transition
// study.
func (c *Controller) AcquireBuffer(mode TriggerMode, maxCycles int) ([]trace.Record, bool) {
	if !c.run(mode, maxCycles) {
		return nil, false
	}
	return c.DAS.Transfer(), true
}

// Sample is one workload sample: the study grouped five snapshots in a
// five-minute interval together with the kernel counters read at
// store time.
type Sample struct {
	Counts     EventCounts
	PageFaults uint64 // kernel page-fault delta over the interval
	StartCycle uint64
	EndCycle   uint64
	Complete   bool // all snapshots acquired
}

// SampleSpec configures workload sampling.
type SampleSpec struct {
	// Snapshots per sample (5 in the study).
	Snapshots int

	// GapCycles is the machine time between snapshot acquisitions,
	// so a sample spans roughly Snapshots*(GapCycles+BufferDepth)
	// cycles — the study's five-minute interval.
	GapCycles int
}

// DefaultSampleSpec returns the study's sampling configuration scaled
// to simulator time: five snapshots spread over the sampling interval.
func DefaultSampleSpec() SampleSpec {
	return SampleSpec{Snapshots: 5, GapCycles: 40_000}
}

// CollectSample performs one workload sample: Snapshots immediate
// acquisitions spaced GapCycles apart, reduced and summed, with the
// kernel page-fault counters read before and after.
func (c *Controller) CollectSample(spec SampleSpec) Sample {
	s := Sample{
		StartCycle: c.Sys.Cluster.Cycle(),
		PageFaults: 0,
		Complete:   true,
	}
	faultsBefore := c.Sys.Kernel.PageFaults()
	for i := 0; i < spec.Snapshots; i++ {
		counts, ok := c.Acquire(TriggerImmediate, spec.GapCycles+c.DAS.Span())
		if !ok {
			s.Complete = false
		}
		s.Counts.Add(counts)
		// Let the workload advance between snapshots.
		c.Sys.StepN(spec.GapCycles)
	}
	s.EndCycle = c.Sys.Cluster.Cycle()
	s.PageFaults = c.Sys.Kernel.PageFaults() - faultsBefore
	return s
}
