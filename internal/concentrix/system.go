package concentrix

import (
	"sort"

	"repro/internal/fx8"
)

// SysConfig parameterizes the operating system layer.
type SysConfig struct {
	// TimeSlice is the scheduling quantum in cycles.  A running job
	// is preempted at the first serial point after its slice expires
	// (cluster jobs are never descheduled inside a concurrent loop).
	TimeSlice int

	// FaultCycles is the CE stall per page fault.
	FaultCycles int

	// ResidentLimit is the per-process resident set limit in pages.
	ResidentLimit int

	// LoadFaults is the number of system-mode faults charged when a
	// process is first scheduled (code and stack load).
	LoadFaults int
}

// DefaultSysConfig returns the configuration used by the measurement
// experiments.
func DefaultSysConfig() SysConfig {
	return SysConfig{
		TimeSlice:     300000,
		FaultCycles:   800,
		ResidentLimit: 512,
		LoadFaults:    8,
	}
}

// System assembles the cluster and the operating system: a run queue
// of cluster jobs, future arrivals, the VM hook and kernel counters.
// Step advances the machine one cycle under OS control; Advance and
// StepN jump the spans in which neither the scheduler nor any CE acts.
type System struct {
	// The cluster is owned by the caller, which resets it (with the
	// session seed) before resetting the system over it.
	Cluster *fx8.Cluster // fxlint:keep
	Kernel  *Kernel
	VM      *VM

	cfg     SysConfig
	pending []*Process // sorted by arrival
	runq    []*Process
	current *Process

	sliceLeft int

	// IdleCycles counts cycles with no cluster job installed.
	IdleCycles uint64
}

// NewSystem boots an OS over the given cluster.
func NewSystem(cl *fx8.Cluster, cfg SysConfig) *System {
	k := &Kernel{}
	vm := NewVM(cl.Config().PageBytes, cfg.FaultCycles, k)
	cl.SetMMU(vm)
	return &System{Cluster: cl, Kernel: k, VM: vm, cfg: cfg}
}

// Reset returns the system to the state NewSystem would produce over
// the same (already reset) cluster, reusing the queue arrays, the
// kernel and the VM hook.  cfg replaces the scheduling configuration,
// so one reused system can serve sweep points that vary OS parameters.
// Submitted and running jobs are dropped; kernel counters and the VM
// residency memo are cleared.
func (s *System) Reset(cfg SysConfig) {
	s.cfg = cfg
	s.pending = s.pending[:0]
	s.runq = s.runq[:0]
	s.current = nil
	s.sliceLeft = 0
	s.IdleCycles = 0
	*s.Kernel = Kernel{}
	s.VM.Reset(cfg.FaultCycles)
}

// Submit queues a job for execution at its arrival time.  Jobs without
// an address space get one at the configured resident limit.
func (s *System) Submit(p *Process) {
	if p.Space == nil {
		p.Space = NewAddressSpace(s.cfg.ResidentLimit)
	}
	s.pending = append(s.pending, p)
	sort.SliceStable(s.pending, func(i, j int) bool {
		return s.pending[i].Arrival < s.pending[j].Arrival
	})
}

// Step runs the scheduler and advances the cluster one cycle.
func (s *System) Step() { s.Advance(1) }

// Advance runs the scheduler, then executes at least one and at most
// max cycles and returns how many.  It jumps only cycles on which the
// scheduler would do nothing: before the next arrival, before the
// running job's slice expires while others wait, and before the
// cluster's next CE step (which alone can finish the job or end the
// concurrent loop blocking a preemption).  Run queue waiting is
// accounted lazily: enqueue stamps the cycle and dispatch credits the
// difference, so the per-cycle path never walks the queue (the totals
// are identical to per-cycle increments).
func (s *System) Advance(max int) int {
	s.schedule()
	if len(s.pending) > 0 {
		if d := s.pending[0].Arrival - s.Cluster.Cycle(); d < uint64(max) {
			max = int(d) //fxlint:allow truncation — d < max, an int
		}
	}
	if s.current != nil && len(s.runq) > 0 && s.sliceLeft > 0 {
		max = min(max, s.sliceLeft)
	}
	n := s.Cluster.Advance(max)
	if s.current == nil {
		s.IdleCycles += uint64(n)
	} else {
		s.current.CPUCycles += uint64(n)
		s.sliceLeft -= min(n, s.sliceLeft)
	}
	return n
}

// StepN executes n cycles.
func (s *System) StepN(n int) {
	for n > 0 {
		n -= s.Advance(n)
	}
}

// schedule admits arrivals, reaps the finished job, rotates on slice
// expiry, and dispatches the head of the run queue.
func (s *System) schedule() {
	now := s.Cluster.Cycle()
	for len(s.pending) > 0 && s.pending[0].Arrival <= now {
		s.pending[0].waitFrom = now
		s.runq = append(s.runq, s.pending[0])
		s.pending = s.pending[1:]
	}

	if s.current != nil && s.Cluster.Idle() {
		// Serial stream exhausted: the job finished.
		s.current.Done = true
		s.current.DoneAt = now
		s.current = nil
		s.Kernel.JobsCompleted++
	}

	if s.current != nil && s.sliceLeft == 0 && len(s.runq) > 0 {
		// Quantum expired and another job waits: preempt at the next
		// serial point.
		if stream, ok := s.Cluster.Preempt(); ok {
			s.current.Serial = stream
			s.current.waitFrom = now
			s.runq = append(s.runq, s.current)
			s.current = nil
			s.Kernel.ContextSwitches++
		}
	}

	if s.current == nil && len(s.runq) > 0 {
		p := s.runq[0]
		s.runq = s.runq[1:]
		p.WaitCycles += now - p.waitFrom
		s.dispatch(p, now)
	}
}

func (s *System) dispatch(p *Process, now uint64) {
	if !p.Started {
		p.Started = true
		p.StartedAt = now
		s.Kernel.PageFaultsSystem += uint64(s.cfg.LoadFaults)
	}
	s.VM.SetCurrent(p)
	if err := s.Cluster.Run(p.Serial, p.ClusterSize); err != nil {
		// Should be impossible: dispatch only runs on an idle
		// cluster.
		panic(err)
	}
	s.current = p
	s.sliceLeft = s.cfg.TimeSlice
}

// Current returns the running job, or nil when the cluster is idle.
func (s *System) Current() *Process { return s.current }

// QueueLen returns the number of runnable (not running) jobs.
func (s *System) QueueLen() int { return len(s.runq) }

// PendingLen returns the number of jobs not yet arrived.
func (s *System) PendingLen() int { return len(s.pending) }

// Drained reports whether every submitted job has completed.
func (s *System) Drained() bool {
	return s.current == nil && len(s.runq) == 0 && len(s.pending) == 0
}
