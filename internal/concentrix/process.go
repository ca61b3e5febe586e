package concentrix

import (
	"repro/internal/fx8"
	"repro/internal/trace"
)

// Process is a Concentrix cluster job: a serial instruction stream
// (whose position persists across preemption), the cluster resource
// class it requested, and its private address space.
type Process struct {
	PID  int
	Name string

	// ClusterSize is the Concentrix resource class: the job runs on
	// the cluster with this many CEs (1 = detached serial execution).
	ClusterSize int

	// Serial is the job's serial thread; concurrent loops fan out
	// from OpCStart instructions within it.
	Serial fx8.Stream

	// Arrival is the cycle at which the job becomes runnable.
	Arrival uint64

	// Space is the job's demand-paged address space.
	Space *AddressSpace

	// Accounting.
	Started   bool
	Done      bool
	StartedAt uint64
	DoneAt    uint64

	// CPUCycles counts cycles the job held the cluster; WaitCycles
	// counts cycles it spent runnable but not running.  Together with
	// arrival and completion they characterize the job's treatment by
	// the scheduler — the software-level parameters the study's
	// conclusion points at.
	CPUCycles  uint64
	WaitCycles uint64

	// waitFrom stamps the cycle the process last entered the run
	// queue; dispatch credits the elapsed wait to WaitCycles.
	waitFrom uint64
}

// Turnaround returns the job's total time in system, or 0 before
// completion.
func (p *Process) Turnaround() uint64 {
	if !p.Done {
		return 0
	}
	return p.DoneAt - p.Arrival
}

// Kernel holds the continuously-logged operating system counters that
// the study's software instrumentation extracted — most importantly
// the CE page fault counts (user and system mode).
type Kernel struct {
	// PageFaultsUser counts faults taken by CE data references;
	// PageFaultsSystem counts faults charged to the kernel (process
	// loading and pager housekeeping).
	PageFaultsUser   uint64
	PageFaultsSystem uint64

	// ContextSwitches counts cluster process switches; JobsCompleted
	// counts finished jobs.
	ContextSwitches uint64
	JobsCompleted   uint64
}

// PageFaults returns the total CE page faults, the measure recorded by
// the study.
func (k *Kernel) PageFaults() uint64 {
	return k.PageFaultsUser + k.PageFaultsSystem
}

// VM adapts the scheduler's current process to the cluster's MMU
// hook: each cache lookup touches the process's address space, and a
// nonresident page stalls the CE for the fault service time while the
// kernel counter advances.
type VM struct {
	pageShift   uint // page size is a property of the mounted cluster; fxlint:keep
	faultCycles int
	kernel      *Kernel // wiring to the owning system's counters; fxlint:keep
	current     *Process

	// last[ce] memoizes the resident page CE ce touched last, valid
	// while bit ce of lastOK is set: touching a resident page mutates
	// nothing in the address space, so the run of references each CE
	// makes within one page (vector streams, hot code) skips the
	// residency map entirely, even with eight CEs streaming different
	// arrays.  Residency can only change on a fault or a process
	// switch, and both clear every memo.
	last   [trace.NumCE]uint32 // meaningless while its lastOK bit is clear, which Reset clears; fxlint:keep
	lastOK uint8
}

// NewVM builds the virtual memory hook.  pageBytes must be a power of
// two; faultCycles is the CE stall per fault.
func NewVM(pageBytes, faultCycles int, kernel *Kernel) *VM {
	shift := uint(0)
	for 1<<shift < pageBytes {
		shift++
	}
	return &VM{pageShift: shift, faultCycles: faultCycles, kernel: kernel}
}

// SetCurrent switches the address space accesses resolve against.
func (v *VM) SetCurrent(p *Process) {
	v.current = p
	v.lastOK = 0
}

// Reset detaches the hook from any process, clears the residency memo
// and installs a (possibly new) fault service time.  The page size —
// a property of the cluster the hook is mounted on — is kept.
func (v *VM) Reset(faultCycles int) {
	v.current = nil
	v.lastOK = 0
	v.faultCycles = faultCycles
}

// Touch implements fx8.MMU.
func (v *VM) Touch(ce int, addr uint32) int {
	if v.current == nil || v.current.Space == nil {
		return 0
	}
	page := addr >> v.pageShift
	bit := uint8(1) << ce
	if v.lastOK&bit != 0 && page == v.last[ce] {
		return 0
	}
	v.last[ce] = page
	if v.current.Space.Touch(page) {
		v.kernel.PageFaultsUser++
		// The fault may have evicted any resident page; only the
		// page just brought in is known resident now.
		v.lastOK = bit
		return v.faultCycles
	}
	v.lastOK |= bit
	return 0
}
