package core

import (
	"repro/internal/concentrix"
	"repro/internal/fx8"
	"repro/internal/monitor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SessionSpec configures one measurement session.
type SessionSpec struct {
	// Samples is the number of workload samples to take (the study's
	// sessions spanned 4-8 hours at one sample per five minutes).
	Samples int

	// Sampling configures the per-sample acquisition.
	Sampling monitor.SampleSpec

	// Seed selects the session's workload (a different production
	// day on the measured machine).
	Seed uint64

	// WorkloadCycles is the machine time the generated job list
	// should cover; it defaults to the session's sampling span.
	WorkloadCycles uint64
}

// DefaultSessionSpec returns the scaled equivalent of one measurement
// session.
func DefaultSessionSpec(seed uint64) SessionSpec {
	return SessionSpec{
		Samples:  50,
		Sampling: monitor.SampleSpec{Snapshots: 5, GapCycles: 30_000},
		Seed:     seed,
	}
}

// span returns the machine cycles a session will consume.
func (s SessionSpec) span() uint64 {
	per := uint64(s.Sampling.Snapshots) * uint64(s.Sampling.GapCycles+monitor.BufferDepth)
	return uint64(s.Samples) * per
}

// Session is the result of one random-sampling measurement session.
type Session struct {
	ID       int
	Samples  []monitor.Sample
	Measures []SampleMeasures

	// Total is the sum of all hardware event counts in the session.
	Total monitor.EventCounts

	// TotalFaults is the kernel page-fault total over the session.
	TotalFaults uint64
}

// NewSystem boots a fresh machine loaded with a session's workload.
// Each measurement session ran on a different day: a new system with a
// seed-specific job mix.
func NewSystem(profile workload.Profile, span uint64) *concentrix.System {
	cfg := fx8.DefaultConfig()
	cfg.Seed = profile.Seed
	cl := fx8.New(cfg)
	sys := concentrix.NewSystem(cl, concentrix.DefaultSysConfig())
	gen := workload.NewGenerator(profile)
	for _, p := range gen.Session(span) {
		sys.Submit(p)
	}
	return sys
}

// RunRandomSession performs one random-sampling session: a
// freshly-reset machine under the PaperMix workload, sampled
// spec.Samples times.  The machine comes from the process-wide arena
// pool, so after warm-up the session boots without heap allocation;
// the result is bit-identical to a session on a newly allocated
// machine.
func RunRandomSession(id int, spec SessionSpec) *Session {
	a := acquireArena()
	defer releaseArena(a)
	return a.RunRandomSession(id, spec)
}

// SampleSystem runs the sampling schedule of spec against an existing
// system (exported so callers can measure custom workloads).
func SampleSystem(sys *concentrix.System, id int, spec SessionSpec) *Session {
	return sampleWith(monitor.NewController(sys), id, spec)
}

// sampleWith is SampleSystem on a caller-owned (possibly reused)
// controller.
func sampleWith(ctl *monitor.Controller, id int, spec SessionSpec) *Session {
	sys := ctl.Sys
	ses := &Session{ID: id}
	faults0 := sys.Kernel.PageFaults()
	for i := 0; i < spec.Samples; i++ {
		s := ctl.CollectSample(spec.Sampling)
		ses.Samples = append(ses.Samples, s)
		ses.Total.Add(s.Counts)
	}
	ses.Measures = MeasureSamples(ses.Samples)
	ses.TotalFaults = sys.Kernel.PageFaults() - faults0
	return ses
}

// TriggeredSpec configures a triggered measurement session.
type TriggeredSpec struct {
	// Mode is the trigger condition (all-8 or transition).
	Mode monitor.TriggerMode

	// Samples is the number of grouped samples; each groups Buffers
	// triggered acquisitions (5 in the study's grouping).
	Samples int
	Buffers int

	// BudgetCycles bounds the wait for each trigger.
	BudgetCycles int

	// Seed selects the workload.
	Seed uint64

	// WorkloadCycles sizes the generated job list.
	WorkloadCycles uint64
}

// DefaultTriggeredSpec returns the scaled equivalent of one triggered
// session.
func DefaultTriggeredSpec(mode monitor.TriggerMode, seed uint64) TriggeredSpec {
	return TriggeredSpec{
		Mode:           mode,
		Samples:        20,
		Buffers:        5,
		BudgetCycles:   400_000,
		Seed:           seed,
		WorkloadCycles: 4_000_000,
	}
}

// TriggeredSession is the result of one triggered measurement session:
// the raw buffers (for record-level transition analysis) and grouped
// sample measures (for the chapter 5 high-concurrency scatter).
type TriggeredSession struct {
	ID      int
	Mode    monitor.TriggerMode
	Buffers []trace.Buffer
	Samples []monitor.Sample

	// Measures are the grouped sample measures.
	Measures []SampleMeasures

	// Total sums all acquired buffers.
	Total monitor.EventCounts

	// Timeouts counts acquisitions that never triggered within
	// budget.
	Timeouts int
}

// RunTriggeredSession performs one triggered session on a
// freshly-reset pooled machine (see RunRandomSession for the reuse
// contract).
func RunTriggeredSession(id int, spec TriggeredSpec) *TriggeredSession {
	a := acquireArena()
	defer releaseArena(a)
	return a.RunTriggeredSession(id, spec)
}

// TriggerSystem runs a triggered acquisition schedule against an
// existing system.
func TriggerSystem(sys *concentrix.System, id int, spec TriggeredSpec) *TriggeredSession {
	return triggerWith(monitor.NewController(sys), id, spec)
}

// triggerWith is TriggerSystem on a caller-owned (possibly reused)
// controller.
func triggerWith(ctl *monitor.Controller, id int, spec TriggeredSpec) *TriggeredSession {
	sys := ctl.Sys
	ts := &TriggeredSession{ID: id, Mode: spec.Mode}
	for s := 0; s < spec.Samples; s++ {
		var sample monitor.Sample
		sample.StartCycle = sys.Cluster.Cycle()
		faults0 := sys.Kernel.PageFaults()
		got := 0
		for b := 0; b < spec.Buffers; b++ {
			recs, ok := ctl.AcquireBuffer(spec.Mode, spec.BudgetCycles)
			if !ok {
				ts.Timeouts++
				continue
			}
			got++
			ts.Buffers = append(ts.Buffers, recs)
			counts := monitor.Reduce(recs)
			sample.Counts.Add(counts)
			ts.Total.Add(counts)
		}
		sample.EndCycle = sys.Cluster.Cycle()
		sample.PageFaults = sys.Kernel.PageFaults() - faults0
		sample.Complete = got == spec.Buffers
		if got > 0 {
			ts.Samples = append(ts.Samples, sample)
		}
	}
	ts.Measures = MeasureSamples(ts.Samples)
	return ts
}
