package main

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/concentrix"
	"repro/internal/core"
	"repro/internal/fx8"
	"repro/internal/monitor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// simCounts are the simulated statistics a traced campaign gathers
// from the machines it drives.
type simCounts struct {
	cycles    uint64 // cluster cycles over every session
	observed  uint64 // cycles the analyzer spent recording
	wait      uint64 // cycles spent armed, waiting for a trigger
	gap       uint64 // cycles stepped between snapshots
	timeouts  uint64 // triggered acquisitions that never fired
	jobs      uint64 // jobs the workload generator submitted
	switches  uint64
	faults    uint64
	idle      uint64
	completed uint64
}

func (c *simCounts) add(o simCounts) {
	c.cycles += o.cycles
	c.observed += o.observed
	c.wait += o.wait
	c.gap += o.gap
	c.timeouts += o.timeouts
	c.jobs += o.jobs
	c.switches += o.switches
	c.faults += o.faults
	c.idle += o.idle
	c.completed += o.completed
}

// tracedRunner is a core.StudyRunner that executes each session unit
// through public functions only — SessionArena.Boot, a
// monitor.Controller's Acquire/AcquireBuffer for observed cycles,
// concentrix.System.StepN for the gaps between snapshots, then
// core.MeasureSamples and monitor.Reduce — with a span around each
// call.  It mirrors core's own session loops step for step, so the
// study it yields encodes to the same bytes as the untraced run's;
// the benchmark checks that on every traced pass.
type tracedRunner struct {
	tr     *tracer
	parent span
	arenas sync.Pool

	mu     sync.Mutex
	counts simCounts
}

// RunUnit implements core.StudyRunner.
func (r *tracedRunner) RunUnit(_ context.Context, u core.StudyUnit) (core.StudyUnitResult, error) {
	a, _ := r.arenas.Get().(*core.SessionArena)
	if a == nil {
		a = core.NewSessionArena()
	}
	defer r.arenas.Put(a)

	var c simCounts
	var res core.StudyUnitResult
	switch {
	case u.Random != nil:
		us := r.tr.start("engine.unit.random", r.parent)
		res.Random = r.random(a, us, u.ID, *u.Random, &c)
		r.tr.end(us)
	case u.Triggered != nil:
		kind := "engine.unit.all8"
		if u.Triggered.Mode == monitor.TriggerTransition {
			kind = "engine.unit.transition"
		}
		us := r.tr.start(kind, r.parent)
		res.Triggered = r.triggered(a, us, u.ID, *u.Triggered, &c)
		r.tr.end(us)
	default:
		return res, fmt.Errorf("study unit %d has no spec", u.ID)
	}
	r.mu.Lock()
	r.counts.add(c)
	r.mu.Unlock()
	return res, nil
}

// boot loads a fresh session's machine through the arena.
func (r *tracedRunner) boot(a *core.SessionArena, parent span, seed, cycles uint64, c *simCounts) *concentrix.System {
	sp := r.tr.start("core.boot", parent)
	sys := a.Boot(fx8.DefaultConfig(), concentrix.DefaultSysConfig(), workload.PaperMix(seed), cycles)
	r.tr.end(sp)
	c.jobs += uint64(sys.PendingLen() + sys.QueueLen())
	return sys
}

// finish books the session's machine totals.
func finish(sys *concentrix.System, c *simCounts) {
	c.cycles += sys.Cluster.Cycle()
	c.switches += sys.Kernel.ContextSwitches
	c.faults += sys.Kernel.PageFaults()
	c.idle += sys.IdleCycles
	c.completed += sys.Kernel.JobsCompleted
}

// acquire arms the analyzer and books the cycles it ran: the
// buffer's span as observed, anything beyond it as trigger wait.
func (r *tracedRunner) acquire(ctl *monitor.Controller, parent span, c *simCounts, run func() bool) bool {
	c0 := ctl.Sys.Cluster.Cycle()
	sp := r.tr.start("monitor.acquire", parent)
	ok := run()
	r.tr.end(sp)
	d := ctl.Sys.Cluster.Cycle() - c0
	if !ok {
		c.wait += d
		c.timeouts++
		return false
	}
	obs := min(d, uint64(ctl.DAS.Span()))
	c.observed += obs
	c.wait += d - obs
	return true
}

// random mirrors core's random-sampling session.
func (r *tracedRunner) random(a *core.SessionArena, parent span, id int, spec core.SessionSpec, c *simCounts) *core.Session {
	cycles := spec.WorkloadCycles
	if cycles == 0 {
		per := uint64(spec.Sampling.Snapshots) * uint64(spec.Sampling.GapCycles+monitor.BufferDepth)
		cycles = uint64(spec.Samples) * per
	}
	sys := r.boot(a, parent, spec.Seed, cycles, c)
	ctl := monitor.NewController(sys)
	ses := &core.Session{ID: id}
	faults0 := sys.Kernel.PageFaults()
	for i := 0; i < spec.Samples; i++ {
		s := monitor.Sample{StartCycle: sys.Cluster.Cycle(), Complete: true}
		before := sys.Kernel.PageFaults()
		for k := 0; k < spec.Sampling.Snapshots; k++ {
			var counts monitor.EventCounts
			ok := r.acquire(ctl, parent, c, func() (ok bool) {
				counts, ok = ctl.Acquire(monitor.TriggerImmediate, spec.Sampling.GapCycles+ctl.DAS.Span())
				return ok
			})
			if !ok {
				s.Complete = false
			}
			s.Counts.Add(counts)
			sp := r.tr.start("concentrix.gap", parent)
			sys.StepN(spec.Sampling.GapCycles)
			r.tr.end(sp)
			c.gap += uint64(spec.Sampling.GapCycles)
		}
		s.EndCycle = sys.Cluster.Cycle()
		s.PageFaults = sys.Kernel.PageFaults() - before
		ses.Samples = append(ses.Samples, s)
		ses.Total.Add(s.Counts)
	}
	sp := r.tr.start("core.MeasureSamples", parent)
	ses.Measures = core.MeasureSamples(ses.Samples)
	r.tr.end(sp)
	ses.TotalFaults = sys.Kernel.PageFaults() - faults0
	finish(sys, c)
	return ses
}

// triggered mirrors core's triggered session.
func (r *tracedRunner) triggered(a *core.SessionArena, parent span, id int, spec core.TriggeredSpec, c *simCounts) *core.TriggeredSession {
	sys := r.boot(a, parent, spec.Seed, spec.WorkloadCycles, c)
	ctl := monitor.NewController(sys)
	ts := &core.TriggeredSession{ID: id, Mode: spec.Mode}
	for s := 0; s < spec.Samples; s++ {
		var sample monitor.Sample
		sample.StartCycle = sys.Cluster.Cycle()
		faults0 := sys.Kernel.PageFaults()
		got := 0
		for b := 0; b < spec.Buffers; b++ {
			var recs []trace.Record
			ok := r.acquire(ctl, parent, c, func() (ok bool) {
				recs, ok = ctl.AcquireBuffer(spec.Mode, spec.BudgetCycles)
				return ok
			})
			if !ok {
				ts.Timeouts++
				continue
			}
			got++
			ts.Buffers = append(ts.Buffers, recs)
			sp := r.tr.start("monitor.Reduce", parent)
			counts := monitor.Reduce(recs)
			r.tr.end(sp)
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
	sp := r.tr.start("core.MeasureSamples", parent)
	ts.Measures = core.MeasureSamples(ts.Samples)
	r.tr.end(sp)
	finish(sys, c)
	return ts
}
