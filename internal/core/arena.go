package core

import (
	"slices"
	"sync"

	"repro/internal/concentrix"
	"repro/internal/fx8"
	"repro/internal/monitor"
	"repro/internal/workload"
)

// SessionArena is the reusable per-worker simulator state for one
// measurement session: a cluster, the OS over it, the analyzer
// controller and the workload generator.  Booting a session through
// an arena Reset()s those four in place instead of reallocating them,
// which removes the ~450 KB / ~1100 heap allocations a fresh boot
// costs — the allocator and GC traffic that serialized otherwise
// independent session workers and flattened RunStudy's parallel
// speedup.
//
// An arena is NOT safe for concurrent use: it is one worker's
// scratch.  Workers obtain private arenas from the process-wide pool
// (RunRandomSession and friends do this automatically) or hold one of
// their own.  Reuse is exact by construction — a session run in a
// dirty arena is bit-identical to the same session run on freshly
// allocated state — and the reuse tests in arena_test.go pin that
// equivalence end to end.
type SessionArena struct {
	cfg fx8.Config
	cl  *fx8.Cluster
	sys *concentrix.System
	ctl *monitor.Controller
	gen *workload.Generator
}

// NewSessionArena returns an empty arena; the first Boot populates it.
func NewSessionArena() *SessionArena { return &SessionArena{} }

// comparableConfig is fx8.Config with the slice fields projected out,
// so sameHardware can compare the scalar remainder with ==.  scalars
// is a manual copy, so a field added to fx8.Config must be mirrored
// here by hand; TestComparableConfigCoversConfig fails the build of a
// PR that forgets, which is what keeps sameHardware from silently
// treating two different machines as identical.
type comparableConfig struct {
	NumCE, NumIP                                 int
	LineBytes, ICacheBytes                       int
	SharedCacheBytes, SharedModules, SharedWays  int
	LookupsPerModule, MemBuses                   int
	FillCycles, WriteBackCycles, MissExtraCycles int
	PageBytes, VectorLaneBytes, CStartCycles     int
	IPActivity, IPInvalidate                     int
}

func scalars(c fx8.Config) comparableConfig {
	return comparableConfig{
		NumCE: c.NumCE, NumIP: c.NumIP,
		LineBytes: c.LineBytes, ICacheBytes: c.ICacheBytes,
		SharedCacheBytes: c.SharedCacheBytes, SharedModules: c.SharedModules, SharedWays: c.SharedWays,
		LookupsPerModule: c.LookupsPerModule, MemBuses: c.MemBuses,
		FillCycles: c.FillCycles, WriteBackCycles: c.WriteBackCycles, MissExtraCycles: c.MissExtraCycles,
		PageBytes: c.PageBytes, VectorLaneBytes: c.VectorLaneBytes, CStartCycles: c.CStartCycles,
		IPActivity: c.IPActivity, IPInvalidate: c.IPInvalidate,
	}
}

// sameHardware reports whether two cluster configurations describe
// the same machine, ignoring the seed (which Reset replaces).
func sameHardware(a, b fx8.Config) bool {
	return scalars(a) == scalars(b) &&
		slices.Equal(a.ArbBias, b.ArbBias) &&
		slices.Equal(a.CCBDispatchExtra, b.CCBDispatchExtra)
}

// Boot prepares the arena's machine for one session: a cluster built
// from cfg (seeded by the profile), an OS configured by sysCfg, and
// the profile's job list covering span cycles.  When the arena
// already holds a machine with the same hardware configuration it is
// reset in place; otherwise a new one is allocated.  The returned
// system is the arena's — valid until the next Boot.
func (a *SessionArena) Boot(cfg fx8.Config, sysCfg concentrix.SysConfig, profile workload.Profile, span uint64) *concentrix.System {
	cfg.Seed = profile.Seed
	if a.cl == nil || !sameHardware(a.cfg, cfg) {
		// Construct before mutating the arena: fx8.New panics on an
		// invalid configuration, and a panicking Boot must leave the
		// arena coherent — its deferred release returns it to the
		// shared pool, where a half-updated cfg would make a later
		// sameHardware check reuse the wrong machine.
		cl := fx8.New(cfg)
		a.cfg = cfg
		a.cl = cl
		a.sys = concentrix.NewSystem(cl, sysCfg)
		a.ctl = monitor.NewController(a.sys)
		a.gen = workload.NewGenerator(profile)
	} else {
		a.cfg.Seed = cfg.Seed
		a.cl.Reset(cfg.Seed)
		a.sys.Reset(sysCfg)
		a.ctl.Reset(a.sys)
		a.gen.Reset(profile)
	}
	for _, p := range a.gen.Session(span) {
		a.sys.Submit(p)
	}
	return a.sys
}

// RunRandomSession performs one random-sampling session in the arena.
func (a *SessionArena) RunRandomSession(id int, spec SessionSpec) *Session {
	span := spec.WorkloadCycles
	if span == 0 {
		span = spec.span()
	}
	a.Boot(fx8.DefaultConfig(), concentrix.DefaultSysConfig(), workload.PaperMix(spec.Seed), span)
	return sampleWith(a.ctl, id, spec)
}

// RunTriggeredSession performs one triggered session in the arena.
func (a *SessionArena) RunTriggeredSession(id int, spec TriggeredSpec) *TriggeredSession {
	a.Boot(fx8.DefaultConfig(), concentrix.DefaultSysConfig(), workload.PaperMix(spec.Seed), spec.WorkloadCycles)
	return triggerWith(a.ctl, id, spec)
}

// RunCustomSession measures one random-sampling session on an
// arbitrary machine and OS configuration under the PaperMix workload
// — the parameter-sweep entry point.  The workload span follows
// spec.WorkloadCycles (or the sampling span when zero).
func (a *SessionArena) RunCustomSession(cfg fx8.Config, sysCfg concentrix.SysConfig, id int, spec SessionSpec) *Session {
	span := spec.WorkloadCycles
	if span == 0 {
		span = spec.span()
	}
	a.Boot(cfg, sysCfg, workload.PaperMix(spec.Seed), span)
	return sampleWith(a.ctl, id, spec)
}

// RunStudyUnit executes one campaign work unit in the arena.
func (a *SessionArena) RunStudyUnit(u StudyUnit) (StudyUnitResult, error) {
	switch {
	case u.Random != nil:
		return StudyUnitResult{Random: a.RunRandomSession(u.ID, *u.Random)}, nil
	case u.Triggered != nil:
		return StudyUnitResult{Triggered: a.RunTriggeredSession(u.ID, *u.Triggered)}, nil
	}
	return RunStudyUnit(u) // shared spec-less-unit error path
}

// arenaPool shares warm arenas across every session entry point in
// the process.  sync.Pool keeps per-P caches, so under a worker pool
// each goroutine effectively holds a private arena with no
// cross-worker synchronization on the session hot path.
var arenaPool = sync.Pool{New: func() any { return NewSessionArena() }}

func acquireArena() *SessionArena  { return arenaPool.Get().(*SessionArena) }
func releaseArena(a *SessionArena) { arenaPool.Put(a) }

// RunCustomSession is SessionArena.RunCustomSession on a pooled
// arena: the session runs on reused simulator state when a warm arena
// with the same hardware configuration is available, and on a fresh
// one otherwise — bit-identically either way.
func RunCustomSession(cfg fx8.Config, sysCfg concentrix.SysConfig, id int, spec SessionSpec) *Session {
	a := acquireArena()
	defer releaseArena(a)
	return a.RunCustomSession(cfg, sysCfg, id, spec)
}
