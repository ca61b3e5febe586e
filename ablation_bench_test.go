package repro

// Ablation benchmarks for the simulator's and workload's design
// choices: each toggles one mechanism of the simulator or workload and reports the
// resulting shift in the measure that mechanism is supposed to
// explain.  They double as evidence that the reproduced effects are
// caused by the modelled mechanisms rather than artefacts.

import (
	"testing"

	"repro/internal/concentrix"
	"repro/internal/core"
	"repro/internal/fx8"
	"repro/internal/monitor"
	"repro/internal/workload"
)

func paperMixProfile(seed uint64) workload.Profile {
	return workload.PaperMix(seed)
}

// transitionShare2 runs transition-triggered captures on a system with
// the given machine config and workload profile and returns the
// 2-active share plus the CE 0+7 share of per-processor transition
// activity.
func transitionShare2(cfg fx8.Config, prof workload.Profile, buffers int) (share2, ce07 float64) {
	cl := fx8.New(cfg)
	sys := concentrix.NewSystem(cl, concentrix.DefaultSysConfig())
	gen := workload.NewGenerator(prof)
	for _, p := range gen.Session(4_000_000) {
		sys.Submit(p)
	}
	ctl := monitor.NewController(sys)
	var stats core.TransitionStats
	for i := 0; i < buffers; i++ {
		recs, ok := ctl.AcquireBuffer(monitor.TriggerTransition, 400_000)
		if !ok {
			continue
		}
		for _, r := range recs {
			stats.AddRecord(r)
		}
	}
	var profTotal int
	for _, c := range stats.Prof {
		profTotal += c
	}
	if profTotal > 0 {
		ce07 = float64(stats.Prof[0]+stats.Prof[7]) / float64(profTotal)
	}
	return stats.TransitionShare(2), ce07
}

// BenchmarkAblation_LeftoverIterations compares transition shape with
// and without the trips ≡ 2 (mod 8) bias — the section 4.3 "leftover
// iterations" hypothesis.
func BenchmarkAblation_LeftoverIterations(b *testing.B) {
	var withBias, without float64
	for i := 0; i < b.N; i++ {
		withBias, without = 0, 0
		// Average over several sessions: a single session's handful
		// of buffers is dominated by whichever loops happened to end
		// in the capture windows.
		const sessions = 3
		for s := uint64(0); s < sessions; s++ {
			p := paperMixProfile(70 + s)
			p.LeftoverTwoProb = 1.0
			// Resident-only loops isolate the leftover mechanism
			// from streaming-induced desynchronization.
			p.StreamingProb = 0
			sh, _ := transitionShare2(fx8.DefaultConfig(), p, 16)
			withBias += sh / sessions
			p = paperMixProfile(70 + s)
			p.LeftoverTwoProb = 0.0
			p.StreamingProb = 0
			sh, _ = transitionShare2(fx8.DefaultConfig(), p, 16)
			without += sh / sessions
		}
	}
	b.ReportMetric(withBias, "share2/biased")
	b.ReportMetric(without, "share2/unbiased")
}

// BenchmarkAblation_CrossbarPriority compares the CE 0/7 dominance of
// transition activity with and without the machine's priority
// asymmetry (CCB dispatch chain + crossbar bias).
func BenchmarkAblation_CrossbarPriority(b *testing.B) {
	var withBias, without float64
	for i := 0; i < b.N; i++ {
		cfg := fx8.DefaultConfig()
		_, withBias = transitionShare2(cfg, paperMixProfile(78), 12)
		cfg.CCBDispatchExtra = nil
		cfg.ArbBias = nil
		_, without = transitionShare2(cfg, paperMixProfile(78), 12)
	}
	b.ReportMetric(withBias, "ce07/asymmetric")
	b.ReportMetric(without, "ce07/uniform")
}

// loopMissRate runs one 8-wide numeric job built from the profile and
// returns the miss-qualified fraction of CE bus cycles during its
// execution.
func loopMissRate(prof workload.Profile, seed uint64) float64 {
	cl := fx8.New(fx8.DefaultConfig())
	sys := concentrix.NewSystem(cl, concentrix.DefaultSysConfig())
	gen := workload.NewGenerator(prof)
	p, _ := gen.Job(workload.KindNumeric)
	sys.Submit(p)
	var counts monitor.EventCounts
	for i := 0; i < 2_000_000 && !sys.Drained(); i++ {
		sys.Step()
		counts.AddRecord(cl.Snapshot())
	}
	return counts.MissRate()
}

// BenchmarkAblation_DataIntensity compares concurrent-code miss rates
// between a fully streaming and a fully resident loop mix — the
// section 5.3 explanation for Missrate's Cw sensitivity.
func BenchmarkAblation_DataIntensity(b *testing.B) {
	var streaming, resident float64
	for i := 0; i < b.N; i++ {
		p := paperMixProfile(79)
		p.StreamingProb = 1.0
		streaming = loopMissRate(p, 79)
		p = paperMixProfile(79)
		p.StreamingProb = 0.0
		resident = loopMissRate(p, 79)
	}
	b.ReportMetric(streaming, "missrate/streaming")
	b.ReportMetric(resident, "missrate/resident")
}

// clusterMissRatio runs one shared-walk loop at the given cluster size
// and returns the shared-cache miss ratio — the cross-CE locality
// effect of section 5.1 predicts near-insensitivity to the processor
// count.
func clusterMissRatio(size int) float64 {
	cfg := fx8.DefaultConfig()
	cfg.NumIP = 0
	cl := fx8.New(cfg)
	loop := workload.NewLoop(workload.LoopParams{
		Trips:             128,
		ChunksMean:        4,
		VecLen:            32,
		ReuseBase:         0x100000,
		ReuseBytes:        64 << 10,
		FreshBase:         0x400000,
		FreshBytesPerIter: 512,
		VComputeCycles:    40,
		ScalarCycles:      16,
		CodeBase:          0x3000,
		Seed:              5,
	})
	serial := &fx8.SliceStream{Instrs: []fx8.Instr{workload.CStart(loop, 0)}}
	if err := cl.Run(serial, size); err != nil {
		panic(err)
	}
	for i := 0; i < 3_000_000 && !cl.Idle(); i++ {
		cl.Step()
	}
	return cl.Cache().MissRatio()
}

// BenchmarkAblation_CrossCELocality compares the cache miss ratio of
// the same loop run 2-wide and 8-wide: shared data locality across
// processors should keep the ratios close (Missrate ≁ Pc).
func BenchmarkAblation_CrossCELocality(b *testing.B) {
	var wide, narrow float64
	for i := 0; i < b.N; i++ {
		narrow = clusterMissRatio(2)
		wide = clusterMissRatio(8)
	}
	b.ReportMetric(narrow, "missratio/2CE")
	b.ReportMetric(wide, "missratio/8CE")
}

// depLoopBusBusy runs one dependence-synchronized loop and returns the
// CE bus busy fraction while it executes — dependence waiting uses the
// CCB, not the memory system, so bus activity flattens (section 5.3).
func depLoopBusBusy(dep int) float64 {
	cfg := fx8.DefaultConfig()
	cfg.NumIP = 0
	cl := fx8.New(cfg)
	loop := workload.NewLoop(workload.LoopParams{
		Trips:          128,
		Dep:            dep,
		ChunksMean:     4,
		VecLen:         32,
		ReuseBase:      0x100000,
		ReuseBytes:     64 << 10,
		VComputeCycles: 40,
		ScalarCycles:   16,
		CodeBase:       0x3000,
		Seed:           6,
	})
	serial := &fx8.SliceStream{Instrs: []fx8.Instr{workload.CStart(loop, 0)}}
	if err := cl.Run(serial, 8); err != nil {
		panic(err)
	}
	var counts monitor.EventCounts
	for i := 0; i < 3_000_000 && !cl.Idle(); i++ {
		cl.Step()
		counts.AddRecord(cl.Snapshot())
	}
	return counts.BusBusy()
}

// BenchmarkAblation_DependencyWaiting compares bus activity of the
// same loop with and without a tight loop-carried dependence.
func BenchmarkAblation_DependencyWaiting(b *testing.B) {
	var free, dep float64
	for i := 0; i < b.N; i++ {
		free = depLoopBusBusy(0)
		dep = depLoopBusBusy(3)
	}
	b.ReportMetric(free, "busbusy/independent")
	b.ReportMetric(dep, "busbusy/dep3")
}
