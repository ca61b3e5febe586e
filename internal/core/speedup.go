package core

import (
	"repro/internal/fx8"
)

// Speedup and Efficiency are the classical multiprocessor measures the
// study's background chapter defines (S = T1/Tp, E = S/P) and contrasts
// with its workload-level measures: they require running the same
// program at each cluster size, which is impossible for a production
// workload but natural in the simulator.  This implements the [12]-
// style speedup experiment the study cites, as a complement to the
// workload methodology.

// SpeedupPoint is one cluster-size measurement of a program.
type SpeedupPoint struct {
	Processors int
	Cycles     uint64
	Speedup    float64 // T1 / Tp
	Efficiency float64 // Speedup / Processors
}

// SpeedupCurve runs the program builder once per cluster size from 1
// to maxP and reports speedup and efficiency at each size.  The
// builder must return a fresh serial stream each call (streams are
// stateful).  limit bounds each run's cycles; runs that do not finish
// report zero cycles.
func SpeedupCurve(cfg fx8.Config, build func() fx8.Stream, maxP, limit int) []SpeedupPoint {
	if maxP < 1 {
		maxP = 1
	}
	if maxP > cfg.NumCE {
		maxP = cfg.NumCE
	}
	pts := make([]SpeedupPoint, 0, maxP)
	var t1 uint64
	for p := 1; p <= maxP; p++ {
		cl := fx8.New(cfg)
		if err := cl.Run(build(), p); err != nil {
			panic(err)
		}
		start := cl.Cycle()
		// Advance stops at every CE step, the only place the
		// program can finish.
		for n := 0; n < limit && !cl.Idle(); {
			n += cl.Advance(limit - n)
		}
		pt := SpeedupPoint{Processors: p}
		if cl.Idle() {
			pt.Cycles = cl.Cycle() - start
		}
		if p == 1 {
			t1 = pt.Cycles
		}
		if pt.Cycles > 0 && t1 > 0 {
			pt.Speedup = float64(t1) / float64(pt.Cycles)
			pt.Efficiency = pt.Speedup / float64(p)
		}
		pts = append(pts, pt)
	}
	return pts
}
