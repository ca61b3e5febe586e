package experiments

import (
	"fmt"

	"repro/internal/concentrix"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fx8"
	"repro/internal/monitor"
	"repro/internal/sas"
)

// Parameter sweeps: the study's conclusion singles out "the
// relationship of concurrency and software-level parameters (such as
// those related to job scheduling)" as future work, and its
// methodology section argues the technique generalizes to other
// machine configurations.  These sweeps run the measurement pipeline
// across scheduler quanta and machine configurations.

// SweepPoint is one measured configuration.
type SweepPoint struct {
	Label    string
	Cw       float64
	Pc       float64
	BusBusy  float64
	MissRate float64
	Faults   uint64
}

// sweepSession measures one session on a machine + OS configuration,
// drawing a pooled session arena so consecutive points on one worker
// reuse simulator state (a point that changes the hardware
// configuration rebuilds the machine; one that only changes OS or
// seed parameters resets it in place).
func sweepSession(cfg fx8.Config, sysCfg concentrix.SysConfig, seed uint64, samples int) SweepPoint {
	spec := core.SessionSpec{
		Samples:        samples,
		Sampling:       monitor.SampleSpec{Snapshots: 5, GapCycles: 20_000},
		Seed:           seed,
		WorkloadCycles: uint64(samples) * 5 * uint64(20_000+monitor.BufferDepth*monitor.Timebase),
	}
	ses := core.RunCustomSession(cfg, sysCfg, 1, spec)
	m := core.MeasuresFromCounts(ses.Total)
	return SweepPoint{
		Cw:       m.Cw,
		Pc:       m.Pc,
		BusBusy:  ses.Total.BusBusy(),
		MissRate: ses.Total.MissRate(),
		Faults:   ses.TotalFaults,
	}
}

// SweepUnit is one sweep point as a self-contained work unit: the
// swept parameter, its value, and the point's sampling.  Units are
// pure data — they serialize to JSON for fx8d's POST /v1/run/sweep
// endpoint — and the point they describe is a pure function of the
// unit, so a unit may be executed anywhere (or more than once) with
// an identical result.
type SweepUnit struct {
	// Kind selects the swept parameter: "sched", "cache" or "ce".
	Kind string `json:"kind"`

	// Value is this point's parameter value.
	Value int `json:"value"`

	Seed    uint64 `json:"seed"`
	Samples int    `json:"samples"`
}

// RunSweepUnit executes one sweep point in-process — the compute path
// shared by the local runner and fx8d's serving side.  Unit fields
// may arrive from the network, so out-of-range values are errors, not
// panics.
func RunSweepUnit(u SweepUnit) (SweepPoint, error) {
	if u.Value < 1 {
		return SweepPoint{}, fmt.Errorf("sweep value %d must be >= 1", u.Value)
	}
	if u.Samples < 1 {
		return SweepPoint{}, fmt.Errorf("sweep samples %d must be >= 1", u.Samples)
	}
	switch u.Kind {
	case "sched":
		sysCfg := concentrix.DefaultSysConfig()
		sysCfg.TimeSlice = u.Value
		pt := sweepSession(fx8.DefaultConfig(), sysCfg, u.Seed, u.Samples)
		pt.Label = fmt.Sprintf("quantum=%d", u.Value)
		return pt, nil
	case "cache":
		cfg := fx8.DefaultConfig()
		cfg.SharedCacheBytes = u.Value
		pt := sweepSession(cfg, concentrix.DefaultSysConfig(), u.Seed, u.Samples)
		pt.Label = fmt.Sprintf("cache=%dKB", u.Value>>10)
		return pt, nil
	case "ce":
		n := u.Value
		cfg := fx8.DefaultConfig()
		if n > cfg.NumCE {
			return SweepPoint{}, fmt.Errorf("ce count %d out of range 1..%d", n, cfg.NumCE)
		}
		cfg.NumCE = n
		if cfg.ArbBias != nil {
			cfg.ArbBias = cfg.ArbBias[:n]
		}
		if cfg.CCBDispatchExtra != nil {
			cfg.CCBDispatchExtra = cfg.CCBDispatchExtra[:n]
		}
		pt := sweepSession(cfg, concentrix.DefaultSysConfig(), u.Seed, u.Samples)
		pt.Label = fmt.Sprintf("CEs=%d", n)
		return pt, nil
	}
	return SweepPoint{}, CheckSweepKind(u.Kind)
}

// SweepRunner executes sweep-point units on the engine's pool.
type SweepRunner = engine.Runner[SweepUnit, SweepPoint]

// LocalSweepRunner returns the in-process SweepRunner.
func LocalSweepRunner() SweepRunner {
	return engine.Local[SweepUnit, SweepPoint]{Fn: RunSweepUnit}
}

// SweepTable renders sweep points.
func SweepTable(title string, pts []SweepPoint) string {
	var rows [][]string
	for _, p := range pts {
		pc := "-"
		if p.Pc > 0 {
			pc = fmt.Sprintf("%.2f", p.Pc)
		}
		rows = append(rows, []string{
			p.Label,
			fmt.Sprintf("%.3f", p.Cw),
			pc,
			fmt.Sprintf("%.3f", p.BusBusy),
			fmt.Sprintf("%.4f", p.MissRate),
			fmt.Sprintf("%d", p.Faults),
		})
	}
	return sas.Table(title,
		[]string{"Config", "Cw", "Pc", "BusBusy", "Missrate", "Faults"}, rows)
}
