package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/engine"
	"repro/internal/monitor"
)

// StudyConfig sizes the full reproduction of the study's measurement
// campaign: nine random-sampling sessions, ten all-8-triggered
// sessions, and five transition-triggered sessions.
type StudyConfig struct {
	RandomSessions     int
	HighConcSessions   int
	TransitionSessions int

	// SamplesPerSession and Sampling size the random sessions.
	SamplesPerSession int
	Sampling          monitor.SampleSpec

	// Triggered sizes the triggered sessions (Samples and Buffers
	// per sample, trigger budget).
	TriggeredSamples int
	TriggeredBuffers int
	TriggerBudget    int

	// BaseSeed offsets all session seeds; sessions use consecutive
	// derived seeds (different measurement days).
	BaseSeed uint64
}

// PaperScale returns the full-size campaign matching the study's
// session counts.
func PaperScale() StudyConfig {
	return StudyConfig{
		RandomSessions:     9,
		HighConcSessions:   10,
		TransitionSessions: 5,
		SamplesPerSession:  50,
		Sampling:           monitor.SampleSpec{Snapshots: 5, GapCycles: 30_000},
		TriggeredSamples:   16,
		TriggeredBuffers:   5,
		TriggerBudget:      400_000,
		BaseSeed:           1987,
	}
}

// QuickScale returns a reduced campaign for tests and examples: the
// same structure at roughly a tenth the machine time.
func QuickScale() StudyConfig {
	return StudyConfig{
		RandomSessions:     3,
		HighConcSessions:   3,
		TransitionSessions: 2,
		SamplesPerSession:  16,
		Sampling:           monitor.SampleSpec{Snapshots: 5, GapCycles: 10_000},
		TriggeredSamples:   6,
		TriggeredBuffers:   5,
		TriggerBudget:      300_000,
		BaseSeed:           1987,
	}
}

// ScaleNames lists the valid campaign scale names, in the order the
// tools document them.
func ScaleNames() []string { return []string{"quick", "paper"} }

// ScaleConfig maps a campaign scale name ("quick" or "paper") to its
// configuration — the cmd tools' -scale flag and the fx8d service's
// scale parameter.  Every consumer reports an unknown scale through
// this one error, so the CLI and the daemon fail identically.
func ScaleConfig(name string) (StudyConfig, error) {
	switch name {
	case "quick":
		return QuickScale(), nil
	case "paper":
		return PaperScale(), nil
	}
	return StudyConfig{}, fmt.Errorf("unknown scale %q (valid scales: %s)",
		name, strings.Join(ScaleNames(), ", "))
}

// Study is the complete result of the measurement campaign: the inputs
// to every table and figure in the paper.
type Study struct {
	Config StudyConfig

	// Random are the random-sampling sessions (chapter 4).
	Random []*Session

	// HighConc and Transition are the triggered sessions (sections
	// 3.5 and 4.3).
	HighConc   []*TriggeredSession
	Transition []*TriggeredSession

	// Overall is the sum of hardware event counts over all random
	// sessions (Table 2, Figure 3).
	Overall monitor.EventCounts

	// OverallMeasures are the concurrency measures of the summed
	// random sessions.
	OverallMeasures Concurrency

	// RandomSamples are the per-sample measures of the random
	// sessions (Figures 4, 5, A.3-A.5, Table A.1).
	RandomSamples []SampleMeasures

	// AllSamples combines random and high-concurrency samples — the
	// population chapter 5 analyzes.
	AllSamples []SampleMeasures

	// Transitions is the record-level transition analysis (Figures
	// 6, 7).
	Transitions TransitionStats

	// Models are the chapter 5 regressions (Tables 3, 4; Figures
	// 12-14, B.9, B.10).
	Models ModelSet
}

// randomSpec returns the spec of random-sampling session i (derived
// seed: a different measurement day).
func (cfg StudyConfig) randomSpec(i int) SessionSpec {
	return SessionSpec{
		Samples:  cfg.SamplesPerSession,
		Sampling: cfg.Sampling,
		Seed:     cfg.BaseSeed + uint64(i),
	}
}

// triggeredSpec returns the spec of triggered session i in mode-
// specific seed space (+100 for all-8, +200 for transition sessions).
func (cfg StudyConfig) triggeredSpec(mode monitor.TriggerMode, i int) TriggeredSpec {
	off := uint64(100)
	if mode == monitor.TriggerTransition {
		off = 200
	}
	return TriggeredSpec{
		Mode:         mode,
		Samples:      cfg.TriggeredSamples,
		Buffers:      cfg.TriggeredBuffers,
		BudgetCycles: cfg.TriggerBudget,
		Seed:         cfg.BaseSeed + off + uint64(i),
		// Widen each factor before multiplying: the product of the
		// three int fields overflows 32-bit int for large budgets.
		WorkloadCycles: uint64(cfg.TriggeredSamples) * uint64(cfg.TriggeredBuffers) * uint64(cfg.TriggerBudget) / 4,
	}
}

// RunStudy executes the full campaign and computes every derived
// result, fanning sessions over one worker per available CPU.
func RunStudy(cfg StudyConfig) *Study {
	return RunStudyWorkers(cfg, 0)
}

// RunStudyWorkers executes the full campaign on a bounded worker pool.
// Every session is an independent unit — its own machine, OS and
// workload built from a derived seed — so the three session groups fan
// out over one shared pool and are reduced in session order, making
// the result identical for every worker count (workers <= 0 selects
// one worker per CPU).
func RunStudyWorkers(cfg StudyConfig, workers int) *Study {
	st, err := RunStudyRunner(context.Background(), cfg, workers, LocalStudyRunner(), nil)
	if err != nil {
		// The local runner never fails a unit: its compute function
		// returns no error and ignores the context.
		panic(err)
	}
	return st
}

// TotalSessions returns the number of sessions the campaign runs —
// the denominator of progress reports.
func (cfg StudyConfig) TotalSessions() int {
	return cfg.RandomSessions + cfg.HighConcSessions + cfg.TransitionSessions
}

// StudyUnit is one campaign session as a self-contained work unit:
// exactly one of Random or Triggered is set.  Units are pure data —
// they serialize to JSON for fx8d's POST /v1/run/session endpoint —
// and the session they describe is a pure function of the unit, so a
// unit may be executed anywhere (or more than once) with an identical
// result.
type StudyUnit struct {
	// ID is the 1-based session number within its group.
	ID int `json:"id"`

	Random    *SessionSpec   `json:"random,omitempty"`
	Triggered *TriggeredSpec `json:"triggered,omitempty"`
}

// StudyUnitResult is the completed session for a StudyUnit, mirroring
// which spec field was set.
type StudyUnitResult struct {
	Random    *Session          `json:"random,omitempty"`
	Triggered *TriggeredSession `json:"triggered,omitempty"`
}

// Units expands the campaign into its session work units in canonical
// order: random sessions, then all-8-triggered, then
// transition-triggered.  Reducing results in this order reproduces
// RunStudy exactly.
func (cfg StudyConfig) Units() []StudyUnit {
	units := make([]StudyUnit, 0, cfg.TotalSessions())
	for i := 0; i < cfg.RandomSessions; i++ {
		spec := cfg.randomSpec(i)
		units = append(units, StudyUnit{ID: i + 1, Random: &spec})
	}
	for i := 0; i < cfg.HighConcSessions; i++ {
		spec := cfg.triggeredSpec(monitor.TriggerAll8, i)
		units = append(units, StudyUnit{ID: i + 1, Triggered: &spec})
	}
	for i := 0; i < cfg.TransitionSessions; i++ {
		spec := cfg.triggeredSpec(monitor.TriggerTransition, i)
		units = append(units, StudyUnit{ID: i + 1, Triggered: &spec})
	}
	return units
}

// cost estimates the machine cycles a unit simulates: a static
// function of its spec that orders dispatch.  A random session runs
// exactly its sampling span.  A triggered session records Samples x
// Buffers buffers, each after a trigger wait its spec bounds but does
// not fix; the estimate charges each mode's mean wait at paper scale,
// about 1/8 of the budget for a transition trigger and 1/64 for
// all-8, which fires as soon as every CE is busy.
func (u StudyUnit) cost() uint64 {
	if u.Random != nil {
		return u.Random.span()
	}
	t := u.Triggered
	wait := uint64(t.BudgetCycles) / 64
	if t.Mode == monitor.TriggerTransition {
		wait = uint64(t.BudgetCycles) / 8
	}
	return uint64(t.Samples) * uint64(t.Buffers) * (wait + monitor.BufferDepth)
}

// RunStudyUnit executes one session work unit in-process — the
// compute path shared by the local runner and fx8d's serving side.
func RunStudyUnit(u StudyUnit) (StudyUnitResult, error) {
	switch {
	case u.Random != nil:
		return StudyUnitResult{Random: RunRandomSession(u.ID, *u.Random)}, nil
	case u.Triggered != nil:
		return StudyUnitResult{Triggered: RunTriggeredSession(u.ID, *u.Triggered)}, nil
	}
	return StudyUnitResult{}, fmt.Errorf("core: study unit %d has no spec", u.ID)
}

// StudyRunner executes campaign session units: the engine's local
// pool, or a test's instrumented wrapper around it.
type StudyRunner = engine.Runner[StudyUnit, StudyUnitResult]

// LocalStudyRunner returns the in-process StudyRunner.
func LocalStudyRunner() StudyRunner {
	return engine.Local[StudyUnit, StudyUnitResult]{Fn: RunStudyUnit}
}

// RunStudyRunner executes the full campaign on an arbitrary
// StudyRunner and reduces unit results with AssembleStudy, so the
// returned Study is byte-identical to local execution for every
// worker count and unit scheduling.  Units are dispatched in
// decreasing cost and their results put back in Units() order.
// progress follows the engine.RunAll contract.
func RunStudyRunner(ctx context.Context, cfg StudyConfig, workers int, r StudyRunner, progress func(done, total int)) (*Study, error) {
	// One pool covers all three groups, dispatched longest first
	// (Graham's LPT rule), so the short all-8 sessions fill the other
	// workers' tail instead of one long session running on alone.
	units := cfg.Units()
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(units[b].cost(), units[a].cost()) })
	dispatch := make([]StudyUnit, len(units))
	for k, i := range order {
		dispatch[k] = units[i]
	}
	done, err := engine.RunAll(ctx, workers, dispatch, r, progress)
	if err != nil {
		return nil, err
	}
	results := make([]StudyUnitResult, len(units))
	for k, i := range order {
		results[i] = done[k]
	}
	return AssembleStudy(cfg, results)
}

// AssembleStudy reduces the results of cfg.Units(), in that order,
// into the full Study — the one reduction behind both local runs and
// fleet jobs, so a Study's bytes never depend on where its sessions
// ran.
func AssembleStudy(cfg StudyConfig, results []StudyUnitResult) (*Study, error) {
	st := &Study{Config: cfg}
	nR, nH := cfg.RandomSessions, cfg.HighConcSessions
	for i, res := range results {
		want := "triggered"
		if i < nR {
			want = "random"
		}
		if (i < nR && res.Random == nil) || (i >= nR && res.Triggered == nil) {
			return nil, fmt.Errorf("core: runner returned no %s session for unit %d", want, i+1)
		}
	}

	// Deterministic reduction in session order.
	for _, res := range results[:nR] {
		st.Random = append(st.Random, res.Random)
		st.Overall.Add(res.Random.Total)
		st.RandomSamples = append(st.RandomSamples, res.Random.Measures...)
	}
	st.OverallMeasures = MeasuresFromCounts(st.Overall)

	for _, res := range results[nR : nR+nH] {
		st.HighConc = append(st.HighConc, res.Triggered)
	}

	for _, res := range results[nR+nH:] {
		st.Transition = append(st.Transition, res.Triggered)
		for _, buf := range res.Triggered.Buffers {
			for _, rec := range buf {
				st.Transitions.AddRecord(rec)
			}
		}
	}

	st.AllSamples = append(st.AllSamples, st.RandomSamples...)
	for _, ts := range st.HighConc {
		st.AllSamples = append(st.AllSamples, ts.Measures...)
	}
	st.Models = FitModels(st.AllSamples)
	return st, nil
}
