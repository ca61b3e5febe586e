package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/monitor"
	"repro/internal/stats"
)

// TestFitModelsSynthetic validates the model-building procedure on a
// constructed sample population with known relationships.
func TestFitModelsSynthetic(t *testing.T) {
	var samples []SampleMeasures
	// Miss rate rises quadratically with Cw; flat in Pc.
	for i := 0; i < 400; i++ {
		cw := float64(i%11) / 10
		var conc Concurrency
		conc.Cw = cw
		if cw > 0 {
			conc.Defined = true
			conc.Pc = 6 + float64(i%3)
		}
		samples = append(samples, SampleMeasures{
			Conc:          conc,
			MissRate:      0.004 + 0.02*cw*cw + 0.001*float64(i%5)/5,
			BusBusy:       0.05 + 0.25*cw,
			PageFaultRate: 100 * cw,
		})
	}
	set := FitModels(samples)

	miss := set.VsCw[MeasureMissRate]
	if miss.Err != nil {
		t.Fatalf("miss-vs-Cw fit failed: %v", miss.Err)
	}
	if miss.Fit.R2 < 0.9 {
		t.Errorf("miss-vs-Cw R2 = %v", miss.Fit.R2)
	}
	atHalf, atFull, ratio := set.MissRateIncrease()
	if atFull <= atHalf || ratio < 1.5 {
		t.Errorf("miss rate increase = (%v, %v, %v)", atHalf, atFull, ratio)
	}

	bus := set.VsCw[MeasureBusBusy]
	if bus.Err != nil || bus.Fit.R2 < 0.95 {
		t.Errorf("bus-vs-Cw fit: %+v", bus.Fit)
	}

	// Pc models exist (three distinct Pc values -> three median
	// points, enough for a quadratic).
	if set.VsPc[MeasureMissRate].Err != nil {
		t.Errorf("miss-vs-Pc fit failed: %v", set.VsPc[MeasureMissRate].Err)
	}
}

func TestFitModelsTooFewPoints(t *testing.T) {
	samples := []SampleMeasures{
		{Conc: Concurrency{Cw: 0.5, Defined: true, Pc: 8}, MissRate: 0.01},
	}
	set := FitModels(samples)
	if set.VsCw[MeasureMissRate].Err == nil {
		t.Error("single-point fit should fail")
	}
	if set.VsPc[MeasureMissRate].Err == nil {
		t.Error("single-point Pc fit should fail")
	}
}

// quickStudySHA256 is the sha256 of EncodeStudy over the quick-scale
// campaign: the absolute fingerprint every simulator, OS, monitor or
// methodology change must reproduce byte for byte.  A deliberate
// change of output updates it, with the reason in the commit.
const quickStudySHA256 = "0dfadcd070b9a57ce1e539f8ab97eeb4aedc8d3dedbde5a7f27f7dc3450ea761"

// TestQuickStudyEndToEnd runs the reduced campaign, pins its encoding
// to quickStudySHA256 and checks every headline result of the paper
// in shape.
func TestQuickStudyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline study in -short mode")
	}
	st := RunStudy(QuickScale())
	enc, err := EncodeStudy(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != quickStudySHA256 {
		t.Errorf("quick study sha256 = %s, want %s", got, quickStudySHA256)
	}

	// Session bookkeeping.
	if len(st.Random) != 3 || len(st.HighConc) != 3 || len(st.Transition) != 2 {
		t.Fatalf("session counts: %d %d %d", len(st.Random), len(st.HighConc), len(st.Transition))
	}
	if len(st.RandomSamples) != 3*16 {
		t.Fatalf("random samples = %d", len(st.RandomSamples))
	}
	if len(st.AllSamples) <= len(st.RandomSamples) {
		t.Error("high-concurrency samples missing from the chapter 5 population")
	}

	// Chapter 4: workload concurrency in the paper's neighbourhood,
	// dominated by idle/serial/8-active states.
	m := st.OverallMeasures
	if m.Cw < 0.15 || m.Cw > 0.55 {
		t.Errorf("overall Cw = %v, want near 0.35", m.Cw)
	}
	if !m.Defined || m.Pc < 7.0 {
		t.Errorf("overall Pc = %v, want > 7 (paper: 7.66)", m.Pc)
	}
	if m.CCond[8] < 0.8 {
		t.Errorf("c_8|c = %v, want > 0.8 (paper: 0.93)", m.CCond[8])
	}

	// Section 4.3: the 2-active state dominates transition periods
	// and CEs 0 and 7 are the dominant pair.
	tr := st.Transitions
	if tr.TransitionRecords == 0 {
		t.Fatal("no transition records captured")
	}
	share2 := tr.TransitionShare(2)
	for j := 3; j <= 7; j++ {
		if tr.TransitionShare(j) > share2 {
			t.Errorf("share(%d)=%v exceeds share(2)=%v", j, tr.TransitionShare(j), share2)
		}
	}
	a, b := tr.DominantPair()
	pair := map[int]bool{a: true, b: true}
	if !pair[0] || !pair[7] {
		t.Errorf("dominant transition pair = %d,%d, want 0 and 7", a, b)
	}

	// Chapter 5: miss rate rises with Cw.
	miss := st.Models.VsCw[MeasureMissRate]
	if miss.Err != nil {
		t.Fatalf("miss-vs-Cw model failed: %v", miss.Err)
	}
	atHalf, atFull, ratio := st.Models.MissRateIncrease()
	if atFull <= atHalf {
		t.Errorf("miss rate model not increasing: %v -> %v", atHalf, atFull)
	}
	if ratio < 1.3 {
		t.Errorf("miss rate increase ratio = %v, want substantial (paper: >3)", ratio)
	}

	// Miss rate should relate much more strongly to Cw than to Pc.
	// With fewer than five populated Pc midpoints a quadratic fits
	// the median points nearly exactly, so the R2 comparison is only
	// meaningful at larger scales.
	if pcModel := st.Models.VsPc[MeasureMissRate]; pcModel.Err == nil && len(pcModel.Points) >= 5 {
		if pcModel.Fit.R2 > miss.Fit.R2 {
			t.Errorf("miss rate more correlated with Pc (%v) than Cw (%v)",
				pcModel.Fit.R2, miss.Fit.R2)
		}
	}

	// Bus busy rises with Cw.
	bus := st.Models.VsCw[MeasureBusBusy]
	if bus.Err != nil {
		t.Fatalf("bus-vs-Cw model failed: %v", bus.Err)
	}
	if bus.Fit.Eval(1.0) <= bus.Fit.Eval(0.1) {
		t.Error("bus busy model should increase with Cw")
	}
}

func TestSessionSpanAccounting(t *testing.T) {
	spec := SessionSpec{
		Samples:  4,
		Sampling: monitor.SampleSpec{Snapshots: 5, GapCycles: 1000},
	}
	want := uint64(4 * 5 * (1000 + monitor.BufferDepth))
	if got := spec.span(); got != want {
		t.Errorf("span = %d, want %d", got, want)
	}
}

func TestRunRandomSessionSmall(t *testing.T) {
	spec := SessionSpec{
		Samples:  4,
		Sampling: monitor.SampleSpec{Snapshots: 2, GapCycles: 4000},
		Seed:     7,
	}
	ses := RunRandomSession(1, spec)
	if len(ses.Samples) != 4 || len(ses.Measures) != 4 {
		t.Fatalf("samples = %d", len(ses.Samples))
	}
	if ses.Total.Records != 4*2*monitor.BufferDepth {
		t.Fatalf("total records = %d", ses.Total.Records)
	}
}

func TestRunTriggeredSessionTransition(t *testing.T) {
	spec := TriggeredSpec{
		Mode:           monitor.TriggerTransition,
		Samples:        3,
		Buffers:        2,
		BudgetCycles:   500_000,
		Seed:           11,
		WorkloadCycles: 2_000_000,
	}
	ts := RunTriggeredSession(1, spec)
	if len(ts.Buffers) == 0 {
		t.Skip("no transitions captured in budget (seed-dependent)")
	}
	// Every captured buffer's first record must be a sub-8 state:
	// the trigger cycle itself.
	for i, buf := range ts.Buffers {
		if buf[0].ActiveCount() >= 8 {
			t.Errorf("buffer %d first record has %d active", i, buf[0].ActiveCount())
		}
	}
}

// detScale is a reduced campaign for the worker-count determinism
// tests: every session group populated, small enough to run twice.
func detScale() StudyConfig {
	return StudyConfig{
		RandomSessions:     3,
		HighConcSessions:   2,
		TransitionSessions: 2,
		SamplesPerSession:  6,
		Sampling:           monitor.SampleSpec{Snapshots: 3, GapCycles: 5_000},
		TriggeredSamples:   3,
		TriggeredBuffers:   3,
		TriggerBudget:      200_000,
		BaseSeed:           1987,
	}
}

// TestRunStudyWorkerCountInvariant is the engine's determinism
// regression test: the same StudyConfig and seed must produce exactly
// the same Study whether sessions run on one worker or eight.
func TestRunStudyWorkerCountInvariant(t *testing.T) {
	cfg := detScale()
	seq := RunStudyWorkers(cfg, 1)
	par := RunStudyWorkers(cfg, 8)

	// Field-by-field over everything downstream artefacts consume.
	if seq.Overall != par.Overall {
		t.Errorf("Overall diverges:\n seq %+v\n par %+v", seq.Overall, par.Overall)
	}
	if seq.OverallMeasures != par.OverallMeasures {
		t.Errorf("OverallMeasures diverges:\n seq %+v\n par %+v",
			seq.OverallMeasures, par.OverallMeasures)
	}
	if len(seq.Random) != len(par.Random) {
		t.Fatalf("Random sessions: %d vs %d", len(seq.Random), len(par.Random))
	}
	for i := range seq.Random {
		a, b := seq.Random[i], par.Random[i]
		if a.ID != b.ID || a.Total != b.Total || a.TotalFaults != b.TotalFaults {
			t.Errorf("random session %d diverges: %+v vs %+v", i, a.Total, b.Total)
		}
		if !reflect.DeepEqual(a.Samples, b.Samples) || !reflect.DeepEqual(a.Measures, b.Measures) {
			t.Errorf("random session %d samples/measures diverge", i)
		}
	}
	for name, pair := range map[string][2][]*TriggeredSession{
		"HighConc":   {seq.HighConc, par.HighConc},
		"Transition": {seq.Transition, par.Transition},
	} {
		a, b := pair[0], pair[1]
		if len(a) != len(b) {
			t.Fatalf("%s sessions: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Mode != b[i].Mode ||
				a[i].Total != b[i].Total || a[i].Timeouts != b[i].Timeouts {
				t.Errorf("%s session %d header diverges", name, i)
			}
			if !reflect.DeepEqual(a[i].Buffers, b[i].Buffers) {
				t.Errorf("%s session %d buffers diverge", name, i)
			}
			if !reflect.DeepEqual(a[i].Measures, b[i].Measures) {
				t.Errorf("%s session %d measures diverge", name, i)
			}
		}
	}
	if !reflect.DeepEqual(seq.RandomSamples, par.RandomSamples) {
		t.Error("RandomSamples diverge")
	}
	if !reflect.DeepEqual(seq.AllSamples, par.AllSamples) {
		t.Error("AllSamples diverge")
	}
	if !reflect.DeepEqual(seq.Transitions, par.Transitions) {
		t.Errorf("Transitions diverge:\n seq %+v\n par %+v", seq.Transitions, par.Transitions)
	}
	if !reflect.DeepEqual(seq.Models, par.Models) {
		t.Error("Models diverge")
	}
	// Belt and braces: nothing else hiding in the struct.
	if !reflect.DeepEqual(seq, par) {
		t.Error("Study structs diverge outside the checked fields")
	}
}

// TestCachedStudySharesOneCampaign verifies campaign memoization:
// repeated requests for the same configuration — including concurrent
// ones — share a single Study.
func TestCachedStudySharesOneCampaign(t *testing.T) {
	cfg := detScale()
	cfg.BaseSeed = 4242 // private key: don't collide with other tests' cache entries

	first := DefaultStudyCache.Get(cfg, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := DefaultStudyCache.Get(cfg, 0); got != first {
				t.Error("DefaultStudyCache re-ran the campaign for an identical config")
			}
		}()
	}
	wg.Wait()

	other := cfg
	other.BaseSeed = 4243
	if DefaultStudyCache.Get(other, 0) == first {
		t.Error("different configs must not share a campaign")
	}
}

// BenchmarkRunStudy measures the campaign at quick scale across
// worker counts — the engine's headline scaling curve.  Every
// parallel sub-benchmark reports a speedup-x metric relative to the
// workers=1 run of the same invocation, so BENCH_study.json carries
// the scaling ratio itself and benchdiff tracks it like any other
// number: on a multi-core runner workers=max should report
// speedup-x >= 3 now that sessions reuse pooled arenas instead of
// serializing in the allocator.  (The sub-benchmarks run in order, so
// the sequential baseline is always measured first.)
func BenchmarkRunStudy(b *testing.B) {
	var seqNsPerOp float64
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=2", 2},
		{"workers=4", 4},
		{"workers=max", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := QuickScale()
			for i := 0; i < b.N; i++ {
				RunStudyWorkers(cfg, bc.workers)
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if bc.workers == 1 {
				seqNsPerOp = ns
			} else if seqNsPerOp > 0 && ns > 0 {
				b.ReportMetric(seqNsPerOp/ns, "speedup-x")
			}
		})
	}
}

// TestTriggeredSpecWorkloadCyclesNoOverflow pins the widened
// arithmetic in triggeredSpec: the three int factors are multiplied
// in uint64, so budgets whose int product would overflow a 32-bit int
// still size the workload correctly on every platform.
func TestTriggeredSpecWorkloadCyclesNoOverflow(t *testing.T) {
	cfg := StudyConfig{
		TriggeredSamples: 1_000,
		TriggeredBuffers: 100,
		TriggerBudget:    400_000, // product 4e10 >> MaxInt32
		BaseSeed:         1,
	}
	spec := cfg.triggeredSpec(monitor.TriggerAll8, 0)
	want := uint64(1_000) * 100 * 400_000 / 4
	if spec.WorkloadCycles != want {
		t.Errorf("WorkloadCycles = %d, want %d", spec.WorkloadCycles, want)
	}
	// The paper-scale boundary: samples*buffers*budget = 3.2e7 fits
	// either way; pin it so a regression to int arithmetic cannot
	// silently change paper-scale seeds or spans.
	paper := PaperScale()
	pspec := paper.triggeredSpec(monitor.TriggerTransition, 2)
	pwant := uint64(paper.TriggeredSamples) * uint64(paper.TriggeredBuffers) * uint64(paper.TriggerBudget) / 4
	if pspec.WorkloadCycles != pwant {
		t.Errorf("paper WorkloadCycles = %d, want %d", pspec.WorkloadCycles, pwant)
	}
	if pspec.Seed != paper.BaseSeed+200+2 {
		t.Errorf("paper transition seed = %d", pspec.Seed)
	}
}

// TestStudyUnitsCanonicalOrder pins the unit expansion RunStudyRunner
// reduces over: random, then all-8, then transition, with per-group
// 1-based IDs and the derived seeds of the direct path.
func TestStudyUnitsCanonicalOrder(t *testing.T) {
	cfg := QuickScale()
	units := cfg.Units()
	if len(units) != cfg.TotalSessions() {
		t.Fatalf("len(units) = %d, want %d", len(units), cfg.TotalSessions())
	}
	for i, u := range units {
		switch {
		case i < cfg.RandomSessions:
			if u.Random == nil || u.ID != i+1 || u.Random.Seed != cfg.BaseSeed+uint64(i) {
				t.Errorf("unit %d = %+v, want random session %d", i, u, i+1)
			}
		case i < cfg.RandomSessions+cfg.HighConcSessions:
			j := i - cfg.RandomSessions
			if u.Triggered == nil || u.Triggered.Mode != monitor.TriggerAll8 || u.ID != j+1 {
				t.Errorf("unit %d = %+v, want all-8 session %d", i, u, j+1)
			}
		default:
			j := i - cfg.RandomSessions - cfg.HighConcSessions
			if u.Triggered == nil || u.Triggered.Mode != monitor.TriggerTransition || u.ID != j+1 {
				t.Errorf("unit %d = %+v, want transition session %d", i, u, j+1)
			}
		}
	}
}

// stubRunner records the units it is handed, in dispatch order, and
// answers each with an empty session carrying the unit's ID and mode.
type stubRunner struct {
	mu    sync.Mutex
	units []StudyUnit
}

func (r *stubRunner) RunUnit(_ context.Context, u StudyUnit) (StudyUnitResult, error) {
	r.mu.Lock()
	r.units = append(r.units, u)
	r.mu.Unlock()
	if u.Random != nil {
		return StudyUnitResult{Random: &Session{ID: u.ID}}, nil
	}
	return StudyUnitResult{Triggered: &TriggeredSession{ID: u.ID, Mode: u.Triggered.Mode}}, nil
}

// TestRunStudyRunnerDispatchesLongestFirst: at paper scale the
// campaign's units are dispatched random, then transition, then all-8
// sessions (decreasing static cost, each group in Units() order), and
// AssembleStudy still sees every result in Units() order.
func TestRunStudyRunnerDispatchesLongestFirst(t *testing.T) {
	cfg := PaperScale()
	r := &stubRunner{}
	st, err := RunStudyRunner(context.Background(), cfg, 1, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	units := cfg.Units()
	nR, nH := cfg.RandomSessions, cfg.HighConcSessions
	want := slices.Concat(units[:nR], units[nR+nH:], units[nR:nR+nH])
	if !reflect.DeepEqual(r.units, want) {
		t.Errorf("dispatch order:\n got %s\nwant %s", unitNames(r.units), unitNames(want))
	}
	for i, s := range st.Random {
		if s.ID != i+1 {
			t.Errorf("Random[%d] is session %d", i, s.ID)
		}
	}
	for name, group := range map[monitor.TriggerMode][]*TriggeredSession{monitor.TriggerAll8: st.HighConc, monitor.TriggerTransition: st.Transition} {
		for i, s := range group {
			if s.ID != i+1 || s.Mode != name {
				t.Errorf("%v session %d is %v session %d", name, i+1, s.Mode, s.ID)
			}
		}
	}
}

// unitNames renders units as kind/ID for failure messages.
func unitNames(units []StudyUnit) string {
	var b strings.Builder
	for _, u := range units {
		kind := "random"
		if u.Triggered != nil {
			kind = u.Triggered.Mode.String()
		}
		fmt.Fprintf(&b, " %s/%d", kind, u.ID)
	}
	return b.String()
}

// TestRunStudyUnitRejectsEmptyUnit: a unit with no spec is a protocol
// error, not a panic.
func TestRunStudyUnitRejectsEmptyUnit(t *testing.T) {
	if _, err := RunStudyUnit(StudyUnit{ID: 3}); err == nil {
		t.Error("want an error for a spec-less unit")
	}
}

func TestMedianGridConstants(t *testing.T) {
	// The grids must produce 11 Cw midpoints and 7 Pc midpoints as in
	// section 5.2.
	pts := stats.MedianBin(
		[]float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		make([]float64, 11), CwGridLo, CwGridHi, CwGridStep)
	if len(pts) != 11 {
		t.Errorf("Cw grid midpoints = %d, want 11", len(pts))
	}
	pts = stats.MedianBin(
		[]float64{2, 3, 4, 5, 6, 7, 8},
		make([]float64, 7), PcGridLo, PcGridHi, PcGridStep)
	if len(pts) != 7 {
		t.Errorf("Pc grid midpoints = %d, want 7", len(pts))
	}
}
