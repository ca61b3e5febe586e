package repro

// Benchmark harness: one benchmark per table and figure of the study's
// evaluation.  Each benchmark regenerates its artefact from a shared
// measurement campaign and reports the headline quantities the paper
// reports for it via b.ReportMetric, so `go test -bench=.` reprints
// the whole evaluation.  The campaign itself (the expensive part) runs
// once and is shared across benchmarks.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/monitor"
)

// campaign returns the shared quick-scale campaign.  core.DefaultStudyCache
// memoizes it by configuration, so the expensive part runs once no
// matter how many benchmarks ask for it — or how concurrently.
func campaign(b *testing.B) *core.Study {
	b.Helper()
	return core.DefaultStudyCache.Get(core.QuickScale(), 0)
}

// renderBench times an artefact generator and returns the last output
// so callers can attach metrics.
func renderBench(b *testing.B, st *core.Study, fn func(*core.Study) string) string {
	b.Helper()
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = fn(st)
	}
	b.StopTimer()
	if out == "" {
		b.Fatal("empty artefact")
	}
	return out
}

func BenchmarkTable1_EventCounts(b *testing.B) {
	st := campaign(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = experiments.Table1(st.Overall)
	}
	b.StopTimer()
	_ = out
	b.ReportMetric(float64(st.Overall.Records), "records")
}

func BenchmarkTable2_OverallConcurrency(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Table2)
	m := st.OverallMeasures
	b.ReportMetric(m.Cw, "Cw")
	if m.Defined {
		b.ReportMetric(m.Pc, "Pc")
		b.ReportMetric(m.CCond[8], "c8|c")
	}
}

func BenchmarkTable3_ModelsVsCw(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Table3)
	if m := st.Models.VsCw[core.MeasureMissRate]; m.Err == nil {
		b.ReportMetric(m.Fit.R2, "missR2")
	}
	if m := st.Models.VsCw[core.MeasureBusBusy]; m.Err == nil {
		b.ReportMetric(m.Fit.R2, "busR2")
	}
}

func BenchmarkTable4_ModelsVsPc(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Table4)
	if m := st.Models.VsPc[core.MeasureMissRate]; m.Err == nil {
		b.ReportMetric(m.Fit.R2, "missR2")
	}
}

func BenchmarkTableA1_SampleMeans(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.TableA1)
	b.ReportMetric(float64(len(st.RandomSamples)), "samples")
}

func BenchmarkFigure3_ActiveHistogram(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Figure3)
	total := 0
	for _, n := range st.Overall.Num {
		total += n
	}
	if total > 0 {
		b.ReportMetric(float64(st.Overall.Num[8])/float64(total), "c8")
		b.ReportMetric(float64(st.Overall.Num[0])/float64(total), "c0")
	}
}

func BenchmarkFigure4_CwDistribution(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Figure4)
	conc, _ := core.SplitByConcurrency(st.RandomSamples)
	b.ReportMetric(float64(len(conc))/float64(len(st.RandomSamples)), "concFrac")
}

func BenchmarkFigure5_PcDistribution(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Figure5)
	conc, _ := core.SplitByConcurrency(st.RandomSamples)
	high := 0
	for _, s := range conc {
		if s.Conc.Pc > 6.5 {
			high++
		}
	}
	if len(conc) > 0 {
		b.ReportMetric(float64(high)/float64(len(conc)), "PcGt6.5")
	}
}

func BenchmarkFigure6_TransitionHistogram(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Figure6)
	b.ReportMetric(st.Transitions.TransitionShare(2), "share2")
	b.ReportMetric(st.Transitions.TransitionShare(7), "share7")
}

func BenchmarkFigure7_PerProcessorActivity(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Figure7)
	tr := st.Transitions
	var total int
	for _, c := range tr.Prof {
		total += c
	}
	if total > 0 {
		b.ReportMetric(float64(tr.Prof[0]+tr.Prof[7])/float64(total), "ce07Share")
	}
}

func BenchmarkFigure8_MissrateVsCw(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Figure8)
	xs, ys := core.Columns(st.AllSamples, core.SelCw, core.SelMissRate)
	b.ReportMetric(float64(len(xs)), "points")
	_ = ys
}

func BenchmarkFigure9_MissrateVsPc(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Figure9)
}

func BenchmarkFigure10_MissrateByCwBand(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Figure10)
	xs, ys := core.Columns(st.AllSamples, core.SelCw, core.SelMissRate)
	var lo, hi []float64
	for i := range xs {
		switch {
		case xs[i] <= 0.4:
			lo = append(lo, ys[i])
		case xs[i] > 0.8:
			hi = append(hi, ys[i])
		}
	}
	b.ReportMetric(medianOf(lo), "medLoCw")
	b.ReportMetric(medianOf(hi), "medHiCw")
}

func BenchmarkFigure11_MissrateByPcBand(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Figure11)
}

func BenchmarkFigure12_ModelMissrateCw(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Figure12)
	atHalf, atFull, ratio := st.Models.MissRateIncrease()
	b.ReportMetric(atHalf, "missAt0.5")
	b.ReportMetric(atFull, "missAt1.0")
	b.ReportMetric(ratio, "increase")
}

func BenchmarkFigure13_ModelBusBusyCw(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Figure13)
	if m := st.Models.VsCw[core.MeasureBusBusy]; m.Err == nil {
		b.ReportMetric(m.Fit.Eval(1.0), "busAtCw1")
	}
}

func BenchmarkFigure14_ModelBusBusyPc(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.Figure14)
}

func BenchmarkFigureA1A2_PerSession(b *testing.B) {
	st := campaign(b)
	renderBench(b, st, experiments.FigureA1A2)
}

func BenchmarkFigureA3A4A5_SystemMeasureDistributions(b *testing.B) {
	st := campaign(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = experiments.FigureA3(st) + experiments.FigureA4(st) + experiments.FigureA5(st)
	}
	b.StopTimer()
	_ = out
}

func BenchmarkFigureB1B2_BusBusyScatter(b *testing.B) {
	st := campaign(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = experiments.FigureB1(st) + experiments.FigureB2(st)
	}
	b.StopTimer()
	_ = out
}

func BenchmarkFigureB3B4_BusBusyBands(b *testing.B) {
	st := campaign(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = experiments.FigureB3(st) + experiments.FigureB4(st)
	}
	b.StopTimer()
	_ = out
}

func BenchmarkFigureB5B6_PageFaultScatter(b *testing.B) {
	st := campaign(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = experiments.FigureB5(st) + experiments.FigureB6(st)
	}
	b.StopTimer()
	_ = out
}

func BenchmarkFigureB7B8_PageFaultBands(b *testing.B) {
	st := campaign(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = experiments.FigureB7(st) + experiments.FigureB8(st)
	}
	b.StopTimer()
	_ = out
}

func BenchmarkFigureB9B10_PageFaultModels(b *testing.B) {
	st := campaign(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = experiments.FigureB9(st) + experiments.FigureB10(st)
	}
	b.StopTimer()
	_ = out
	if m := st.Models.VsCw[core.MeasurePageFaultRate]; m.Err == nil {
		b.ReportMetric(m.Fit.R2, "pfR2")
	}
}

// BenchmarkCampaign_RandomSession measures the cost of one full
// random-sampling measurement session — the unit of the study's
// chapter 4 campaign.
func BenchmarkCampaign_RandomSession(b *testing.B) {
	spec := core.SessionSpec{
		Samples:  4,
		Sampling: monitor.SampleSpec{Snapshots: 5, GapCycles: 5_000},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i)
		core.RunRandomSession(i, spec)
	}
}

// BenchmarkSimulator_CyclesPerSecond measures raw simulator throughput
// under the PaperMix workload.
func BenchmarkSimulator_CyclesPerSecond(b *testing.B) {
	sys := core.NewSystem(paperMixProfile(12345), uint64(b.N)+1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	for i := range c {
		for j := i + 1; j < len(c); j++ {
			if c[j] < c[i] {
				c[i], c[j] = c[j], c[i]
			}
		}
	}
	return c[len(c)/2]
}
