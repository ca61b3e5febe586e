package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sas"
	"repro/internal/stats"
)

// Figure3 charts the number of records with N processors active over
// all random sessions.
func Figure3(st *core.Study) string {
	return sas.Chart(stats.IntHistogram(st.Overall.Num[:]), sas.ChartOptions{
		Title:       "Figure 3. Number of Records with N Processors Active / All Sessions.",
		Label:       "N PROC",
		Width:       60,
		Descending:  true,
		ShowPercent: true,
	})
}

// Figure4 charts the distribution of samples by Workload Concurrency.
func Figure4(st *core.Study) string {
	xs, _ := core.Columns(st.RandomSamples, core.SelCw, core.SelCw)
	h := stats.NewHistogram(xs, 0, 1, 0.125)
	return sas.Chart(h, sas.ChartOptions{
		Title:          "Figure 4. Distribution of Samples by Workload Concurrency / All Sessions.",
		Label:          "Cw",
		Width:          50,
		MidpointFormat: "%.3f",
		ShowPercent:    true,
	})
}

// Figure5 charts the distribution of samples by Mean Concurrency
// Level (samples with concurrency only).
func Figure5(st *core.Study) string {
	xs, _ := core.Columns(st.RandomSamples, core.SelPc, core.SelPc)
	h := stats.NewHistogram(xs, 2, 8, 0.5)
	return sas.Chart(h, sas.ChartOptions{
		Title:          "Figure 5. Distribution of Samples by Mean Concurrency Level / All Sessions.",
		Label:          "Pc",
		Width:          50,
		MidpointFormat: "%.2f",
		ShowPercent:    true,
	})
}

// Figure6 charts the number of records with N processors active during
// concurrency transition periods (states 7 down to 2).
func Figure6(st *core.Study) string {
	counts := make([]int, 6) // index 0 -> 2-active ... 5 -> 7-active
	labels := make([]string, 6)
	for j := 2; j <= 7; j++ {
		counts[j-2] = st.Transitions.Num[j]
		labels[j-2] = fmt.Sprintf("%d (%.1f%%)", j, 100*st.Transitions.TransitionShare(j))
	}
	// The study lists 7 first.
	rev := make([]int, 6)
	revLabels := make([]string, 6)
	for i := 0; i < 6; i++ {
		rev[i] = counts[5-i]
		revLabels[i] = labels[5-i]
	}
	return sas.BarChart(
		"Figure 6. Number of Records with N Processors Active / Concurrency Transition Periods.",
		revLabels, rev, 60)
}

// Figure7 charts per-processor activity during transition periods.
func Figure7(st *core.Study) string {
	labels := make([]string, core.P)
	counts := make([]int, core.P)
	for i := 0; i < core.P; i++ {
		labels[i] = fmt.Sprintf("CE %d", i)
		counts[i] = st.Transitions.Prof[i]
	}
	return sas.BarChart(
		"Figure 7. Number of Records Active by Processor Number / Concurrency Transition Periods.",
		labels, counts, 60)
}

// scatterFigure renders a measure-vs-axis scatter over the chapter 5
// sample population.
func scatterFigure(st *core.Study, title string,
	selX, selY func(*core.SampleMeasures) (float64, bool),
	xlabel, ylabel string, xmin, xmax float64) string {
	xs, ys := core.Columns(st.AllSamples, selX, selY)
	return sas.Scatter(xs, ys, sas.PlotOptions{
		Title: title, XLabel: xlabel, YLabel: ylabel,
		Cols: 72, Rows: 26, XMin: xmin, XMax: xmax,
	})
}

// Figure8 scatters Missrate against Workload Concurrency.
func Figure8(st *core.Study) string {
	return scatterFigure(st, "Figure 8. Missrate vs. Workload Concurrency.",
		core.SelCw, core.SelMissRate, "WORKLOAD CONCURRENCY Cw", "MISSRATE", 0, 1)
}

// Figure9 scatters Missrate against Mean Concurrency Level.
func Figure9(st *core.Study) string {
	return scatterFigure(st, "Figure 9. Missrate vs. Mean Concurrency Level.",
		core.SelPc, core.SelMissRate, "MEAN CONCURRENCY LEVEL Pc", "MISSRATE", 2, 8)
}

// bandFigure renders the three banded distributions of a system
// measure (Figures 10, 11, B.3, B.4, B.7, B.8).
func bandFigure(st *core.Study, figure, measureName string,
	selX, selY func(*core.SampleMeasures) (float64, bool),
	axis string, cuts [2]float64, lo, hi, step float64, format string) string {

	xs, ys := core.Columns(st.AllSamples, selX, selY)
	bands := stats.BandValues(xs, ys, cuts[:])
	names := [3]string{
		fmt.Sprintf("%s <= %g", axis, cuts[0]),
		fmt.Sprintf("%g < %s <= %g", cuts[0], axis, cuts[1]),
		fmt.Sprintf("%s > %g", axis, cuts[1]),
	}
	sub := [3]string{"(a)", "(b)", "(c)"}
	var b strings.Builder
	for i, vals := range bands {
		title := fmt.Sprintf("Figure %s %s. Distribution of %s, %s", figure, sub[i], measureName, names[i])
		h := stats.NewHistogram(vals, lo, hi, step)
		b.WriteString(sas.Chart(h, sas.ChartOptions{
			Title: title, Label: measureName, Width: 46,
			MidpointFormat: format, ShowPercent: true,
		}))
		if s, err := stats.Summarize(vals); err == nil {
			fmt.Fprintf(&b, "MEAN: %.4g   MEDIAN: %.4g   N: %d\n\n", s.Mean, s.Median, s.N)
		} else {
			b.WriteString("(no observations in band)\n\n")
		}
	}
	return b.String()
}

// Figure10 renders the Missrate distributions banded by Workload
// Concurrency (cuts at 0.4 and 0.8).
func Figure10(st *core.Study) string {
	return bandFigure(st, "10", "MISSRATE", core.SelCw, core.SelMissRate,
		"Cw", [2]float64{0.4, 0.8}, 0, 0.05, 0.005, "%.3f")
}

// Figure11 renders the Missrate distributions banded by Mean
// Concurrency Level (cuts at 6.0 and 7.5).
func Figure11(st *core.Study) string {
	return bandFigure(st, "11", "MISSRATE", core.SelPc, core.SelMissRate,
		"Pc", [2]float64{6.0, 7.5}, 0, 0.05, 0.005, "%.3f")
}

// modelFigure plots a fitted regression model with its median points.
func modelFigure(title string, mdl core.Model, xmin, xmax float64, xlabel, ylabel string) string {
	if mdl.Err != nil {
		return fmt.Sprintf("%s\n(model unavailable: %v)\n", title, mdl.Err)
	}
	return sas.ModelPlot(mdl.Fit, mdl.Points, sas.PlotOptions{
		Title: title, XLabel: xlabel, YLabel: ylabel,
		Cols: 70, Rows: 22, XMin: xmin, XMax: xmax,
	})
}

// Figure12 plots the Missrate-vs-Cw regression model.
func Figure12(st *core.Study) string {
	return modelFigure("Figure 12. Plot of Regression Model, Missrate vs. Cw.",
		st.Models.VsCw[core.MeasureMissRate], 0, 1, "Cw", "MISSRATE")
}

// Figure13 plots the CE-Bus-Busy-vs-Cw regression model.
func Figure13(st *core.Study) string {
	return modelFigure("Figure 13. Plot of Regression Model, CE Bus Busy vs. Cw.",
		st.Models.VsCw[core.MeasureBusBusy], 0, 1, "Cw", "CE BUS BUSY")
}

// Figure14 plots the CE-Bus-Busy-vs-Pc regression model.
func Figure14(st *core.Study) string {
	return modelFigure("Figure 14. Plot of Regression Model, CE Bus Busy vs. Pc.",
		st.Models.VsPc[core.MeasureBusBusy], 2, 8, "Pc", "CE BUS BUSY")
}

// FigureA1A2 renders the per-session active-processor histograms for
// the first and last random sessions (the study shows sessions 1 and
// 9 as examples of inter-session variation).
func FigureA1A2(st *core.Study) string {
	var b strings.Builder
	if len(st.Random) == 0 {
		return "(no sessions)\n"
	}
	pick := []*core.Session{st.Random[0]}
	if len(st.Random) > 1 {
		pick = append(pick, st.Random[len(st.Random)-1])
	}
	names := []string{"A.1", "A.2"}
	for i, ses := range pick {
		b.WriteString(sas.Chart(stats.IntHistogram(ses.Total.Num[:]), sas.ChartOptions{
			Title: fmt.Sprintf("Figure %s. Number of Records with N Processors Active / Session %d.",
				names[i], ses.ID),
			Label: "N PROC", Width: 56, Descending: true, ShowPercent: true,
		}))
		b.WriteString("\n")
	}
	return b.String()
}

// FigureA3 renders the distribution of samples by CE Bus Busy.
func FigureA3(st *core.Study) string {
	xs, _ := core.Columns(st.RandomSamples, core.SelBusBusy, core.SelBusBusy)
	return sas.Chart(stats.NewHistogram(xs, 0, 0.5, 0.05), sas.ChartOptions{
		Title: "Figure A.3. Distribution of Samples by CE Bus Busy.",
		Label: "BUS BUSY", Width: 46, MidpointFormat: "%.2f", ShowPercent: true,
	})
}

// FigureA4 renders the distribution of samples by Miss Rate.
func FigureA4(st *core.Study) string {
	xs, _ := core.Columns(st.RandomSamples, core.SelMissRate, core.SelMissRate)
	return sas.Chart(stats.NewHistogram(xs, 0, 0.10, 0.01), sas.ChartOptions{
		Title: "Figure A.4. Distribution of Samples by Miss Rate.",
		Label: "MISSRATE", Width: 46, MidpointFormat: "%.2f", ShowPercent: true,
	})
}

// FigureA5 renders the distribution of samples by Page Fault Rate.
func FigureA5(st *core.Study) string {
	xs, _ := core.Columns(st.RandomSamples, core.SelPageFaultRate, core.SelPageFaultRate)
	_, max, err := stats.MinMax(xs)
	if err != nil || max <= 0 {
		max = 1
	}
	step := max / 10
	return sas.Chart(stats.NewHistogram(xs, 0, max, step), sas.ChartOptions{
		Title: "Figure A.5. Distribution of Samples by Page Fault Rate.",
		Label: "PF RATE", Width: 46, MidpointFormat: "%.0f", ShowPercent: true,
	})
}

// FigureB1 scatters CE Bus Busy against Workload Concurrency.
func FigureB1(st *core.Study) string {
	return scatterFigure(st, "Figure B.1. CE Bus Busy vs. Workload Concurrency.",
		core.SelCw, core.SelBusBusy, "Cw", "CE BUS BUSY", 0, 1)
}

// FigureB2 scatters CE Bus Busy against Mean Concurrency Level.
func FigureB2(st *core.Study) string {
	return scatterFigure(st, "Figure B.2. CE Bus Busy vs. Mean Concurrency Level.",
		core.SelPc, core.SelBusBusy, "Pc", "CE BUS BUSY", 2, 8)
}

// FigureB3 renders CE Bus Busy distributions banded by Cw.
func FigureB3(st *core.Study) string {
	return bandFigure(st, "B.3", "CE BUS BUSY", core.SelCw, core.SelBusBusy,
		"Cw", [2]float64{0.4, 0.8}, 0, 0.5, 0.05, "%.2f")
}

// FigureB4 renders CE Bus Busy distributions banded by Pc.
func FigureB4(st *core.Study) string {
	return bandFigure(st, "B.4", "CE BUS BUSY", core.SelPc, core.SelBusBusy,
		"Pc", [2]float64{6.0, 7.5}, 0, 0.5, 0.05, "%.2f")
}

// FigureB5 scatters Page Fault Rate against Workload Concurrency.
func FigureB5(st *core.Study) string {
	return scatterFigure(st, "Figure B.5. Page Fault Rate vs. Workload Concurrency.",
		core.SelCw, core.SelPageFaultRate, "Cw", "PAGE FAULT RATE", 0, 1)
}

// FigureB6 scatters Page Fault Rate against Mean Concurrency Level.
func FigureB6(st *core.Study) string {
	return scatterFigure(st, "Figure B.6. Page Fault Rate vs. Mean Concurrency Level.",
		core.SelPc, core.SelPageFaultRate, "Pc", "PAGE FAULT RATE", 2, 8)
}

// pfMax returns a page-fault histogram ceiling from the data.
func pfMax(st *core.Study) float64 {
	xs, _ := core.Columns(st.AllSamples, core.SelPageFaultRate, core.SelPageFaultRate)
	_, max, err := stats.MinMax(xs)
	if err != nil || max <= 0 {
		return 1
	}
	return max
}

// FigureB7 renders Page Fault Rate distributions banded by Cw.
func FigureB7(st *core.Study) string {
	max := pfMax(st)
	return bandFigure(st, "B.7", "PF RATE", core.SelCw, core.SelPageFaultRate,
		"Cw", [2]float64{0.4, 0.8}, 0, max, max/8, "%.0f")
}

// FigureB8 renders Page Fault Rate distributions banded by Pc.
func FigureB8(st *core.Study) string {
	max := pfMax(st)
	return bandFigure(st, "B.8", "PF RATE", core.SelPc, core.SelPageFaultRate,
		"Pc", [2]float64{6.0, 7.5}, 0, max, max/8, "%.0f")
}

// FigureB9 plots the Page-Fault-Rate-vs-Cw regression model.
func FigureB9(st *core.Study) string {
	return modelFigure("Figure B.9. Plot of Regression Model, Page Fault Rate vs. Cw.",
		st.Models.VsCw[core.MeasurePageFaultRate], 0, 1, "Cw", "PAGE FAULT RATE")
}

// FigureB10 plots the Page-Fault-Rate-vs-Pc regression model.
func FigureB10(st *core.Study) string {
	return modelFigure("Figure B.10. Plot of Regression Model, Page Fault Rate vs. Pc.",
		st.Models.VsPc[core.MeasurePageFaultRate], 2, 8, "Pc", "PAGE FAULT RATE")
}

// FullReport renders every table and figure in paper order.
func FullReport(st *core.Study) string {
	sections := []struct {
		name string
		fn   func(*core.Study) string
	}{
		{"TABLE 2", Table2},
		{"FIGURE 3", Figure3},
		{"FIGURE 4", Figure4},
		{"FIGURE 5", Figure5},
		{"FIGURE 6", Figure6},
		{"FIGURE 7", Figure7},
		{"FIGURE 8", Figure8},
		{"FIGURE 9", Figure9},
		{"FIGURE 10", Figure10},
		{"FIGURE 11", Figure11},
		{"TABLE 3", Table3},
		{"TABLE 4", Table4},
		{"FIGURE 12", Figure12},
		{"FIGURE 13", Figure13},
		{"FIGURE 14", Figure14},
		{"TABLE A.1", TableA1},
		{"FIGURES A.1/A.2", FigureA1A2},
		{"FIGURE A.3", FigureA3},
		{"FIGURE A.4", FigureA4},
		{"FIGURE A.5", FigureA5},
		{"FIGURE B.1", FigureB1},
		{"FIGURE B.2", FigureB2},
		{"FIGURE B.3", FigureB3},
		{"FIGURE B.4", FigureB4},
		{"FIGURE B.5", FigureB5},
		{"FIGURE B.6", FigureB6},
		{"FIGURE B.7", FigureB7},
		{"FIGURE B.8", FigureB8},
		{"FIGURE B.9", FigureB9},
		{"FIGURE B.10", FigureB10},
	}
	var b strings.Builder
	b.WriteString(Table1(st.Overall))
	b.WriteString("\n")
	for _, s := range sections {
		b.WriteString(s.fn(st))
		b.WriteString("\n")
	}
	b.WriteString(Headline(st))
	return b.String()
}
