// Package experiments regenerates every table and figure of the
// study's evaluation from a completed measurement campaign
// (core.Study).  Each function returns the rendered artefact;
// FullReport concatenates them all in paper order.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sas"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Table1 renders the hardware event counts derived from monitor data —
// the reduced event vocabulary of Table 1 applied to actual counts.
func Table1(e monitor.EventCounts) string {
	var rows [][]string
	for j, n := range e.Num {
		rows = append(rows, []string{fmt.Sprintf("num_%d", j),
			fmt.Sprintf("records with %d processors active", j), fmt.Sprintf("%d", n)})
	}
	for j, n := range e.Prof {
		rows = append(rows, []string{fmt.Sprintf("prof_%d", j),
			fmt.Sprintf("records with processor %d active", j), fmt.Sprintf("%d", n)})
	}
	for op := 0; op < trace.NumCEOps; op++ {
		rows = append(rows, []string{fmt.Sprintf("ceop_%s", trace.CEOp(op)),
			fmt.Sprintf("records with CE bus opcode = %s", trace.CEOp(op)),
			fmt.Sprintf("%d", e.CEOp[op])})
	}
	for op := 0; op < trace.NumMemOps; op++ {
		rows = append(rows, []string{fmt.Sprintf("membop_%s", trace.MemOp(op)),
			fmt.Sprintf("records with mem bus opcode = %s", trace.MemOp(op)),
			fmt.Sprintf("%d", e.MemOp[op])})
	}
	return sas.Table("TABLE 1. Hardware Event Counts.",
		[]string{"Name", "Event", "Count"}, rows)
}

// Table2 renders the overall concurrency measures for all random
// sessions: c_0..c_8, Cw, c_{j|c} and Pc.
func Table2(st *core.Study) string {
	m := st.OverallMeasures
	var rows [][]string
	for j := 0; j <= core.P; j++ {
		rows = append(rows, []string{
			fmt.Sprintf("c_%d", j),
			fmt.Sprintf("%.4f", m.C[j]),
			condStr(m, j),
		})
	}
	rows = append(rows, []string{"Cw", fmt.Sprintf("%.4f", m.Cw), ""})
	pc := "undefined"
	if m.Defined {
		pc = fmt.Sprintf("%.2f", m.Pc)
	}
	rows = append(rows, []string{"Pc", pc, ""})
	return sas.Table("TABLE 2. Overall Concurrency Measures for All Sessions.",
		[]string{"Measure", "Value", "c_j|c"}, rows)
}

func condStr(m core.Concurrency, j int) string {
	if !m.Defined || j < 2 {
		return ""
	}
	return fmt.Sprintf("%.4f", m.CCond[j])
}

// modelTable renders a Table 3/4-style regression summary.
func modelTable(title, axis string, models [core.NumSystemMeasures]core.Model) string {
	var rows [][]string
	for _, mdl := range models {
		if mdl.Err != nil {
			rows = append(rows, []string{mdl.Measure.String(), "-", "-", "-", "-",
				fmt.Sprintf("fit failed: %v", mdl.Err)})
			continue
		}
		rows = append(rows, []string{
			mdl.Measure.String(),
			sas.Sci(mdl.Fit.B1),
			sas.Sci(mdl.Fit.B2),
			sas.Sci(mdl.Fit.C),
			fmt.Sprintf("%.2f", mdl.Fit.R2),
			stats.RelationshipLabel(mdl.Fit.R2),
		})
	}
	return sas.Table(title,
		[]string{"System Measure", "B1", "B2", "C", "R2", "Relationship"}, rows) +
		fmt.Sprintf("\nModel form: measure = B1*%s + B2*%s^2 + C (section 5.2)\n", axis, axis)
}

// Table3 renders the regression models versus Workload Concurrency.
func Table3(st *core.Study) string {
	return modelTable("TABLE 3. Regression Models verses Cw.", "Cw", st.Models.VsCw)
}

// Table4 renders the regression models versus Mean Concurrency Level.
func Table4(st *core.Study) string {
	return modelTable("TABLE 4. Regression Models verses Pc.", "Pc", st.Models.VsPc)
}

// TableA1 renders the per-session mean concurrency measures of the
// random samples.
func TableA1(st *core.Study) string {
	var rows [][]string
	for _, ses := range st.Random {
		var cwSum, pcSum float64
		pcN := 0
		for _, m := range ses.Measures {
			cwSum += m.Conc.Cw
			if m.Conc.Defined {
				pcSum += m.Conc.Pc
				pcN++
			}
		}
		meanCw := cwSum / float64(len(ses.Measures))
		meanPc := "-"
		if pcN > 0 {
			meanPc = fmt.Sprintf("%.2f", pcSum/float64(pcN))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", ses.ID),
			fmt.Sprintf("%d", len(ses.Measures)),
			fmt.Sprintf("%.4f", meanCw),
			meanPc,
			fmt.Sprintf("%d", ses.TotalFaults),
		})
	}
	return sas.Table("Table A.1. Mean Concurrency Measures for Random Samples.",
		[]string{"Session", "Samples", "Mean Cw", "Mean Pc", "Page Faults"}, rows)
}

// Headline summarizes the study's key claims against the measured
// reproduction — the paper-vs-measured record that cmd/tables and
// the full report print.
func Headline(st *core.Study) string {
	var b strings.Builder
	m := st.OverallMeasures
	fmt.Fprintf(&b, "HEADLINE RESULTS (paper -> measured)\n\n")
	fmt.Fprintf(&b, "Workload Concurrency Cw:        0.35  -> %.3f\n", m.Cw)
	if m.Defined {
		fmt.Fprintf(&b, "Mean Concurrency Level Pc:      7.66  -> %.2f\n", m.Pc)
		fmt.Fprintf(&b, "c_8|c (8-active share):         0.93  -> %.3f\n", m.CCond[8])
	}
	tr := st.Transitions
	fmt.Fprintf(&b, "Transition 2-active share:      0.52  -> %.2f\n", tr.TransitionShare(2))
	a, c := tr.DominantPair()
	fmt.Fprintf(&b, "Dominant transition CEs:        7,0   -> %d,%d\n", a, c)
	atHalf, atFull, ratio := st.Models.MissRateIncrease()
	fmt.Fprintf(&b, "Missrate model Cw=0.5 -> 1.0:   .007 -> .024 (x3.4)  ->  %.4f -> %.4f (x%.1f)\n",
		atHalf, atFull, ratio)
	missCw := st.Models.VsCw[core.MeasureMissRate]
	missPc := st.Models.VsPc[core.MeasureMissRate]
	if missCw.Err == nil {
		fmt.Fprintf(&b, "Missrate-vs-Cw R2:              0.74  -> %.2f\n", missCw.Fit.R2)
	}
	if missPc.Err == nil {
		fmt.Fprintf(&b, "Missrate-vs-Pc R2:              0.07  -> %.2f\n", missPc.Fit.R2)
	}
	busCw := st.Models.VsCw[core.MeasureBusBusy]
	if busCw.Err == nil {
		fmt.Fprintf(&b, "BusBusy-vs-Cw R2:               0.89  -> %.2f\n", busCw.Fit.R2)
	}
	return b.String()
}
