package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// testStudy returns the shared quick-scale campaign for all tests in
// the package.  core.DefaultStudyCache runs it once even when
// parallel tests ask for it concurrently.
func testStudy(t *testing.T) *core.Study {
	t.Helper()
	return core.DefaultStudyCache.Get(core.QuickScale(), 0)
}

func TestTable1Rendering(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	out := Table1(st.Overall)
	for _, want := range []string{"num_0", "num_8", "prof_7", "ceop_READ.MISS", "membop_IP.READ"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	out := Table2(st)
	for _, want := range []string{"c_0", "c_8", "Cw", "Pc"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestTable3And4Rendering(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	for name, out := range map[string]string{"3": Table3(st), "4": Table4(st)} {
		for _, want := range []string{"Median Miss Rate", "Median CE Bus Busy", "Median Page Fault Rate", "R2"} {
			if !strings.Contains(out, want) {
				t.Errorf("Table %s missing %q", name, want)
			}
		}
	}
	if !strings.Contains(Table3(st), "Cw") || !strings.Contains(Table4(st), "Pc") {
		t.Error("model form lines missing")
	}
}

func TestTableA1Rendering(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	out := TableA1(st)
	if !strings.Contains(out, "Session") || !strings.Contains(out, "Mean Cw") {
		t.Error("Table A.1 headers missing")
	}
	// One row per random session.
	if got := strings.Count(out, "\n") - 6; got < len(st.Random) {
		t.Errorf("Table A.1 too few rows: %d", got)
	}
}

func TestFigure3ShowsDominantStates(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	out := Figure3(st)
	if !strings.Contains(out, "Figure 3") {
		t.Error("title missing")
	}
	// The paper's three dominant states: 0, 1 and 8 active.  8 must
	// dominate the interior states.
	if st.Overall.Num[8] < st.Overall.Num[4] {
		t.Error("8-active should dominate mid states")
	}
}

func TestFigure4And5(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	if !strings.Contains(Figure4(st), "Cw") {
		t.Error("Figure 4 missing label")
	}
	if !strings.Contains(Figure5(st), "Pc") {
		t.Error("Figure 5 missing label")
	}
}

func TestFigure6TwoActiveDominates(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	out := Figure6(st)
	if !strings.Contains(out, "Figure 6") {
		t.Error("title missing")
	}
	share2 := st.Transitions.TransitionShare(2)
	for j := 3; j <= 7; j++ {
		if st.Transitions.TransitionShare(j) > share2 {
			t.Errorf("share(%d) exceeds share(2)", j)
		}
	}
}

func TestFigure7DominantPair(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	out := Figure7(st)
	if !strings.Contains(out, "CE 0") || !strings.Contains(out, "CE 7") {
		t.Error("per-CE labels missing")
	}
	a, b := st.Transitions.DominantPair()
	pair := map[int]bool{a: true, b: true}
	if !pair[0] || !pair[7] {
		t.Errorf("dominant pair = %d,%d", a, b)
	}
}

func TestScatterFigures(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	for name, out := range map[string]string{
		"8": Figure8(st), "9": Figure9(st),
		"B.1": FigureB1(st), "B.2": FigureB2(st),
		"B.5": FigureB5(st), "B.6": FigureB6(st),
	} {
		if !strings.Contains(out, "LEGEND") {
			t.Errorf("Figure %s missing legend", name)
		}
		if !strings.Contains(out, "A") {
			t.Errorf("Figure %s appears empty", name)
		}
	}
}

func TestBandFigures(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	for name, out := range map[string]string{
		"10": Figure10(st), "11": Figure11(st),
		"B.3": FigureB3(st), "B.4": FigureB4(st),
		"B.7": FigureB7(st), "B.8": FigureB8(st),
	} {
		if strings.Count(out, "(a)")+strings.Count(out, "(b)")+strings.Count(out, "(c)") != 3 {
			t.Errorf("Figure %s should have three bands", name)
		}
		if !strings.Contains(out, "MEAN:") {
			t.Errorf("Figure %s missing band summaries", name)
		}
	}
}

func TestMissRateMedianRisesAcrossCwBands(t *testing.T) {
	t.Parallel()
	// The core claim of Figure 10: the median miss rate of the top
	// Cw band exceeds the bottom band's.
	st := testStudy(t)
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
	if len(lo) == 0 || len(hi) == 0 {
		t.Skip("bands unpopulated at quick scale")
	}
	loMed, hiMed := medianOf(lo), medianOf(hi)
	if hiMed <= loMed {
		t.Errorf("median miss rate: low band %v, high band %v; want increase", loMed, hiMed)
	}
}

func medianOf(v []float64) float64 {
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

func TestModelFigures(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	for name, out := range map[string]string{
		"12": Figure12(st), "13": Figure13(st), "14": Figure14(st),
		"B.9": FigureB9(st), "B.10": FigureB10(st),
	} {
		if !strings.Contains(out, "Figure") {
			t.Errorf("Figure %s missing title", name)
		}
		if !strings.Contains(out, "o") && !strings.Contains(out, "unavailable") {
			t.Errorf("Figure %s missing curve", name)
		}
	}
}

func TestAppendixAFigures(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	if !strings.Contains(FigureA1A2(st), "Session") {
		t.Error("A.1/A.2 missing session titles")
	}
	if !strings.Contains(FigureA3(st), "BUS BUSY") {
		t.Error("A.3 missing label")
	}
	if !strings.Contains(FigureA4(st), "MISSRATE") {
		t.Error("A.4 missing label")
	}
	if !strings.Contains(FigureA5(st), "PF RATE") {
		t.Error("A.5 missing label")
	}
}

func TestHeadline(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	out := Headline(st)
	for _, want := range []string{"Workload Concurrency", "Mean Concurrency Level",
		"Transition 2-active", "Missrate model"} {
		if !strings.Contains(out, want) {
			t.Errorf("headline missing %q", want)
		}
	}
}

func TestFullReportContainsEverything(t *testing.T) {
	t.Parallel()
	st := testStudy(t)
	out := FullReport(st)
	wants := []string{
		"TABLE 1", "TABLE 2", "TABLE 3", "TABLE 4", "Table A.1",
		"Figure 3", "Figure 4", "Figure 5", "Figure 6", "Figure 7",
		"Figure 8", "Figure 9", "Figure 10", "Figure 11",
		"Figure 12", "Figure 13", "Figure 14",
		"Figure A.1", "Figure A.3", "Figure A.4", "Figure A.5",
		"Figure B.1", "Figure B.2", "Figure B.3", "Figure B.4",
		"Figure B.5", "Figure B.6", "Figure B.7", "Figure B.8",
		"Figure B.9", "Figure B.10",
		"HEADLINE RESULTS",
	}
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("full report missing %q", w)
		}
	}
}
