package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/monitor"
	"repro/internal/trace"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeasuresFromNumEmpty(t *testing.T) {
	m := MeasuresFromNum([P + 1]int{})
	if m.Defined || m.Cw != 0 || m.Pc != 0 {
		t.Errorf("empty measures = %+v", m)
	}
}

func TestMeasuresFromNumSerialOnly(t *testing.T) {
	var num [P + 1]int
	num[0] = 30
	num[1] = 70
	m := MeasuresFromNum(num)
	if m.Cw != 0 {
		t.Errorf("Cw = %v, want 0", m.Cw)
	}
	if m.Defined {
		t.Error("Pc should be undefined for serial workload")
	}
	if !approx(m.C[1], 0.7, 1e-12) {
		t.Errorf("c_1 = %v", m.C[1])
	}
}

func TestMeasuresFromNumPaperExample(t *testing.T) {
	// A distribution echoing Table 2: most time idle/serial, most
	// concurrency at 8-active.
	var num [P + 1]int
	num[0] = 150
	num[1] = 500
	num[2] = 5
	num[8] = 345
	m := MeasuresFromNum(num)
	if !approx(m.Cw, 0.35, 1e-12) {
		t.Errorf("Cw = %v, want 0.35", m.Cw)
	}
	if !m.Defined {
		t.Fatal("Pc should be defined")
	}
	wantPc := (2.0*5 + 8.0*345) / 350
	if !approx(m.Pc, wantPc, 1e-12) {
		t.Errorf("Pc = %v, want %v", m.Pc, wantPc)
	}
	if !approx(m.CCond[8], 345.0/350, 1e-12) {
		t.Errorf("c_8|c = %v", m.CCond[8])
	}
}

func TestMeasuresFullConcurrency(t *testing.T) {
	var num [P + 1]int
	num[8] = 100
	m := MeasuresFromNum(num)
	if m.Cw != 1 || m.Pc != 8 {
		t.Errorf("full concurrency: Cw=%v Pc=%v", m.Cw, m.Pc)
	}
}

func TestMeasuresProperties(t *testing.T) {
	// Properties: probabilities sum to 1; 0 <= Cw <= 1; when defined,
	// 2 <= Pc <= 8 and conditional probabilities sum to 1.
	f := func(raw [P + 1]uint16) bool {
		var num [P + 1]int
		total := 0
		for i, v := range raw {
			num[i] = int(v % 1000)
			total += num[i]
		}
		m := MeasuresFromNum(num)
		if total == 0 {
			return !m.Defined && m.Cw == 0
		}
		sum := 0.0
		for _, c := range m.C {
			if c < 0 || c > 1 {
				return false
			}
			sum += c
		}
		if !approx(sum, 1, 1e-9) {
			return false
		}
		if m.Cw < 0 || m.Cw > 1 {
			return false
		}
		if m.Defined {
			if m.Pc < 2 || m.Pc > 8 {
				return false
			}
			csum := 0.0
			for _, c := range m.CCond {
				csum += c
			}
			if !approx(csum, 1, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestMeasuresFromCounts(t *testing.T) {
	var r trace.Record
	r.Active[0] = true
	r.Active[1] = true
	e := monitor.Reduce([]trace.Record{r})
	m := MeasuresFromCounts(e)
	if m.Cw != 1 || !m.Defined || m.Pc != 2 {
		t.Errorf("measures = %+v", m)
	}
}

func TestMeasureSample(t *testing.T) {
	var r trace.Record
	r.Active[0] = true
	r.CE[0] = trace.CEReadMiss
	s := monitor.Sample{Counts: monitor.Reduce([]trace.Record{r}), PageFaults: 42}
	m := MeasureSample(s)
	if m.PageFaultRate != 42 {
		t.Errorf("fault rate = %v", m.PageFaultRate)
	}
	if !approx(m.MissRate, 1.0/8, 1e-12) {
		t.Errorf("miss rate = %v", m.MissRate)
	}
	if !approx(m.BusBusy, 1.0/8, 1e-12) {
		t.Errorf("bus busy = %v", m.BusBusy)
	}
	if m.Records != 1 {
		t.Errorf("records = %d", m.Records)
	}
}

func TestSplitByConcurrency(t *testing.T) {
	ms := []SampleMeasures{
		{Conc: Concurrency{Defined: true}},
		{Conc: Concurrency{Defined: false}},
		{Conc: Concurrency{Defined: true}},
	}
	c, s := SplitByConcurrency(ms)
	if len(c) != 2 || len(s) != 1 {
		t.Errorf("split = %d, %d", len(c), len(s))
	}
}

func TestColumnsSkipsUndefined(t *testing.T) {
	ms := []SampleMeasures{
		{Conc: Concurrency{Defined: true, Pc: 7}, MissRate: 0.01},
		{Conc: Concurrency{Defined: false}, MissRate: 0.02},
	}
	xs, ys := Columns(ms, SelPc, SelMissRate)
	if len(xs) != 1 || xs[0] != 7 || ys[0] != 0.01 {
		t.Errorf("columns = %v, %v", xs, ys)
	}
	// Cw is always defined.
	xs, _ = Columns(ms, SelCw, SelMissRate)
	if len(xs) != 2 {
		t.Errorf("Cw columns = %v", xs)
	}
}

func TestSystemMeasureStrings(t *testing.T) {
	if MeasureMissRate.String() != "Median Miss Rate" ||
		MeasureBusBusy.String() != "Median CE Bus Busy" ||
		MeasurePageFaultRate.String() != "Median Page Fault Rate" {
		t.Error("measure names wrong")
	}
	if SystemMeasure(9).String() != "SystemMeasure(9)" {
		t.Error("unknown measure name wrong")
	}
	if SystemMeasure(9).Selector() != nil {
		t.Error("unknown measure selector should be nil")
	}
}

func TestTransitionStats(t *testing.T) {
	mk := func(ids ...int) trace.Record {
		var r trace.Record
		for _, i := range ids {
			r.Active[i] = true
		}
		return r
	}
	buffers := []trace.Buffer{
		{mk(0, 1, 2, 3, 4, 5, 6, 7)}, // 8-active: not a transition state
		{mk(0, 7), mk(0, 7), mk(0, 7)},
		{mk(0, 3, 7)},
		{mk(0)}, // serial: not a transition state
	}
	ts := AnalyzeTransitions(buffers)
	if ts.Records != 6 {
		t.Fatalf("records = %d", ts.Records)
	}
	if ts.TransitionRecords != 4 {
		t.Fatalf("transition records = %d", ts.TransitionRecords)
	}
	if ts.Num[2] != 3 || ts.Num[3] != 1 || ts.Num[8] != 1 || ts.Num[1] != 1 {
		t.Errorf("num = %v", ts.Num)
	}
	if !approx(ts.TransitionShare(2), 0.75, 1e-12) {
		t.Errorf("share(2) = %v", ts.TransitionShare(2))
	}
	if ts.TransitionShare(8) != 0 || ts.TransitionShare(1) != 0 {
		t.Error("shares outside 2..7 should be 0")
	}
	// Prof counts only transition-state records: CE0 in 4, CE7 in 4,
	// CE3 in 1.
	if ts.Prof[0] != 4 || ts.Prof[7] != 4 || ts.Prof[3] != 1 || ts.Prof[1] != 0 {
		t.Errorf("prof = %v", ts.Prof)
	}
	a, b := ts.DominantPair()
	if !(a == 0 && b == 7 || a == 7 && b == 0) {
		t.Errorf("dominant pair = %d, %d", a, b)
	}
}

func TestTransitionStatsAdd(t *testing.T) {
	var a, b TransitionStats
	var r trace.Record
	r.Active[0], r.Active[1] = true, true
	a.AddRecord(r)
	b.AddRecord(r)
	a.Add(b)
	if a.Records != 2 || a.Num[2] != 2 || a.Prof[0] != 2 {
		t.Errorf("merged = %+v", a)
	}
}

func TestTransitionShareEmpty(t *testing.T) {
	var ts TransitionStats
	if ts.TransitionShare(2) != 0 {
		t.Error("empty share should be 0")
	}
}
