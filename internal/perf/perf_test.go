package perf

import (
	"bytes"
	"strings"
	"testing"
)

const streamFixture = `{"Action":"start","Package":"repro"}
{"Action":"output","Package":"repro","Output":"goos: linux\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkClusterStep-8   \t  123456\t      9876 ns/op\t     144 B/op\t       3 allocs/op\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkSession-8   \t     100\t  17807386 ns/op\t 1934659 B/op\t    4887 allocs/op\t   0.350 Cw\n"}
{"Action":"output","Package":"repro","Output":"PASS\n"}
{"Action":"pass","Package":"repro"}
`

func TestParseStream(t *testing.T) {
	s, err := Parse(strings.NewReader(streamFixture))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(s.Results))
	}
	r := s.Results[0]
	if r.Name != "BenchmarkClusterStep" || r.Iterations != 123456 || r.NsPerOp != 9876 ||
		r.BytesPerOp != 144 || r.AllocsPerOp != 3 {
		t.Errorf("first result = %+v", r)
	}
	if s.Results[1].Metrics["Cw"] != 0.350 {
		t.Errorf("custom metric lost: %+v", s.Results[1])
	}
}

func TestParsePlainTextAndCountFolding(t *testing.T) {
	text := `goos: linux
BenchmarkX-16   	100	 2000 ns/op
BenchmarkX-16   	100	 1500 ns/op
BenchmarkX-16   	100	 1800 ns/op
PASS
`
	s, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 1 {
		t.Fatalf("results = %d, want 1 (folded)", len(s.Results))
	}
	if s.Results[0].Name != "BenchmarkX" || s.Results[0].NsPerOp != 1500 {
		t.Errorf("folded result = %+v, want min ns/op 1500", s.Results[0])
	}
}

func TestRoundTrip(t *testing.T) {
	s, err := Parse(strings.NewReader(streamFixture))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != len(s.Results) {
		t.Fatalf("round trip lost results: %d vs %d", len(back.Results), len(s.Results))
	}
	for i := range s.Results {
		a, b := s.Results[i], back.Results[i]
		if a.Name != b.Name || a.NsPerOp != b.NsPerOp || a.AllocsPerOp != b.AllocsPerOp {
			t.Errorf("result %d changed: %+v vs %+v", i, a, b)
		}
	}
}

func TestParseRejectsUnknownVersion(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"version": 99, "results": []}`)); err == nil {
		t.Fatal("version 99 should be rejected")
	}
}

func set(pairs ...any) Set {
	s := Set{Version: setVersion}
	for i := 0; i+1 < len(pairs); i += 2 {
		s.Results = append(s.Results, Result{Name: pairs[i].(string), NsPerOp: pairs[i+1].(float64), Iterations: 1})
	}
	return s
}

func TestCompareClassification(t *testing.T) {
	oldSet := set("A", 1000.0, "B", 1000.0, "C", 1000.0, "D", 1000.0)
	newSet := set("A", 1100.0, "B", 1200.0, "C", 700.0, "E", 50.0)
	rep := Compare(oldSet, newSet, 0.15)

	want := map[string]Status{
		"A": StatusOK,         // +10% within 15%
		"B": StatusRegression, // +20%
		"C": StatusFaster,     // -30%
		"D": StatusVanished,
		"E": StatusNew,
	}
	if len(rep.Deltas) != len(want) {
		t.Fatalf("deltas = %d, want %d", len(rep.Deltas), len(want))
	}
	for _, d := range rep.Deltas {
		if want[d.Name] != d.Status {
			t.Errorf("%s: status = %s, want %s", d.Name, d.Status, want[d.Name])
		}
	}

	fails := rep.Failures(false)
	if len(fails) != 2 {
		t.Errorf("failures = %+v, want regression B and vanished D", fails)
	}
	fails = rep.Failures(true)
	if len(fails) != 1 || fails[0].Name != "B" {
		t.Errorf("failures(allowMissing) = %+v, want only B", fails)
	}
}

func TestCompareExactThresholdPasses(t *testing.T) {
	rep := Compare(set("A", 1000.0), set("A", 1150.0), 0.15)
	if rep.Deltas[0].Status != StatusOK {
		t.Errorf("exactly +15%% should pass, got %s", rep.Deltas[0].Status)
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":         "BenchmarkX",
		"BenchmarkX-128":       "BenchmarkX",
		"BenchmarkX/sub=2-8":   "BenchmarkX/sub=2",
		"BenchmarkNoSuffix":    "BenchmarkNoSuffix",
		"BenchmarkDash-suffix": "BenchmarkDash-suffix",
	} {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompareCarriesMetricDeltas(t *testing.T) {
	oldSet := Set{Version: 1, Results: []Result{
		{Name: "BenchmarkRunStudy/workers=max", NsPerOp: 900, Metrics: map[string]float64{"speedup-x": 1.0}},
	}}
	newSet := Set{Version: 1, Results: []Result{
		{Name: "BenchmarkRunStudy/workers=max", NsPerOp: 300, Metrics: map[string]float64{"speedup-x": 3.2, "extra": 7}},
	}}
	rep := Compare(oldSet, newSet, 0.15)
	if len(rep.Deltas) != 1 {
		t.Fatalf("deltas = %d", len(rep.Deltas))
	}
	m := rep.Deltas[0].Metrics
	if len(m) != 2 {
		t.Fatalf("metric deltas = %+v, want union of 2 units", m)
	}
	// Sorted by unit: extra before speedup-x.
	if m[0].Unit != "extra" || m[0].Old != 0 || m[0].New != 7 {
		t.Errorf("extra delta = %+v", m[0])
	}
	if m[1].Unit != "speedup-x" || m[1].Old != 1.0 || m[1].New != 3.2 {
		t.Errorf("speedup delta = %+v", m[1])
	}
	var buf bytes.Buffer
	rep.Format(&buf)
	out := buf.String()
	if !strings.Contains(out, "speedup-x") || !strings.Contains(out, "3.2") {
		t.Errorf("formatted report omits metric movement:\n%s", out)
	}
	// Metrics never gate.
	if fails := rep.Failures(false); len(fails) != 0 {
		t.Errorf("metric movement gated the report: %+v", fails)
	}
}

func TestSummarizeMetricsAndGeomean(t *testing.T) {
	s := Set{Version: 1, Results: []Result{
		{Name: "BenchmarkA", Iterations: 10, NsPerOp: 100},
		{Name: "BenchmarkB", Iterations: 10, NsPerOp: 400, Metrics: map[string]float64{"speedup-x": 3.1}},
	}}
	gm, n := s.GeomeanNsPerOp()
	if n != 2 || gm < 199.9 || gm > 200.1 {
		t.Errorf("geomean = %v over %d, want 200 over 2", gm, n)
	}
	var buf bytes.Buffer
	s.Summarize(&buf)
	out := buf.String()
	if !strings.Contains(out, "speedup-x") {
		t.Errorf("summary omits custom metric:\n%s", out)
	}
	if !strings.Contains(out, "geomean") || !strings.Contains(out, "(over 2 benchmarks)") {
		t.Errorf("summary omits geomean line:\n%s", out)
	}
}

func TestGeomeanEmptySet(t *testing.T) {
	if gm, n := (Set{}).GeomeanNsPerOp(); gm != 0 || n != 0 {
		t.Errorf("empty set geomean = %v, %d", gm, n)
	}
	var buf bytes.Buffer
	(Set{}).Summarize(&buf)
	if strings.Contains(buf.String(), "geomean") {
		t.Error("empty set should not print a geomean line")
	}
}

func TestCountFoldingKeepsBestMetrics(t *testing.T) {
	text := `BenchmarkRunStudy/workers=max-8   	1	 900 ns/op	 2.1 speedup-x
BenchmarkRunStudy/workers=max-8   	1	 800 ns/op	 1.4 speedup-x
BenchmarkRunStudy/workers=max-8   	1	 850 ns/op	 3.0 speedup-x
PASS
`
	s, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 1 {
		t.Fatalf("results = %d, want 1 (folded)", len(s.Results))
	}
	r := s.Results[0]
	if r.NsPerOp != 800 {
		t.Errorf("folded ns/op = %v, want fastest 800", r.NsPerOp)
	}
	if r.Metrics["speedup-x"] != 3.0 {
		t.Errorf("folded speedup-x = %v, want best 3.0 (not the fastest repeat's 1.4)", r.Metrics["speedup-x"])
	}
}

// TestFoldKeepsBestOfEachMetric folds three recorded loadgen-style
// runs: lower-is-better units (latency percentiles, error and shed
// rates, ns/cycle) keep their minimum, the rest their maximum.
func TestFoldKeepsBestOfEachMetric(t *testing.T) {
	var s Set
	for _, m := range []map[string]float64{
		{"p95-ms": 0.39, "p99-ms": 0.80, "err-rate": 0.02, "shed-rate": 0.10, "server-shed": 4, "ns/cycle": 140, "rps": 900, "saturation-rps": 1200, "server-hit-rate": 0.90, "speedup-x": 1.8},
		{"p95-ms": 0.37, "p99-ms": 0.95, "err-rate": 0.00, "shed-rate": 0.30, "server-shed": 1, "ns/cycle": 150, "rps": 950, "saturation-rps": 1100, "server-hit-rate": 0.95, "speedup-x": 1.6},
		{"p95-ms": 0.42, "p99-ms": 0.70, "err-rate": 0.01, "shed-rate": 0.05, "server-shed": 9, "ns/cycle": 130, "rps": 870, "saturation-rps": 1300, "server-hit-rate": 0.85, "speedup-x": 1.9},
	} {
		s.Fold(Result{Name: "LoadSteadyArtefacts", Iterations: 1, NsPerOp: 1e5, Metrics: m})
	}
	want := map[string]float64{
		"p95-ms": 0.37, "p99-ms": 0.70, "err-rate": 0.00, "shed-rate": 0.05, "server-shed": 1, "ns/cycle": 130,
		"rps": 950, "saturation-rps": 1300, "server-hit-rate": 0.95, "speedup-x": 1.9,
	}
	if len(s.Results) != 1 {
		t.Fatalf("results = %d, want 1 (folded)", len(s.Results))
	}
	for unit, v := range want {
		if got := s.Results[0].Metrics[unit]; got != v {
			t.Errorf("folded %s = %v, want %v", unit, got, v)
		}
	}
}

func TestParseReportsOverlongLine(t *testing.T) {
	// A single line longer than the 1 MiB scanner buffer must be a
	// parse error, not a silently truncated set.
	text := "BenchmarkA-8 \t10\t100 ns/op\n" + strings.Repeat("x", 2<<20) + "\nBenchmarkB-8 \t10\t200 ns/op\n"
	if _, err := Parse(strings.NewReader(text)); err == nil {
		t.Error("over-long line parsed without error (set would be silently truncated)")
	}
}
