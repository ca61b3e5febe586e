package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perf"
)

func writeSet(t *testing.T, path string, pairs ...any) {
	t.Helper()
	var s perf.Set
	for i := 0; i+1 < len(pairs); i += 2 {
		s.Results = append(s.Results, perf.Result{
			Name: pairs[i].(string), NsPerOp: pairs[i+1].(float64), Iterations: 10,
		})
	}
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestParseModeWritesResultSet(t *testing.T) {
	dir := t.TempDir()
	stream := filepath.Join(dir, "stream.json")
	out := filepath.Join(dir, "BENCH_x.json")
	raw := `{"Action":"output","Output":"BenchmarkY-8 \t 200\t 5000 ns/op\n"}` + "\n"
	if err := os.WriteFile(stream, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-parse", "-o", out, stream}, &buf); err != nil {
		t.Fatal(err)
	}
	s, err := perf.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 1 || s.Results[0].Name != "BenchmarkY" || s.Results[0].NsPerOp != 5000 {
		t.Errorf("parsed set = %+v", s)
	}
}

// TestParseModeFoldsSeveralRuns: -parse over several recorded runs
// folds each benchmark as -count repeats fold — fastest ns/op, best
// custom metric — and keeps a benchmark only one run recorded.
func TestParseModeFoldsSeveralRuns(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_x.json")
	var runs []string
	for i, r := range []perf.Result{
		{Name: "BenchmarkLoad", NsPerOp: 900, Iterations: 10, Metrics: map[string]float64{"rps": 40}},
		{Name: "BenchmarkLoad", NsPerOp: 700, Iterations: 12, Metrics: map[string]float64{"rps": 30}},
		{Name: "BenchmarkOnce", NsPerOp: 50, Iterations: 3},
	} {
		path := filepath.Join(dir, fmt.Sprintf("run%d.json", i))
		if err := (perf.Set{Results: []perf.Result{r}}).WriteFile(path); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, path)
	}
	var buf bytes.Buffer
	if err := run(append([]string{"-parse", "-o", out}, runs...), &buf); err != nil {
		t.Fatal(err)
	}
	s, err := perf.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 2 {
		t.Fatalf("folded set has %d results, want 2: %+v", len(s.Results), s)
	}
	load, _ := s.Lookup("BenchmarkLoad")
	if load.NsPerOp != 700 || load.Iterations != 12 || load.Metrics["rps"] != 40 {
		t.Errorf("BenchmarkLoad folded to %+v, want the fastest run (700 ns/op, 12 iterations) with the best rps 40", load)
	}
	if once, ok := s.Lookup("BenchmarkOnce"); !ok || once.NsPerOp != 50 {
		t.Errorf("BenchmarkOnce = %+v, %v; want it kept as recorded", once, ok)
	}
}

func TestCompareFilesPassAndFail(t *testing.T) {
	dir := t.TempDir()
	oldF, newF := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeSet(t, oldF, "BenchmarkA", 1000.0)
	writeSet(t, newF, "BenchmarkA", 1100.0)

	var buf bytes.Buffer
	if err := run([]string{"-threshold", "15%", oldF, newF}, &buf); err != nil {
		t.Fatalf("+10%% should pass: %v\n%s", err, buf.String())
	}

	writeSet(t, newF, "BenchmarkA", 1300.0)
	buf.Reset()
	err := run([]string{"-threshold", "15%", oldF, newF}, &buf)
	if !errors.Is(err, errRegression) {
		t.Fatalf("+30%% should fail the gate, got %v", err)
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("output should name the regression:\n%s", buf.String())
	}
}

func TestCompareDirectoriesMatchesByName(t *testing.T) {
	oldDir, newDir := t.TempDir(), t.TempDir()
	writeSet(t, filepath.Join(oldDir, "BENCH_fx8.json"), "BenchmarkStep", 100.0)
	writeSet(t, filepath.Join(newDir, "BENCH_fx8.json"), "BenchmarkStep", 90.0)
	// A brand-new layer with no baseline must not gate.
	writeSet(t, filepath.Join(newDir, "BENCH_service.json"), "BenchmarkStudy", 5000.0)

	var buf bytes.Buffer
	if err := run([]string{oldDir, newDir}, &buf); err != nil {
		t.Fatalf("compare failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no baseline") {
		t.Errorf("new layer should be reported as skipped:\n%s", buf.String())
	}
}

func TestVanishedLayerFileGatesUnlessAllowed(t *testing.T) {
	oldDir, newDir := t.TempDir(), t.TempDir()
	writeSet(t, filepath.Join(oldDir, "BENCH_fx8.json"), "BenchmarkStep", 100.0)
	writeSet(t, filepath.Join(oldDir, "BENCH_core.json"), "BenchmarkSession", 100.0)
	writeSet(t, filepath.Join(newDir, "BENCH_fx8.json"), "BenchmarkStep", 100.0)

	var buf bytes.Buffer
	err := run([]string{oldDir, newDir}, &buf)
	if !errors.Is(err, errRegression) {
		t.Fatalf("a layer file missing from NEW should gate, got %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "BENCH_core.json") {
		t.Errorf("output should name the vanished layer:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"-allow-missing", oldDir, newDir}, &buf); err != nil {
		t.Fatalf("-allow-missing should pass: %v\n%s", err, buf.String())
	}
}

func TestVanishedBenchmarkGatesUnlessAllowed(t *testing.T) {
	dir := t.TempDir()
	oldF, newF := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeSet(t, oldF, "BenchmarkA", 1000.0, "BenchmarkGone", 1000.0)
	writeSet(t, newF, "BenchmarkA", 1000.0)

	var buf bytes.Buffer
	if err := run([]string{oldF, newF}, &buf); !errors.Is(err, errRegression) {
		t.Fatalf("vanished benchmark should gate, got %v", err)
	}
	buf.Reset()
	if err := run([]string{"-allow-missing", oldF, newF}, &buf); err != nil {
		t.Fatalf("-allow-missing should pass: %v\n%s", err, buf.String())
	}
}

func TestPrintSummarizes(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "BENCH_core.json")
	writeSet(t, f, "BenchmarkRunRandomSession", 14_000_000.0)
	var buf bytes.Buffer
	if err := run([]string{"-print", f}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BenchmarkRunRandomSession") {
		t.Errorf("summary missing benchmark name:\n%s", buf.String())
	}
}

func TestThresholdParsing(t *testing.T) {
	for in, want := range map[string]float64{"15%": 0.15, "0.15": 0.15, "20%": 0.20} {
		got, err := parseThreshold(in)
		if err != nil || got != want {
			t.Errorf("parseThreshold(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseThreshold("nope"); err == nil {
		t.Error("bad threshold should error")
	}
}

func TestPrintShowsMetricsAndGeomean(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "BENCH_study.json")
	s := perf.Set{Results: []perf.Result{
		{Name: "BenchmarkRunStudy/workers=1", NsPerOp: 900_000_000, Iterations: 2},
		{Name: "BenchmarkRunStudy/workers=max", NsPerOp: 280_000_000, Iterations: 2,
			Metrics: map[string]float64{"speedup-x": 3.21}},
	}}
	if err := s.WriteFile(f); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-print", f}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "speedup-x") {
		t.Errorf("-print omits custom metric:\n%s", out)
	}
	if !strings.Contains(out, "geomean") {
		t.Errorf("-print omits geomean line:\n%s", out)
	}
}

func TestCompareShowsMetricMovement(t *testing.T) {
	dir := t.TempDir()
	oldF := filepath.Join(dir, "old.json")
	newF := filepath.Join(dir, "new.json")
	old := perf.Set{Results: []perf.Result{
		{Name: "BenchmarkRunStudy/workers=max", NsPerOp: 900, Iterations: 2,
			Metrics: map[string]float64{"speedup-x": 1.0}},
	}}
	cur := perf.Set{Results: []perf.Result{
		{Name: "BenchmarkRunStudy/workers=max", NsPerOp: 850, Iterations: 2,
			Metrics: map[string]float64{"speedup-x": 3.4}},
	}}
	if err := old.WriteFile(oldF); err != nil {
		t.Fatal(err)
	}
	if err := cur.WriteFile(newF); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{oldF, newF}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "metric speedup-x") {
		t.Errorf("compare output omits metric movement:\n%s", buf.String())
	}
}
