// Package perf is the benchmark-result model shared by make bench,
// cmd/benchdiff and the CI regression gate: it parses `go test -json`
// benchmark events into compact result sets, reads and writes the
// per-layer BENCH_<layer>.json files, and diffs two sets against a
// configurable regression threshold.  Keeping one code path for
// humans and CI means the gate can never drift from what a developer
// sees locally.
package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measured cost: the quantities the study's
// instrumentation-first methodology tracks for every layer of the
// stack.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix
	// stripped, so results compare across machines.
	Name string `json:"name"`

	// Iterations is the b.N the numbers were averaged over.
	Iterations int64 `json:"iterations"`

	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`

	// Metrics holds any custom b.ReportMetric values.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Set is a collection of benchmark results — the content of one
// BENCH_<layer>.json file.
type Set struct {
	Version int      `json:"version"`
	Results []Result `json:"results"`
}

// setVersion is the current Set file format version.
const setVersion = 1

// Lookup returns the result with the given (normalized) name.
func (s Set) Lookup(name string) (Result, bool) {
	for _, r := range s.Results {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// testEvent is the subset of a test2json event the parser needs.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// Parse reads benchmark results from r, accepting any of the three
// forms the toolchain produces: a `go test -json` event stream, plain
// `go test -bench` text, or an already-parsed Set document.  Repeated
// runs of the same benchmark (-count=N) are folded to the minimum
// ns/op — the standard noise reduction for regression gating.
func Parse(r io.Reader) (Set, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Set{}, fmt.Errorf("perf: reading input: %w", err)
	}
	trimmed := strings.TrimSpace(string(data))
	if trimmed == "" {
		return Set{Version: setVersion}, nil
	}

	// An already-parsed Set round-trips unchanged.
	if strings.HasPrefix(trimmed, "{") && strings.Contains(trimmed, "\"version\"") {
		var s Set
		if err := json.Unmarshal([]byte(trimmed), &s); err == nil && s.Version != 0 {
			if s.Version != setVersion {
				return Set{}, fmt.Errorf("perf: unsupported result set version %d", s.Version)
			}
			return s, nil
		}
	}

	// A test2json stream is one JSON object per line; reassembling
	// the Output payloads reproduces the plain-text bench output.
	var text strings.Builder
	stream := true
	sc := bufio.NewScanner(strings.NewReader(trimmed))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			stream = false
			break
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	// A scanner error (an over-long line) would silently truncate the
	// set; a truncated PR-side file makes baseline benchmarks read as
	// VANISHED in the gate, so surface the real failure instead.
	if err := sc.Err(); err != nil {
		return Set{}, fmt.Errorf("perf: scanning input: %w", err)
	}
	if !stream {
		text.Reset()
		text.WriteString(trimmed)
	}
	return parseText(text.String())
}

// parseText scans plain benchmark output lines.
func parseText(text string) (Set, error) {
	s := Set{Version: setVersion}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if res, ok := parseBenchLine(sc.Text()); ok {
			s.Fold(res)
		}
	}
	if err := sc.Err(); err != nil {
		return Set{}, fmt.Errorf("perf: scanning bench text: %w", err)
	}
	return s, nil
}

// Fold adds res to the set, folding it into a same-name result as a
// repeat run — -count repeats in one bench stream, or the same
// benchmark across several recorded runs.  ns/op (with its B/op,
// allocs/op and iteration count) keeps the fastest run, and each
// custom metric independently keeps its best value across repeats:
// the minimum of a lower-is-better unit (see lowerIsBetter), the
// maximum of any other — mirroring fold-to-fastest.  Taking the
// fastest run's metrics wholesale would instead record whichever
// repeat happened to win on ns/op: for a ratio metric like the study
// benchmark's speedup-x (measured against that repeat's own baseline)
// that is just noise, not the benchmark's demonstrated best.
func (s *Set) Fold(res Result) {
	for i, prev := range s.Results {
		if prev.Name != res.Name {
			continue
		}
		if res.NsPerOp < prev.NsPerOp {
			merged := res
			merged.Metrics = foldMetrics(res.Metrics, prev.Metrics)
			s.Results[i] = merged
		} else {
			s.Results[i].Metrics = foldMetrics(prev.Metrics, res.Metrics)
		}
		return
	}
	s.Results = append(s.Results, res)
}

// foldMetrics merges two repeats' custom metrics, keeping the best of
// each unit (missing units pass through).  base may be mutated and
// returned.
func foldMetrics(base, other map[string]float64) map[string]float64 {
	if len(other) == 0 {
		return base
	}
	if base == nil {
		base = make(map[string]float64, len(other))
	}
	for u, v := range other {
		cur, ok := base[u]
		if !ok || lowerIsBetter(u) && v < cur || !lowerIsBetter(u) && v > cur {
			base[u] = v
		}
	}
	return base
}

// lowerIsBetter reports whether a custom metric unit improves as it
// falls: times (ns/cycle, p95-ms, p99-ms) and failures (err-rate,
// shed-rate, server-shed).  Rates, ratios, speedups and counts of work
// done improve as they rise.
func lowerIsBetter(unit string) bool {
	switch unit {
	case "err-rate", "shed-rate", "server-shed":
		return true
	}
	return strings.HasPrefix(unit, "ns/") || strings.HasSuffix(unit, "-ms")
}

// parseBenchLine parses one `BenchmarkName-8  <N>  <value> <unit>...`
// line.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: normalizeName(fields[0]), Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
			seen = true
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = v
		}
	}
	return res, seen
}

// normalizeName strips the trailing -GOMAXPROCS suffix so result
// names are stable across machines with different core counts.
func normalizeName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// ReadFile loads a result set from path (any form Parse accepts).
func ReadFile(path string) (Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return Set{}, err
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		return Set{}, fmt.Errorf("perf: %s: %w", path, err)
	}
	return s, nil
}

// Write encodes the set as the BENCH_<layer>.json document.
func (s Set) Write(w io.Writer) error {
	s.Version = setVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// WriteFile writes the set to path.
func (s Set) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Status classifies one benchmark's movement between two sets.
type Status string

const (
	// StatusOK means the change is within the threshold.
	StatusOK Status = "ok"

	// StatusFaster means ns/op improved by more than the threshold.
	StatusFaster Status = "faster"

	// StatusRegression means ns/op worsened past the threshold.
	StatusRegression Status = "REGRESSION"

	// StatusNew means the benchmark has no baseline (never a
	// failure: every benchmark is new once).
	StatusNew Status = "new"

	// StatusVanished means the baseline benchmark is missing from
	// the new set — a failure unless explicitly allowed, because a
	// deleted benchmark is how a regression hides.
	StatusVanished Status = "VANISHED"
)

// MetricDelta is the movement of one custom b.ReportMetric value
// between two sets.  Custom metrics have no universal better
// direction (speedup-x rises when things improve, a latency metric
// falls), so they inform the report but never gate it.
type MetricDelta struct {
	Unit string
	Old  float64
	New  float64
}

// Delta is one benchmark's comparison row.
type Delta struct {
	Name   string
	Old    float64 // baseline ns/op (0 when new)
	New    float64 // current ns/op (0 when vanished)
	Ratio  float64 // New/Old when both present
	Status Status

	// Metrics are the custom-metric movements for benchmarks present
	// in both sets (union of units; a side that lacks the unit
	// reports 0).
	Metrics []MetricDelta
}

// Report is the outcome of comparing two sets.
type Report struct {
	Threshold float64 // regression threshold as a fraction (0.15 = 15%)
	Deltas    []Delta
}

// Compare diffs a new result set against a baseline: a benchmark
// regresses when its ns/op exceeds the baseline by more than the
// threshold fraction.
func Compare(oldSet, newSet Set, threshold float64) Report {
	rep := Report{Threshold: threshold}
	for _, o := range oldSet.Results {
		d := Delta{Name: o.Name, Old: o.NsPerOp}
		n, ok := newSet.Lookup(o.Name)
		if !ok {
			d.Status = StatusVanished
			rep.Deltas = append(rep.Deltas, d)
			continue
		}
		d.New = n.NsPerOp
		if o.NsPerOp > 0 {
			d.Ratio = n.NsPerOp / o.NsPerOp
		}
		d.Metrics = metricDeltas(o.Metrics, n.Metrics)
		switch {
		case d.Ratio > 1+threshold:
			d.Status = StatusRegression
		case d.Ratio < 1-threshold:
			d.Status = StatusFaster
		default:
			d.Status = StatusOK
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	for _, n := range newSet.Results {
		if _, ok := oldSet.Lookup(n.Name); !ok {
			rep.Deltas = append(rep.Deltas, Delta{Name: n.Name, New: n.NsPerOp, Status: StatusNew})
		}
	}
	sort.SliceStable(rep.Deltas, func(i, j int) bool { return rep.Deltas[i].Name < rep.Deltas[j].Name })
	return rep
}

// metricDeltas pairs the custom metrics of two results over the
// union of their units, sorted by unit name for stable output.
func metricDeltas(oldM, newM map[string]float64) []MetricDelta {
	if len(oldM) == 0 && len(newM) == 0 {
		return nil
	}
	units := map[string]bool{}
	for u := range oldM {
		units[u] = true
	}
	for u := range newM {
		units[u] = true
	}
	names := make([]string, 0, len(units))
	for u := range units {
		names = append(names, u)
	}
	sort.Strings(names)
	out := make([]MetricDelta, 0, len(names))
	for _, u := range names {
		out = append(out, MetricDelta{Unit: u, Old: oldM[u], New: newM[u]})
	}
	return out
}

// Failures returns the deltas that should fail a gate: regressions
// always, vanished benchmarks unless allowMissing.
func (r Report) Failures(allowMissing bool) []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Status == StatusRegression || (d.Status == StatusVanished && !allowMissing) {
			out = append(out, d)
		}
	}
	return out
}

// Format renders the report as an aligned text table.  Custom-metric
// movements print as indented sub-rows under their benchmark; they
// are informational and never gate.
func (r Report) Format(w io.Writer) {
	for _, d := range r.Deltas {
		switch d.Status {
		case StatusNew:
			fmt.Fprintf(w, "%-60s %14s %12.0f ns/op  %s\n", d.Name, "-", d.New, d.Status)
		case StatusVanished:
			fmt.Fprintf(w, "%-60s %12.0f ns/op %12s  %s\n", d.Name, d.Old, "-", d.Status)
		default:
			fmt.Fprintf(w, "%-60s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n",
				d.Name, d.Old, d.New, (d.Ratio-1)*100, d.Status)
			for _, m := range d.Metrics {
				change := ""
				if m.Old != 0 {
					change = fmt.Sprintf("  %+6.1f%%", (m.New/m.Old-1)*100)
				}
				fmt.Fprintf(w, "    metric %-43s %12.4g -> %12.4g %s%s\n",
					m.Unit, m.Old, m.New, m.Unit, change)
			}
		}
	}
}

// Summarize renders a set as the human-readable summary make bench
// prints: one row per benchmark (custom metrics appended to their
// row) and a closing geomean line over ns/op, the single number that
// tracks a layer's overall drift.
func (s Set) Summarize(w io.Writer) {
	for _, r := range s.Results {
		fmt.Fprintf(w, "%-60s %12d iters %14.0f ns/op", r.Name, r.Iterations, r.NsPerOp)
		if r.BytesPerOp > 0 || r.AllocsPerOp > 0 {
			fmt.Fprintf(w, " %12.0f B/op %8.0f allocs/op", r.BytesPerOp, r.AllocsPerOp)
		}
		for _, u := range sortedMetricUnits(r.Metrics) {
			fmt.Fprintf(w, " %10.4g %s", r.Metrics[u], u)
		}
		fmt.Fprintln(w)
	}
	if gm, n := s.GeomeanNsPerOp(); n > 0 {
		fmt.Fprintf(w, "%-60s %12s       %14.0f ns/op (over %d benchmarks)\n", "geomean", "", gm, n)
	}
}

func sortedMetricUnits(m map[string]float64) []string {
	if len(m) == 0 {
		return nil
	}
	units := make([]string, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}

// GeomeanNsPerOp returns the geometric mean of ns/op over the set's
// benchmarks with a positive ns/op, and how many contributed.  The
// geometric mean is the standard cross-benchmark aggregate: a 2x
// regression and a 2x improvement cancel regardless of the
// benchmarks' absolute magnitudes.
func (s Set) GeomeanNsPerOp() (geomean float64, n int) {
	sumLog := 0.0
	for _, r := range s.Results {
		if r.NsPerOp > 0 {
			sumLog += math.Log(r.NsPerOp)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(sumLog / float64(n)), n
}
