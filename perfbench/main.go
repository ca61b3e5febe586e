// Command perfbench is the repository's benchmark.  Each workload
// drives one part of the system end to end from seeded inputs, checks
// every output it gets against a local or pinned reference, and prints
// one JSON result line:
//
//	campaign-paper  the paper-scale campaign, cold then reloaded
//	fleet-jobs      study, sweep and session jobs on a two-backend fleet
//	serve-open      open-loop reads and unit writes against one fx8d
//
// Usage (run from the repository root; see README.md in this
// directory):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	perfbench compare OLD.json NEW.json
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, from
// spans recorded around the benchmark's own calls into each package.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind: result files, spans and
// per-run scratch directories.  It is relative to the repository root.
const outDir = ".bench_build/perfbench"

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	dir      string  // scratch directory, removed at exit
	tr       *tracer // nil unless traced

	attempted, failed int
	failures          []string

	fingerprints map[string]string // EncodeStudy sha256 by campaign scale

	samples map[string][]float64 // the measurements behind a median

	e2e   map[string]float64 // end-to-end metrics, untraced measurements
	layer map[string]float64 // per-layer metrics, from the traced passes
	spans []span
}

// op books one attempted operation and, when err is non-nil, its
// failure.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// check books a correctness check that is not itself an operation.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

var workloads = map[string]func(*run) error{
	"campaign-paper": campaignPaper,
	"fleet-jobs":     fleetJobs,
	"serve-open":     serveOpen,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchmark(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: campaign-paper, fleet-jobs or serve-open")
	seed := fs.Uint64("seed", 1987, "input seed")
	secs := fs.Int("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (valid: campaign-paper, fleet-jobs, serve-open)", *name)
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	decl, err := readDecl("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{
		workload: *name, seed: *seed, window: time.Duration(*secs) * time.Second,
		trace: *trace == 1, dir: dir,
		fingerprints: map[string]string{}, samples: map[string][]float64{},
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if r.trace {
		r.tr = newTracer()
	}
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	r.e2e["max_rss_mb"] = maxRSSMB()
	// The read tail is reported beside the per-layer metrics, not
	// gated: on a shared two-CPU host its spread across seeds exceeds
	// the largest bound a gated metric may have.
	if v, ok := r.e2e["read_p99_ms"]; ok && r.trace {
		r.layer["tail.read_p99_ms"] = v
	}

	section := decl.EndToEnd
	values := r.e2e
	if r.trace {
		section, values = decl.PerLayer, r.layer
	}
	metrics := make(map[string]any, len(section))
	for _, m := range section {
		v, ok := values[m.Name]
		if !ok && !r.trace {
			r.check(false, "end-to-end metric %s not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	if err := saveResult(r, decl); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func readDecl(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, fmt.Errorf("reading metric declarations: %w", err)
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("parsing %s: %w", path, err)
	}
	return b, nil
}

// pacer paces a run's repeated passes: a pass starts while the window
// is open, and the first min passes start regardless.
type pacer struct {
	deadline time.Time
	n, min   int
}

func newPacer(window time.Duration, min int) *pacer {
	return &pacer{deadline: time.Now().Add(window), min: min}
}

func (p *pacer) next() bool {
	if p.n >= p.min && time.Now().After(p.deadline) {
		return false
	}
	p.n++
	return true
}

const (
	// setupRepeats is how many set-up samples a run takes at least; it
	// reports their median.
	setupRepeats = 5
	// setupBoots is how many daemon set-ups one sample of fleet-jobs
	// or serve-open times back to back: one boot takes a few
	// milliseconds, and a collection or a scheduling delay can double
	// it, so a single boot is too short to time steadily.
	setupBoots = 100
)

// bootSample is one set-up sample of a daemon workload: the summed
// time of setupBoots boots after a forced collection, each in a fresh
// directory under dir and stopped after its clock stops.
func bootSample(dir string, boot func(dir string) (stop func(), err error)) (float64, error) {
	dir, err := os.MkdirTemp(dir, "setup-")
	if err != nil {
		return 0, err
	}
	runtime.GC()
	var total time.Duration
	for k := 0; k < setupBoots; k++ {
		var stop func()
		total += timed(func() { stop, err = boot(filepath.Join(dir, fmt.Sprint(k))) })
		if err != nil {
			return 0, err
		}
		stop()
	}
	return seconds(total), nil
}

// maxRSSMB returns the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// host identifies the machine and build a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     os.Getenv("PERFBENCH_COMMIT"),
		CPU:        "unknown",
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// result is the file form of a run, written beside the spans.
type result struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Host      host                 `json:"host"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Studies   map[string]string    `json:"study_sha256"`
	EndToEnd  map[string]float64   `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer,omitempty"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Units     map[string]string    `json:"units"`
	Spans     string               `json:"spans,omitempty"`
}

func saveResult(r *run, decl benchmarkFile) error {
	mode := "untraced"
	if r.trace {
		mode = "traced"
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%s", r.workload, r.seed, mode))
	res := result{
		Workload: r.workload, Seed: r.seed, Seconds: r.window.Seconds(), Trace: r.trace,
		Host: hostInfo(), Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Failures: r.failures, Studies: r.fingerprints, EndToEnd: finite(r.e2e), Units: map[string]string{},
		Samples: r.samples,
	}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		res.Units[m.Name] = m.Unit
	}
	if r.trace {
		res.PerLayer = finite(r.layer)
		res.Spans = base + ".spans.json"
		if err := writeSpans(res.Spans, r.spans); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", data, 0o644)
}

// finite drops NaN and infinite values, which JSON cannot carry.
func finite(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

// compare prints the metrics two result files share, old beside new,
// and warns when they were measured on different hosts.
func compare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare OLD.json NEW.json")
	}
	var rs [2]result
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := rs[0].Host, rs[1].Host
	if a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS || a.CPU != b.CPU || a.GoVersion != b.GoVersion {
		fmt.Fprintf(w, "WARNING: results come from different hosts:\n  old: %+v\n  new: %+v\n", a, b)
	}
	old, cur := merged(rs[0]), merged(rs[1])
	names := make([]string, 0, len(old))
	for k := range old {
		if _, ok := cur[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		delta := math.NaN()
		if old[k] != 0 {
			delta = (cur[k] - old[k]) / old[k] * 100
		}
		fmt.Fprintf(w, "%-40s %14.6g %14.6g %+8.2f%% %s\n", k, old[k], cur[k], delta, rs[1].Units[k])
	}
	return nil
}

func merged(r result) map[string]float64 {
	out := make(map[string]float64, len(r.EndToEnd)+len(r.PerLayer))
	for k, v := range r.EndToEnd {
		out[k] = v
	}
	for k, v := range r.PerLayer {
		out[k] = v
	}
	return out
}
