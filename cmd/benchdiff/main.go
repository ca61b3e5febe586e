// Command benchdiff is the benchmark toolchain shared by make bench
// and the CI regression gate: it parses `go test -json` bench streams
// into the BENCH_<layer>.json result format, prints human-readable
// summaries, and compares two result sets (or two directories of
// them) against a regression threshold.
//
// Usage:
//
//	benchdiff -parse [-o BENCH_x.json] [FILE...]  parse bench runs (stdin default)
//	benchdiff -print FILE...                      summarize result files
//	benchdiff [-threshold 15%] [-allow-missing] OLD NEW
//	                                              compare sets; exits 1 past threshold
//
// -parse folds a benchmark named in several FILEs (repeated runs of
// one harness, say) the way -count repeats in one stream fold: the
// fastest ns/op, and each custom metric's maximum.
//
// OLD and NEW are files in any accepted form, or directories whose
// BENCH_*.json files are matched by name.  A baseline that lacks a
// benchmark (or a whole layer file) never fails the gate — every
// benchmark is new once; a benchmark that vanishes from NEW fails
// unless -allow-missing is given.
//
// Custom b.ReportMetric values (e.g. the study benchmark's speedup-x
// scaling ratio) appear in -print summaries on their benchmark's row
// and in comparisons as indented movement sub-rows; they inform but
// never gate, because a custom metric has no universal better
// direction.  -print also closes each set with a geomean ns/op line,
// the single number that tracks a layer's overall drift.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/perf"
)

func main() { cli.Main(run) }

var errRegression = errors.New("benchmark regression past threshold")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	parse := fs.Bool("parse", false, "parse go test -json bench streams into one result set")
	out := fs.String("o", "", "with -parse: write the result set to this file (default stdout)")
	print := fs.Bool("print", false, "print a summary of each result file")
	threshold := fs.String("threshold", "15%", "regression threshold, e.g. 15% or 0.15")
	allowMissing := fs.Bool("allow-missing", false, "do not fail when a baseline benchmark vanished from NEW")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	switch {
	case *parse:
		return runParse(fs.Args(), *out, stdout)
	case *print:
		return runPrint(fs.Args(), stdout)
	}

	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchdiff [-threshold 15%%] [-allow-missing] OLD NEW (or -parse / -print; see -h)")
	}
	th, err := parseThreshold(*threshold)
	if err != nil {
		return err
	}
	return runCompare(fs.Arg(0), fs.Arg(1), th, *allowMissing, stdout)
}

// runParse converts bench streams (files, or stdin when none are
// given) into one result set document, folding same-name results.
func runParse(args []string, out string, stdout io.Writer) error {
	var s perf.Set
	if len(args) == 0 {
		var err error
		if s, err = perf.Parse(os.Stdin); err != nil {
			return err
		}
	}
	for _, path := range args {
		in, err := perf.ReadFile(path)
		if err != nil {
			return err
		}
		for _, res := range in.Results {
			s.Fold(res)
		}
	}
	if out == "" {
		return s.Write(stdout)
	}
	if err := s.WriteFile(out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d benchmarks\n", out, len(s.Results))
	return nil
}

// runPrint summarizes each result file.
func runPrint(paths []string, stdout io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("-print needs at least one result file")
	}
	for _, p := range paths {
		s, err := perf.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "== %s\n", p)
		s.Summarize(stdout)
	}
	return nil
}

// runCompare diffs NEW against OLD, which are either two result files
// or two directories matched by BENCH_*.json base name.
func runCompare(oldPath, newPath string, threshold float64, allowMissing bool, stdout io.Writer) error {
	pairs, err := matchPairs(oldPath, newPath)
	if err != nil {
		return err
	}
	failed := false
	for _, p := range pairs {
		if p.oldFile == "" {
			fmt.Fprintf(stdout, "== %s: no baseline (layer is new) — skipped\n", filepath.Base(p.newFile))
			continue
		}
		if p.newFile == "" {
			fmt.Fprintf(stdout, "== %s: layer VANISHED from NEW\n", filepath.Base(p.oldFile))
			if !allowMissing {
				failed = true
				fmt.Fprintf(stdout, "FAIL: %s: %s\n", filepath.Base(p.oldFile), perf.StatusVanished)
			}
			continue
		}
		oldSet, err := perf.ReadFile(p.oldFile)
		if err != nil {
			return err
		}
		newSet, err := perf.ReadFile(p.newFile)
		if err != nil {
			return err
		}
		rep := perf.Compare(oldSet, newSet, threshold)
		fmt.Fprintf(stdout, "== %s vs %s (threshold %.0f%%)\n", p.oldFile, p.newFile, threshold*100)
		rep.Format(stdout)
		if fails := rep.Failures(allowMissing); len(fails) > 0 {
			failed = true
			for _, d := range fails {
				fmt.Fprintf(stdout, "FAIL: %s: %s\n", d.Name, d.Status)
			}
		}
	}
	if failed {
		return errRegression
	}
	fmt.Fprintln(stdout, "benchdiff: no regressions")
	return nil
}

type pair struct{ oldFile, newFile string }

// matchPairs resolves the OLD/NEW arguments: two plain files compare
// directly; two directories match their BENCH_*.json files by base
// name.  A NEW file with no OLD counterpart is reported but never
// gates (the layer is new); an OLD file with no NEW counterpart is a
// vanished layer and gates like a vanished benchmark.
func matchPairs(oldPath, newPath string) ([]pair, error) {
	oi, errOld := os.Stat(oldPath)
	ni, errNew := os.Stat(newPath)
	if errNew != nil {
		return nil, errNew
	}
	if errOld != nil {
		return nil, errOld
	}
	if oi.IsDir() != ni.IsDir() {
		return nil, fmt.Errorf("OLD and NEW must both be files or both directories")
	}
	if !ni.IsDir() {
		return []pair{{oldFile: oldPath, newFile: newPath}}, nil
	}
	news, err := filepath.Glob(filepath.Join(newPath, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	if len(news) == 0 {
		return nil, fmt.Errorf("no BENCH_*.json files in %s", newPath)
	}
	sort.Strings(news)
	matched := map[string]bool{}
	var pairs []pair
	for _, nf := range news {
		of := filepath.Join(oldPath, filepath.Base(nf))
		if _, err := os.Stat(of); err != nil {
			of = ""
		} else {
			matched[filepath.Base(nf)] = true
		}
		pairs = append(pairs, pair{oldFile: of, newFile: nf})
	}
	olds, err := filepath.Glob(filepath.Join(oldPath, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(olds)
	for _, of := range olds {
		if !matched[filepath.Base(of)] {
			pairs = append(pairs, pair{oldFile: of})
		}
	}
	return pairs, nil
}

// parseThreshold accepts "15%" or "0.15".
func parseThreshold(s string) (float64, error) {
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("invalid threshold %q (want e.g. 15%% or 0.15)", s)
	}
	if pct {
		v /= 100
	}
	return v, nil
}
