package main

import (
	"strings"
	"testing"

	"repro/internal/cli/clitest"
)

func TestRunCESweep(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kind", "ce", "-samples", "1", "-seed", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"CE count", "CEs=1", "CEs=8"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunWorkerCountInvariant(t *testing.T) {
	render := func(workers string) string {
		var out strings.Builder
		if err := run([]string{"-kind", "ce", "-samples", "1", "-workers", workers}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if seq, par := render("1"), render("4"); seq != par {
		t.Errorf("-workers changed sweep output:\nseq:\n%s\npar:\n%s", seq, par)
	}
}

// TestRunBackendsSmoke: -backends with no live daemon still renders
// the sweep (units fall back to local compute).  A distinct seed
// keeps this run out of the process-wide sweep memo the other tests
// populate.
func TestRunBackendsSmoke(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-kind", "ce", "-samples", "1", "-seed", "23",
		"-backends", "127.0.0.1:1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"CEs=1", "CEs=8"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kind", "bogus"}, &out); err == nil {
		t.Error("unknown kind should error")
	}
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag should error")
	}
}

// TestRunBackendsMatchesLocal: a sweep through a live fleet matches
// the local sweep.  A distinct seed keeps these runs out of the
// process-wide sweep memo the other tests populate.
func TestRunBackendsMatchesLocal(t *testing.T) {
	clitest.CheckFleetRuns(t, run, "-kind", "ce", "-samples", "1", "-seed", "29")
}
