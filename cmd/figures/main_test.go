package main

import (
	"strings"
	"testing"

	"repro/internal/cli/clitest"
)

func TestRunSingleFigure(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scale", "quick", "-only", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "Figure 3") {
		t.Errorf("output missing Figure 3 title:\n%s", got)
	}
}

func TestRunAllFiguresSharesCampaign(t *testing.T) {
	// The campaign is memoized by config, so this reuses the
	// TestRunSingleFigure campaign instead of re-running it.
	var out strings.Builder
	if err := run([]string{"-scale", "quick"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Figure 3", "Figure 14", "Figure B.10"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scale", "bogus"}, &out); err == nil {
		t.Error("unknown scale should error")
	}
	if err := run([]string{"-scale", "quick", "-only", "nope"}, &out); err == nil {
		t.Error("unknown figure should error")
	}
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag should error")
	}
}

// TestRunBackendsMatchesLocal: the quick campaign's figures are
// byte-identical through a two-backend fleet, with and without
// -cache, and a stored campaign never touches the fleet.
func TestRunBackendsMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("two fleet campaigns in -short mode")
	}
	clitest.CheckFleetRuns(t, run, "-scale", "quick")
}
