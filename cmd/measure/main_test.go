package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli/clitest"
)

func TestRunRandomSession(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mode", "random", "-samples", "2", "-seed", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"random: 1 sessions, 2 samples", "num_8", "Cw ="} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunParallelSessionsMatchSequential(t *testing.T) {
	render := func(workers string) string {
		var out strings.Builder
		err := run([]string{"-mode", "random", "-samples", "1", "-seed", "7",
			"-sessions", "3", "-workers", workers}, &out)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	seq, par := render("1"), render("8")
	if seq != par {
		t.Errorf("-workers changed the output:\nseq:\n%s\npar:\n%s", seq, par)
	}
	if !strings.Contains(seq, "random: 3 sessions") {
		t.Errorf("session count missing:\n%s", seq)
	}
}

func TestRunTransitionMode(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mode", "transition", "-samples", "1", "-seed", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "transition: 1 sessions") {
		t.Errorf("header missing:\n%s", got)
	}
}

// TestRunCacheRoundTrip proves -cache: the second invocation restores
// the sessions from the store and prints identical output.
func TestRunCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	render := func() string {
		var out strings.Builder
		err := run([]string{"-mode", "transition", "-samples", "1", "-seed", "5", "-cache", dir}, &out)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	first := render()
	entries, err := filepath.Glob(filepath.Join(dir, "*.fx8s"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("store entries after first run = %v, %v; want one", entries, err)
	}
	info1, _ := os.Stat(entries[0])
	if second := render(); second != first {
		t.Errorf("cached run output differs:\n%s\nvs\n%s", first, second)
	}
	info2, _ := os.Stat(entries[0])
	if info1.ModTime() != info2.ModTime() {
		t.Error("second run rewrote the store entry instead of hitting it")
	}
}

// TestRunBackendsFallBackToLocal proves the -backends contract at
// the CLI surface: with no backend answering, every session falls
// back to local compute and the output is identical to a plain local
// run.  (Byte-identity against live backends is covered by
// internal/integration.)
func TestRunBackendsFallBackToLocal(t *testing.T) {
	render := func(extra ...string) string {
		var out strings.Builder
		args := append([]string{"-mode", "random", "-samples", "1", "-seed", "11", "-sessions", "2"}, extra...)
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	local := render()
	// Port 1 on localhost: connections are refused immediately, so
	// the run exercises reroute-then-fallback without a live daemon.
	viaDead := render("-backends", "127.0.0.1:1")
	if local != viaDead {
		t.Errorf("-backends fallback output differs from local:\n%s\nvs\n%s", local, viaDead)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mode", "bogus"}, &out); err == nil {
		t.Error("unknown mode should error")
	}
	if err := run([]string{"-sessions", "0"}, &out); err == nil {
		t.Error("zero sessions should error")
	}
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag should error")
	}
}

// TestRunBackendsMatchesLocal: triggered sessions through a live
// fleet match the local sessions.
func TestRunBackendsMatchesLocal(t *testing.T) {
	clitest.CheckFleetRuns(t, run, "-mode", "transition", "-samples", "1", "-seed", "17", "-sessions", "2")
}
