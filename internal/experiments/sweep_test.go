package experiments

import (
	"strings"
	"testing"
)

func TestSchedulerSweep(t *testing.T) {
	t.Parallel()
	pts, err := RunSweepConfig(SweepConfig{Kind: "sched", Values: []int{20_000, 200_000}, Seed: 5, Samples: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Cw < 0 || p.Cw > 1 {
			t.Errorf("%s: Cw = %v", p.Label, p.Cw)
		}
		if !strings.HasPrefix(p.Label, "quantum=") {
			t.Errorf("label = %q", p.Label)
		}
	}
}

func TestCESweepPcBounded(t *testing.T) {
	t.Parallel()
	pts, err := RunSweepConfig(SweepConfig{Kind: "ce", Values: []int{2, 4}, Seed: 5, Samples: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Pc can never exceed the CE count.
	if pts[0].Pc > 2.01 {
		t.Errorf("2-CE Pc = %v", pts[0].Pc)
	}
	if pts[1].Pc > 4.01 {
		t.Errorf("4-CE Pc = %v", pts[1].Pc)
	}
}

func TestCacheSweepMissrateDecreases(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("cache sweep in -short mode")
	}
	pts, err := RunSweepConfig(SweepConfig{Kind: "cache", Values: []int{32 << 10, 512 << 10}, Seed: 5, Samples: 6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].MissRate <= pts[1].MissRate {
		t.Errorf("missrate should fall with cache size: %v vs %v",
			pts[0].MissRate, pts[1].MissRate)
	}
}

func TestSweepTableRendering(t *testing.T) {
	t.Parallel()
	out := SweepTable("T", []SweepPoint{
		{Label: "a", Cw: 0.5, Pc: 7, BusBusy: 0.2, MissRate: 0.01, Faults: 3},
		{Label: "b"},
	})
	if !strings.Contains(out, "| a") || !strings.Contains(out, "7.00") {
		t.Errorf("table:\n%s", out)
	}
	// Zero Pc renders as "-".
	if !strings.Contains(out, "| -") {
		t.Errorf("undefined Pc should render as dash:\n%s", out)
	}
}
