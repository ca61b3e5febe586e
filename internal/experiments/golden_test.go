package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
)

// paperStudySHA256 is the sha256 of core.EncodeStudy over the
// paper-scale campaign at seed 1987.  A deliberate change of output
// updates it, with the reason in the commit.
const paperStudySHA256 = "f48b628e400cd4ac191c0c7272a71c253ed963757419919977e3ee1140a766ec"

// TestPaperScaleHeadline is the calibration regression test: it runs
// the full deterministic paper-scale campaign, pins its encoding to
// paperStudySHA256 (also after a DecodeStudy round trip), and pins
// the headline results to bands around the paper's values (Cw 0.35,
// Pc 7.66, c_8|c 0.93, and the chapter 5 model fits).  Any change to the simulator, OS, workload generator
// or methodology that moves the reproduction away from the paper
// fails here.
//
// The campaign takes ~20 s; skipped under -short.
func TestPaperScaleHeadline(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("paper-scale campaign in -short mode")
	}
	st := core.RunStudy(core.PaperScale())
	enc, err := core.EncodeStudy(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != paperStudySHA256 {
		t.Errorf("paper study sha256 = %s, want %s", got, paperStudySHA256)
	}

	// Reloaded from its encoding, the campaign is the same study and
	// renders the same report.
	dec, err := core.DecodeStudy(enc)
	if err != nil {
		t.Fatal(err)
	}
	again, err := core.EncodeStudy(dec)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(again)); got != paperStudySHA256 {
		t.Errorf("decoded paper study sha256 = %s, want %s", got, paperStudySHA256)
	}
	if FullReport(dec) != FullReport(st) {
		t.Error("the decoded paper study renders a different report")
	}

	m := st.OverallMeasures
	if m.Cw < 0.28 || m.Cw > 0.42 {
		t.Errorf("Cw = %.3f, want ~0.35 (paper) within [0.28, 0.42]", m.Cw)
	}
	if !m.Defined {
		t.Fatal("Pc undefined at paper scale")
	}
	if m.Pc < 7.4 || m.Pc > 8.0 {
		t.Errorf("Pc = %.2f, want ~7.66 within [7.4, 8.0]", m.Pc)
	}
	if m.CCond[8] < 0.88 {
		t.Errorf("c_8|c = %.3f, want > 0.88 (paper: 0.93)", m.CCond[8])
	}

	// Transitions: 2-active is modal; CEs 0 and 7 dominate.
	tr := st.Transitions
	share2 := tr.TransitionShare(2)
	if share2 < 0.17 {
		t.Errorf("2-active share = %.2f, want > 0.17", share2)
	}
	for j := 3; j <= 7; j++ {
		if tr.TransitionShare(j) > share2 {
			t.Errorf("share(%d) = %.2f exceeds share(2) = %.2f", j, tr.TransitionShare(j), share2)
		}
	}
	a, b := tr.DominantPair()
	pair := map[int]bool{a: true, b: true}
	if !pair[0] || !pair[7] {
		t.Errorf("dominant transition pair = %d,%d, want 0 and 7", a, b)
	}

	// Chapter 5 models.
	miss := st.Models.VsCw[core.MeasureMissRate]
	if miss.Err != nil {
		t.Fatalf("miss-vs-Cw model failed: %v", miss.Err)
	}
	if miss.Fit.R2 < 0.6 {
		t.Errorf("miss-vs-Cw R2 = %.2f, want > 0.6 (paper: 0.74)", miss.Fit.R2)
	}
	atHalf, atFull, ratio := st.Models.MissRateIncrease()
	if atFull <= atHalf || ratio < 1.3 {
		t.Errorf("miss model increase %.4f -> %.4f (x%.1f), want rising substantially",
			atHalf, atFull, ratio)
	}
	bus := st.Models.VsCw[core.MeasureBusBusy]
	if bus.Err != nil || bus.Fit.R2 < 0.85 {
		t.Errorf("bus-vs-Cw fit R2 = %.2f, want > 0.85 (paper: 0.89)", bus.Fit.R2)
	}
	// Bus busy rises roughly linearly: the quadratic term stays small
	// relative to the linear term.
	if b1, b2 := bus.Fit.B1, bus.Fit.B2; b1 <= 0 || b2 > b1 {
		t.Errorf("bus model not near-linear: B1=%.3g B2=%.3g", b1, b2)
	}

	// The fault rate rises from the serial end into the concurrent
	// range: some interior median must exceed the Cw = 0 median.
	// (Both the paper's B.9 model and ours have negative quadratic
	// terms — the curve peaks rather than rising monotonically.)
	pf := st.Models.VsCw[core.MeasurePageFaultRate]
	if pf.Err == nil && len(pf.Points) >= 2 {
		base := pf.Points[0].Y
		peak := base
		for _, p := range pf.Points[1:] {
			if p.Y > peak {
				peak = p.Y
			}
		}
		if peak <= base {
			t.Errorf("page fault medians never rise above the serial level %.1f", base)
		}
	}
}
