package stats

import (
	"math/rand/v2"
	"testing"
)

func TestMedianBinBasic(t *testing.T) {
	xs := []float64{0.0, 0.04, 0.1, 0.11, 0.52}
	ys := []float64{1, 3, 10, 20, 7}
	pts := MedianBin(xs, ys, 0, 1, 0.1)
	// Clusters: midpoint 0.0 gets {1,3} (0.04 rounds to 0.0);
	// midpoint 0.1 gets {10,20}; midpoint 0.5 gets {7}.
	if len(pts) != 3 {
		t.Fatalf("points = %+v", pts)
	}
	if pts[0].X != 0 || !approx(pts[0].Y, 2, 1e-12) || pts[0].N != 2 {
		t.Errorf("pts[0] = %+v", pts[0])
	}
	if !approx(pts[1].X, 0.1, 1e-12) || !approx(pts[1].Y, 15, 1e-12) {
		t.Errorf("pts[1] = %+v", pts[1])
	}
	if !approx(pts[2].X, 0.5, 1e-12) || pts[2].Y != 7 || pts[2].N != 1 {
		t.Errorf("pts[2] = %+v", pts[2])
	}
}

func TestMedianBinDegenerate(t *testing.T) {
	if pts := MedianBin([]float64{1}, []float64{1, 2}, 0, 1, 0.1); pts != nil {
		t.Error("mismatched lengths should return nil")
	}
	if pts := MedianBin([]float64{1}, []float64{1}, 0, 1, 0); pts != nil {
		t.Error("zero step should return nil")
	}
}

func TestMedianBinClamps(t *testing.T) {
	pts := MedianBin([]float64{-3, 12}, []float64{5, 9}, 0, 1, 0.5)
	if len(pts) != 2 {
		t.Fatalf("points = %+v", pts)
	}
	if pts[0].X != 0 || pts[0].Y != 5 {
		t.Errorf("low clamp = %+v", pts[0])
	}
	if pts[1].X != 1 || pts[1].Y != 9 {
		t.Errorf("high clamp = %+v", pts[1])
	}
}

func TestFitMedianModelRecoversTrend(t *testing.T) {
	// Scatter with heavy noise but a quadratic median trend: the
	// median-binning procedure should recover the trend.
	rng := rand.New(rand.NewPCG(11, 4))
	var xs, ys []float64
	for i := 0; i < 3000; i++ {
		x := rng.Float64()
		base := 0.002 + 0.02*x*x
		noise := rng.Float64() * 0.004 // asymmetric noise; median robust
		xs = append(xs, x)
		ys = append(ys, base+noise)
	}
	m, pts, err := FitMedianModel(xs, ys, 0, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 11 {
		t.Fatalf("expected 11 median points, got %d", len(pts))
	}
	if m.Eval(1.0) < 2*m.Eval(0.2) {
		t.Errorf("model did not recover rising trend: %v vs %v", m.Eval(1.0), m.Eval(0.2))
	}
	if m.R2 < 0.8 {
		t.Errorf("R2 = %v", m.R2)
	}
}

func TestFitMedianModelTooFewBins(t *testing.T) {
	_, _, err := FitMedianModel([]float64{0.5, 0.5}, []float64{1, 2}, 0, 1, 1)
	if err == nil {
		t.Error("expected error when fewer than 3 median points exist")
	}
}

func TestBandValuesBoundaryInclusive(t *testing.T) {
	// x exactly at a cut belongs to the lower band (<=).
	bands := BandValues([]float64{0.4, 0.8}, []float64{7, 8}, []float64{0.4, 0.8})
	if len(bands) != 3 || len(bands[0]) != 1 || len(bands[1]) != 1 || len(bands[2]) != 0 {
		t.Errorf("cut boundary should be inclusive on the left band: %v", bands)
	}
}

func TestBandValuesPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 100; trial++ {
		n := rng.IntN(200)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 10
			ys[i] = rng.Float64()
		}
		cuts := []float64{2.5, 5, 7.5}
		bands := BandValues(xs, ys, cuts)
		total := 0
		for _, b := range bands {
			total += len(b)
		}
		if total != n {
			t.Fatalf("bands do not partition: %d != %d", total, n)
		}
	}
}
