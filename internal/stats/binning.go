package stats

import "math"

// MedianPoint is one (midpoint, median of system measure) coordinate
// produced by the study's model-building procedure.
type MedianPoint struct {
	X float64 // concurrency-measure midpoint
	Y float64 // median of the system measure in the cluster
	N int     // observations clustered at the midpoint
}

// MedianBin implements the procedure of section 5.2: each (x, y)
// observation is clustered to its nearest midpoint on the regular grid
// {lo, lo+step, ..., hi}, and the median of y is taken within each
// nonempty cluster.  The resulting coordinate pairs are the input to
// the second-order regressions of Tables 3 and 4.
func MedianBin(xs, ys []float64, lo, hi, step float64) []MedianPoint {
	if len(xs) != len(ys) || step <= 0 || hi < lo {
		return nil
	}
	n := int(math.Round((hi-lo)/step)) + 1
	groups := make([][]float64, n)
	for i := range xs {
		k := int(math.Round((xs[i] - lo) / step))
		if k < 0 {
			k = 0
		}
		if k >= n {
			k = n - 1
		}
		groups[k] = append(groups[k], ys[i])
	}
	var pts []MedianPoint
	for k, g := range groups {
		if len(g) == 0 {
			continue
		}
		pts = append(pts, MedianPoint{
			X: lo + float64(k)*step,
			Y: Median(g),
			N: len(g),
		})
	}
	return pts
}

// FitMedianModel runs the full section 5.2 procedure: median-bin the
// scatter onto the midpoint grid and fit the second-order model to the
// median points.  The returned model's R2 is computed against the
// median points, matching the study's reported fit quality.
func FitMedianModel(xs, ys []float64, lo, hi, step float64) (QuadModel, []MedianPoint, error) {
	pts := MedianBin(xs, ys, lo, hi, step)
	px := make([]float64, len(pts))
	py := make([]float64, len(pts))
	for i, p := range pts {
		px[i] = p.X
		py[i] = p.Y
	}
	m, err := FitQuad(px, py)
	if err != nil {
		return QuadModel{}, pts, err
	}
	return m, pts, nil
}

// BandValues splits the paired observations into bands of x defined
// by the cut points (band i is cuts[i-1] < x <= cuts[i], with implicit
// -inf and +inf bounds) and returns the y values of each band.  This
// is the banding used in Figures 10, 11, B.3, B.4, B.7 and B.8.
func BandValues(xs, ys []float64, cuts []float64) [][]float64 {
	bands := make([][]float64, len(cuts)+1)
	for i := range xs {
		k := 0
		for k < len(cuts) && xs[i] > cuts[k] {
			k++
		}
		bands[k] = append(bands[k], ys[i])
	}
	return bands
}
