// Package stats provides the statistical procedures used by the study:
// SAS-style midpoint histograms, summary statistics, second-order
// linear regression with R-squared, and the median-binning procedure
// used to build the chapter 5 models.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// ErrEmpty is returned by procedures that require at least one
// observation.
var ErrEmpty = errors.New("stats: no observations")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs, or 0 for an empty slice.  The input
// is not modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics, or 0 for an empty slice.
// The input is not modified.
//
// The order statistics are found by selection on a private copy,
// which gives the values a sort would.  A copy holding a NaN or a -0
// is sorted instead: sort.Float64s puts NaNs first and may place -0
// on either side of +0, and the result must stay exactly what sorting
// gives.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	pos := q * float64(len(s)-1)
	switch {
	case q <= 0:
		pos = 0
	case q >= 1:
		pos = float64(len(s) - 1)
	}
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if slices.ContainsFunc(s, sortOnly) {
		sort.Float64s(s)
	} else {
		selectKth(s, lo)
		if hi > lo {
			// Everything after s[lo] is no smaller, so the next order
			// statistic is their minimum.
			s[hi] = slices.Min(s[lo+1:])
		}
	}
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// sortOnly reports whether v is a value whose place only a sort
// decides: a NaN, or a -0, which compares equal to +0.
func sortOnly(v float64) bool {
	return v != v || (v == 0 && math.Signbit(v))
}

// selectKth reorders s, which holds no NaN, so that s[k] is the value
// sorting would put there, with no larger value before it and no
// smaller one after.  It is Hoare's FIND (CACM Algorithm 65, 1961)
// with a median-of-three pivot; a range still unsettled after
// 2·log2(len(s)) partitions is sorted, which bounds the worst case.
func selectKth(s []float64, k int) {
	lo, hi := 0, len(s)-1
	for budget := 2 * bits.Len(uint(len(s))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(s[lo : hi+1])
			return
		}
		a, b, c := s[lo], s[lo+(hi-lo)/2], s[hi]
		pivot := max(min(a, b), min(max(a, b), c))
		// The pivot is one of the range's values, so each scan stops
		// inside the range, and at least one swap shrinks it.
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for pivot < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Now s[lo:j+1] <= pivot, s[i:hi+1] >= pivot, and anything
		// between equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Variance returns the sample variance (n-1 denominator) of xs, or 0
// when fewer than two observations are given.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MinMax returns the smallest and largest values in xs.  It returns
// ErrEmpty when xs is empty.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Summary holds the basic descriptive statistics of a data vector.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes descriptive statistics for xs.  It returns
// ErrEmpty when xs is empty.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	min, max, _ := MinMax(xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		StdDev: StdDev(xs),
		Min:    min,
		Max:    max,
	}, nil
}

// Correlation returns the Pearson correlation coefficient of the
// paired observations (xs[i], ys[i]).  It returns 0 when the inputs
// are degenerate (fewer than two points or zero variance).
func Correlation(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
