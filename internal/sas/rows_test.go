package sas

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/stats"
)

// The references below are the fmt-built row formatters that Chart,
// BarChart and render replaced; the appending builders must match them
// byte for byte.

func refChart(h stats.Histogram, opt ChartOptions) string {
	if opt.Width <= 0 {
		opt.Width = 60
	}
	if opt.MidpointFormat == "" {
		opt.MidpointFormat = "%g"
	}
	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n\n", opt.Title)
	}
	header := fmt.Sprintf("%-12s|%-*s", opt.Label, opt.Width, "")
	if opt.ShowPercent {
		fmt.Fprintf(&b, "%s %8s %8s %8s %8s\n", header, "FREQ", "CUM.FREQ", "PERCENT", "CUM.PCT")
	} else {
		fmt.Fprintf(&b, "%s %8s %8s\n", header, "FREQ", "CUM.FREQ")
	}
	maxFreq := h.MaxFreq()
	bins := h.Bins
	for k := range bins {
		i := k
		if opt.Descending {
			i = len(bins) - 1 - k
		}
		bin := bins[i]
		stars := 0
		if maxFreq > 0 {
			stars = bin.Freq * opt.Width / maxFreq
		}
		if bin.Freq > 0 && stars == 0 {
			stars = 1
		}
		mid := fmt.Sprintf(opt.MidpointFormat, bin.Midpoint)
		row := fmt.Sprintf("%-12s|%-*s", mid, opt.Width, strings.Repeat("*", stars))
		if opt.ShowPercent {
			fmt.Fprintf(&b, "%s %8d %8d %8.2f %8.2f\n",
				row, bin.Freq, bin.CumFreq, bin.Percent, bin.CumPercent)
		} else {
			fmt.Fprintf(&b, "%s %8d %8d\n", row, bin.Freq, bin.CumFreq)
		}
	}
	return b.String()
}

func refBarChart(title string, labels []string, counts []int, width int) string {
	if width <= 0 {
		width = 60
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n\n", title)
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	for i, c := range counts {
		stars := 0
		if max > 0 {
			stars = c * width / max
		}
		if c > 0 && stars == 0 {
			stars = 1
		}
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		fmt.Fprintf(&b, "%-12s|%-*s %10d\n", label, width, strings.Repeat("*", stars), c)
	}
	return b.String()
}

func refRender(cells []int, opt PlotOptions, xmin, xmax, ymin, ymax float64, legend string) string {
	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	fmt.Fprintf(&b, "%s\n\n", legend)
	for r := 0; r < opt.Rows; r++ {
		y := ymax - (ymax-ymin)*float64(r)/float64(opt.Rows-1)
		fmt.Fprintf(&b, "%10.4g +", y)
		for c := 0; c < opt.Cols; c++ {
			n := cells[r*opt.Cols+c]
			switch {
			case n == 0:
				b.WriteByte(' ')
			case n == -1:
				b.WriteByte('o')
			case n == -2:
				b.WriteByte('*')
			case n >= 26:
				b.WriteByte('Z')
			default:
				b.WriteByte(byte('A' + n - 1))
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", opt.Cols))
	fmt.Fprintf(&b, "%10s  %-10.4g%*s%10.4g\n", "", xmin, opt.Cols-20, "", xmax)
	if opt.XLabel != "" || opt.YLabel != "" {
		fmt.Fprintf(&b, "%10s  X: %s   Y: %s\n", "", opt.XLabel, opt.YLabel)
	}
	return b.String()
}

// pick returns one of vs at random.
func pick[T any](rng *rand.Rand, vs ...T) T { return vs[rng.Intn(len(vs))] }

// oddFloat returns a value for a float column: ordinary percents,
// zeros of both signs, negatives, values wider than the column, and
// the non-finite values.
func oddFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return pick(rng, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN())
	case 1:
		return -rng.Float64() * 100
	case 2:
		return rng.Float64() * 1e6 // >= 10^5 overflows %8.2f
	case 3:
		return pick(rng, 0.005, 0.015, 99.995, 12.345, 1e-9)
	default:
		return rng.Float64() * 100
	}
}

func TestChartRowsMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		opt := ChartOptions{
			Title:          pick(rng, "", "FIGURE X"),
			Label:          pick(rng, "N", "A LABEL WIDER THAN TWELVE", "µs"),
			Width:          pick(rng, 0, 1, 5, 46),
			MidpointFormat: pick(rng, "", "%g", "%.3f", "%.0f", "µ%.1f", "%-14.2e"),
			ShowPercent:    rng.Intn(2) == 0,
			Descending:     rng.Intn(2) == 0,
		}
		wide := 123456789 // overflows %8d
		if opt.Width == 0 || opt.Width > 5 {
			wide = 1e6 // Freq*Width must fit a 32-bit int
		}
		bins := make([]stats.Bin, rng.Intn(12))
		for i := range bins {
			bins[i] = stats.Bin{
				Midpoint:   pick(rng, float64(i), -float64(i)*0.125, rng.NormFloat64()*1e7, 1.234e-5),
				Freq:       pick(rng, 0, rng.Intn(50), rng.Intn(1e6), wide),
				CumFreq:    pick(rng, rng.Intn(1000), -rng.Intn(1e9), 987654321),
				Percent:    oddFloat(rng),
				CumPercent: oddFloat(rng),
			}
		}
		h := stats.Histogram{Bins: bins}
		if got, want := Chart(h, opt), refChart(h, opt); got != want {
			t.Fatalf("Chart(%+v, %+v):\ngot\n%s\nwant\n%s", bins, opt, got, want)
		}
	}
}

func TestBarChartRowsMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		counts := make([]int, rng.Intn(10))
		// A negative count only renders without a bar when no count
		// is positive; otherwise its star count is negative.  Positive
		// counts times the width must fit a 32-bit int, so only the
		// negatives overflow %10d.
		allNonPositive := rng.Intn(4) == 0
		for i := range counts {
			if allNonPositive {
				counts[i] = -pick(rng, 0, rng.Intn(100), 1234567890)
			} else {
				counts[i] = pick(rng, 0, rng.Intn(100), rng.Intn(1e7))
			}
		}
		labels := make([]string, rng.Intn(len(counts)+2))
		for i := range labels {
			labels[i] = pick(rng, "", fmt.Sprintf("CE%d", i), "PROCESSOR NUMBER 7", "Π-ü")
		}
		title := pick(rng, "", "PER-CE")
		width := pick(rng, 0, 1, 8, 60)
		if got, want := BarChart(title, labels, counts, width), refBarChart(title, labels, counts, width); got != want {
			t.Fatalf("BarChart(%q, %q, %v, %d):\ngot\n%s\nwant\n%s", title, labels, counts, width, got, want)
		}
	}
}

// TestPlotRowsMatchFmt checks render, which draws every Scatter and
// ModelPlot, on random cells and y ranges whose %10.4g labels include
// negatives, zero, exponent forms (1.234e-05, 1e+12) and -Inf.
func TestPlotRowsMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ranges := [][2]float64{
		{0, 1}, {-1, 1}, {-2.5e-5, 1.234e-5}, {-3e12, 1e12}, {0.0257, 0.0259},
		{-math.MaxFloat64, math.MaxFloat64}, {7, 7}, {-1e-300, 1e-300},
	}
	for iter := 0; iter < 300; iter++ {
		opt := PlotOptions{
			Title:  pick(rng, "", "FIGURE 10"),
			XLabel: pick(rng, "", "Cw"),
			YLabel: pick(rng, "", "MISSRATE"),
			Cols:   pick(rng, 20, 31, 70),
			Rows:   pick(rng, 2, 3, 13, 24),
		}
		cells := make([]int, opt.Cols*opt.Rows)
		for i := range cells {
			cells[i] = pick(rng, 0, 0, 0, -1, -2, 1+rng.Intn(30))
		}
		y := ranges[rng.Intn(len(ranges))]
		x := ranges[rng.Intn(len(ranges))]
		legend := "LEGEND: A = 1 OBS, B = 2 OBS, ETC."
		if got, want := render(cells, opt, x[0], x[1], y[0], y[1], legend), refRender(cells, opt, x[0], x[1], y[0], y[1], legend); got != want {
			t.Fatalf("render(%+v, y %v):\ngot\n%s\nwant\n%s", opt, y, got, want)
		}
	}

	// And once through Scatter itself, with data on both sides of 0.
	xs := []float64{-1e-5, 0, 2e-5, 3e-5}
	ys := []float64{-4e-5, 1.234e-5, 0, 5e-5}
	opt := PlotOptions{Title: "T", Cols: 30, Rows: 9}
	opt.defaults()
	xmin, xmax := rangeOf(xs, 0, 0)
	ymin, ymax := rangeOf(ys, 0, 0)
	cells := make([]int, opt.Cols*opt.Rows)
	for i := range xs {
		if c, r, ok := cell(xs[i], ys[i], xmin, xmax, ymin, ymax, opt.Cols, opt.Rows); ok {
			cells[r*opt.Cols+c]++
		}
	}
	want := refRender(cells, opt, xmin, xmax, ymin, ymax, "LEGEND: A = 1 OBS, B = 2 OBS, ETC.")
	if got := Scatter(xs, ys, opt); got != want {
		t.Fatalf("Scatter:\ngot\n%s\nwant\n%s", got, want)
	}
	if !strings.Contains(want, "e-05 +") {
		t.Fatalf("no exponent-form label in\n%s", want)
	}
}
