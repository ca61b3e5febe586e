package sas

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/stats"
)

// PlotOptions controls scatter and model-curve rendering.
type PlotOptions struct {
	Title  string
	XLabel string
	YLabel string

	// Grid dimensions in character cells.
	Cols, Rows int

	// Axis ranges; when XMax <= XMin (or YMax <= YMin) the range is
	// taken from the data.
	XMin, XMax float64
	YMin, YMax float64
}

func (o *PlotOptions) defaults() {
	if o.Cols <= 0 {
		o.Cols = 70
	}
	if o.Rows <= 0 {
		o.Rows = 24
	}
}

// Scatter renders a letter-coded scatter plot in the style of SAS PROC
// PLOT: A marks one observation in a cell, B two, up to Z for 26 or
// more.
func Scatter(xs, ys []float64, opt PlotOptions) string {
	opt.defaults()
	if len(xs) != len(ys) || len(xs) == 0 {
		return opt.Title + "\n(no observations)\n"
	}
	xmin, xmax := rangeOf(xs, opt.XMin, opt.XMax)
	ymin, ymax := rangeOf(ys, opt.YMin, opt.YMax)

	cells := make([]int, opt.Cols*opt.Rows)
	for i := range xs {
		c, r, ok := cell(xs[i], ys[i], xmin, xmax, ymin, ymax, opt.Cols, opt.Rows)
		if ok {
			cells[r*opt.Cols+c]++
		}
	}
	return render(cells, opt, xmin, xmax, ymin, ymax,
		"LEGEND: A = 1 OBS, B = 2 OBS, ETC.")
}

// ModelPlot renders a fitted quadratic's curve over the x range with
// 'o' markers, as the study's regression model figures do, optionally
// overlaying the median points it was fitted to ('*').
func ModelPlot(m stats.QuadModel, pts []stats.MedianPoint, opt PlotOptions) string {
	opt.defaults()
	xmin, xmax := opt.XMin, opt.XMax
	if xmax <= xmin {
		xmin, xmax = 0, 1
	}
	// Evaluate the curve to find the y range if not fixed.
	var ys []float64
	for c := 0; c < opt.Cols; c++ {
		x := xmin + (xmax-xmin)*float64(c)/float64(opt.Cols-1)
		ys = append(ys, m.Eval(x))
	}
	for _, p := range pts {
		ys = append(ys, p.Y)
	}
	ymin, ymax := rangeOf(ys, opt.YMin, opt.YMax)

	cells := make([]int, opt.Cols*opt.Rows)
	const curveMark, pointMark = -1, -2
	for c := 0; c < opt.Cols; c++ {
		x := xmin + (xmax-xmin)*float64(c)/float64(opt.Cols-1)
		_, r, ok := cell(x, m.Eval(x), xmin, xmax, ymin, ymax, opt.Cols, opt.Rows)
		if ok {
			cells[r*opt.Cols+c] = curveMark
		}
	}
	for _, p := range pts {
		c, r, ok := cell(p.X, p.Y, xmin, xmax, ymin, ymax, opt.Cols, opt.Rows)
		if ok {
			cells[r*opt.Cols+c] = pointMark
		}
	}
	return render(cells, opt, xmin, xmax, ymin, ymax,
		"LEGEND: o = MODEL, * = MEDIAN POINT")
}

func rangeOf(v []float64, lo, hi float64) (float64, float64) {
	if hi > lo {
		return lo, hi
	}
	min, max, err := stats.MinMax(v)
	if err != nil {
		return 0, 1
	}
	if min == max {
		return min - 1, max + 1
	}
	// Pad 5% so extremes stay visible.
	pad := (max - min) * 0.05
	return min - pad, max + pad
}

func cell(x, y, xmin, xmax, ymin, ymax float64, cols, rows int) (c, r int, ok bool) {
	if math.IsNaN(x) || math.IsNaN(y) {
		return 0, 0, false
	}
	fx := (x - xmin) / (xmax - xmin)
	fy := (y - ymin) / (ymax - ymin)
	if fx < 0 || fx > 1 || fy < 0 || fy > 1 {
		return 0, 0, false
	}
	c = int(fx * float64(cols-1))
	r = rows - 1 - int(fy*float64(rows-1))
	return c, r, true
}

func render(cells []int, opt PlotOptions, xmin, xmax, ymin, ymax float64, legend string) string {
	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	fmt.Fprintf(&b, "%s\n\n", legend)
	row := make([]byte, 0, opt.Cols+13) // "%10.4g +", the cells, "\n"
	b.Grow(opt.Rows * cap(row))
	for r := 0; r < opt.Rows; r++ {
		y := ymax - (ymax-ymin)*float64(r)/float64(opt.Rows-1)
		row = append(appendFloat(row[:0], y, 'g', 4, 10), " +"...)
		for c := 0; c < opt.Cols; c++ {
			n := cells[r*opt.Cols+c]
			switch {
			case n == 0:
				row = append(row, ' ')
			case n == -1:
				row = append(row, 'o')
			case n == -2:
				row = append(row, '*')
			case n >= 26:
				row = append(row, 'Z')
			default:
				row = append(row, byte('A'+n-1))
			}
		}
		row = append(row, '\n')
		b.Write(row)
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", opt.Cols))
	fmt.Fprintf(&b, "%10s  %-10.4g%*s%10.4g\n", "", xmin, opt.Cols-20, "", xmax)
	if opt.XLabel != "" || opt.YLabel != "" {
		fmt.Fprintf(&b, "%10s  X: %s   Y: %s\n", "", opt.XLabel, opt.YLabel)
	}
	return b.String()
}
