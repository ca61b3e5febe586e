// Package sas renders analysis results in the style of the SAS
// procedures the study used on its IBM 4381: horizontal star frequency
// charts with FREQ / CUM.FREQ / PERCENT / CUM.PERCENT columns (PROC
// CHART), letter-coded scatter plots where A is one observation, B two
// and so on (PROC PLOT), fitted-model curves, and fixed-width tables.
package sas

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/stats"
)

// ChartOptions controls star-chart rendering.
type ChartOptions struct {
	// Title is printed above the chart.
	Title string

	// Label names the midpoint column (e.g. "NUMBER OF PROCESSORS").
	Label string

	// Width is the maximum star-bar width in characters.
	Width int

	// MidpointFormat formats midpoints (default "%g").
	MidpointFormat string

	// ShowPercent adds PERCENT / CUM.PERCENT columns.
	ShowPercent bool

	// Descending lists bins from the highest midpoint down, as the
	// study's processor-count charts do.
	Descending bool
}

// Chart renders a histogram as a SAS-style horizontal star chart.
func Chart(h stats.Histogram, opt ChartOptions) string {
	if opt.Width <= 0 {
		opt.Width = 60
	}
	if opt.MidpointFormat == "" {
		opt.MidpointFormat = "%g"
	}
	// A row: midpoint and "|" (13), the bar, four " %8" columns, "\n".
	row := make([]byte, 0, 13+opt.Width+4*9+1)
	var b strings.Builder
	b.Grow(len(opt.Title) + 2 + (len(h.Bins)+1)*cap(row))
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
		row = fmt.Appendf(row[:0], opt.MidpointFormat, bin.Midpoint)
		row = appendBar(padRight(row, 12), stars, opt.Width)
		row = appendInt(append(row, ' '), bin.Freq, 8)
		row = appendInt(append(row, ' '), bin.CumFreq, 8)
		if opt.ShowPercent {
			row = appendFloat(append(row, ' '), bin.Percent, 'f', 2, 8)
			row = appendFloat(append(row, ' '), bin.CumPercent, 'f', 2, 8)
		}
		row = append(row, '\n')
		b.Write(row)
	}
	return b.String()
}

// BarChart renders labeled integer counts (e.g. per-processor
// activity) as a star chart without cumulative columns.
func BarChart(title string, labels []string, counts []int, width int) string {
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
	row := make([]byte, 0, 13+width+11+1) // label, "|", bar, " %10d", "\n"
	b.Grow(len(counts) * cap(row))
	for i, c := range counts {
		stars := 0
		if max > 0 {
			stars = c * width / max
		}
		if c > 0 && stars == 0 {
			stars = 1
		}
		row = row[:0]
		if i < len(labels) {
			row = append(row, labels[i]...)
		}
		row = appendBar(padRight(row, 12), stars, width)
		row = appendInt(append(row, ' '), c, 10)
		row = append(row, '\n')
		b.Write(row)
	}
	return b.String()
}

// The row builders below write what fmt's verbs would, without fmt:
// each chart row is built in one reused []byte.

// padRight pads the text in b with spaces to w runes, as fmt's %-*s
// does.
func padRight(b []byte, w int) []byte {
	for n := utf8.RuneCount(b); n < w; n++ {
		b = append(b, ' ')
	}
	return b
}

// appendBar appends "|", then stars stars left-aligned in a field of
// w: the %-*s bar of a chart row.
func appendBar(b []byte, stars, w int) []byte {
	b = append(b, '|')
	for n := 0; n < max(stars, w); n++ {
		c := byte(' ')
		if n < stars {
			c = '*'
		}
		b = append(b, c)
	}
	return b
}

// appendRight appends num right-aligned in a field of w bytes.  num
// is ASCII, so bytes are runes.
func appendRight(b, num []byte, w int) []byte {
	for n := len(num); n < w; n++ {
		b = append(b, ' ')
	}
	return append(b, num...)
}

// appendInt appends v as "%*d" does.
func appendInt(b []byte, v, w int) []byte {
	var num [24]byte
	return appendRight(b, strconv.AppendInt(num[:0], int64(v), 10), w)
}

// appendFloat appends v as "%*.*f" (format 'f') or "%*.*g" (format
// 'g') does: without flags, fmt formats these verbs with this same
// strconv call, +Inf's sign included.
func appendFloat(b []byte, v float64, format byte, prec, w int) []byte {
	var num [32]byte
	return appendRight(b, strconv.AppendFloat(num[:0], v, format, prec, 64), w)
}
