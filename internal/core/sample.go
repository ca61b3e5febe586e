package core

import "repro/internal/monitor"

// SampleMeasures pairs a sample's concurrency measures with the system
// performance measures of chapter 5: CE Bus Busy, Missrate and Page
// Fault Rate.
type SampleMeasures struct {
	Conc Concurrency

	// BusBusy is the fraction of non-idle CE bus cycles averaged
	// over the eight buses.
	BusBusy float64

	// MissRate is the fraction of CE bus cycles corresponding to
	// cache misses.
	MissRate float64

	// PageFaultRate is the CE page fault count over the sample
	// interval (user plus system mode).
	PageFaultRate float64

	// Records is the number of monitor records the sample reduced.
	Records int
}

// MeasureSample derives all per-sample measures from a collected
// sample.
func MeasureSample(s monitor.Sample) SampleMeasures {
	return SampleMeasures{
		Conc:          MeasuresFromCounts(s.Counts),
		BusBusy:       s.Counts.BusBusy(),
		MissRate:      s.Counts.MissRate(),
		PageFaultRate: float64(s.PageFaults),
		Records:       s.Counts.Records,
	}
}

// MeasureSamples maps MeasureSample over a slice.
func MeasureSamples(ss []monitor.Sample) []SampleMeasures {
	out := make([]SampleMeasures, len(ss))
	for i, s := range ss {
		out[i] = MeasureSample(s)
	}
	return out
}

// SplitByConcurrency partitions samples into those with and without
// observed concurrency; Pc analyses use only the concurrent subset.
func SplitByConcurrency(ms []SampleMeasures) (concurrent, serial []SampleMeasures) {
	for _, m := range ms {
		if m.Conc.Defined {
			concurrent = append(concurrent, m)
		} else {
			serial = append(serial, m)
		}
	}
	return concurrent, serial
}

// Columns extracts paired (x, y) vectors from samples for scatter and
// regression analyses.  The x selector and y selector choose the
// measures; samples where the x measure is undefined are skipped.
// Selectors take a pointer, so no sample is copied.
func Columns(ms []SampleMeasures, x, y func(*SampleMeasures) (float64, bool)) (xs, ys []float64) {
	xs = make([]float64, 0, len(ms))
	ys = make([]float64, 0, len(ms))
	for i := range ms {
		m := &ms[i]
		xv, ok := x(m)
		if !ok {
			continue
		}
		yv, ok := y(m)
		if !ok {
			continue
		}
		xs = append(xs, xv)
		ys = append(ys, yv)
	}
	return xs, ys
}

// Selectors for Columns.

// SelCw selects Workload Concurrency (always defined).
func SelCw(m *SampleMeasures) (float64, bool) { return m.Conc.Cw, true }

// SelPc selects Mean Concurrency Level (defined only for samples with
// concurrency).
func SelPc(m *SampleMeasures) (float64, bool) { return m.Conc.Pc, m.Conc.Defined }

// SelMissRate selects the cache miss rate.
func SelMissRate(m *SampleMeasures) (float64, bool) { return m.MissRate, true }

// SelBusBusy selects CE bus activity.
func SelBusBusy(m *SampleMeasures) (float64, bool) { return m.BusBusy, true }

// SelPageFaultRate selects the page fault rate.
func SelPageFaultRate(m *SampleMeasures) (float64, bool) { return m.PageFaultRate, true }
