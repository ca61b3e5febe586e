package core

import (
	"testing"

	"repro/internal/monitor"
)

// Session-level benchmarks: the two session kinds are the work units
// every campaign, sweep and service request fans out over, so their
// ns/op is the repository's headline hot-path number.  make bench
// records them in BENCH_core.json and the CI bench-gate fails a PR
// that slows them past the threshold.

// BenchmarkRunRandomSession measures one scaled-down random-sampling
// session end to end: machine boot, workload generation, sampling
// through the analyzer, and reduction.
func BenchmarkRunRandomSession(b *testing.B) {
	spec := SessionSpec{
		Samples:  4,
		Sampling: monitor.SampleSpec{Snapshots: 5, GapCycles: 5_000},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i)
		RunRandomSession(i, spec)
	}
}

// BenchmarkRunTriggeredSession measures one scaled-down triggered
// session: armed acquisitions waiting on the all-8 comparator.
func BenchmarkRunTriggeredSession(b *testing.B) {
	spec := TriggeredSpec{
		Mode:           monitor.TriggerAll8,
		Samples:        2,
		Buffers:        2,
		BudgetCycles:   60_000,
		WorkloadCycles: 400_000,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i)
		RunTriggeredSession(i, spec)
	}
}

// BenchmarkEncodeStudy measures EncodeStudy on the quick-scale
// campaign: the serialization every stored campaign pays once.
func BenchmarkEncodeStudy(b *testing.B) {
	st := DefaultStudyCache.Get(QuickScale(), 0)
	data, err := EncodeStudy(st)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeStudy(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeStudy measures DecodeStudy on the quick-scale
// campaign: the reload every cached report, daemon restart and job
// result fetch pays, most of it in the triggered sessions' buffers.
func BenchmarkDecodeStudy(b *testing.B) {
	data, err := EncodeStudy(DefaultStudyCache.Get(QuickScale(), 0))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeStudy(data); err != nil {
			b.Fatal(err)
		}
	}
}
