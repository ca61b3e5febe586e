package experiments

import (
	"testing"

	"repro/internal/core"
)

// BenchmarkSweepPoint measures one sweep point — the work unit the
// scheduler/cache/CE sweeps shard across fx8d backends.  make bench
// records it in BENCH_experiments.json for the CI regression gate.
func BenchmarkSweepPoint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := SweepUnit{Kind: "sched", Value: 100_000, Seed: uint64(i), Samples: 1}
		if _, err := RunSweepUnit(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullReport measures rendering the whole report — tables,
// star charts, scatters and model plots — from the quick study, as
// every report run and uncached artefact request does.  make bench
// records it in BENCH_experiments.json.
func BenchmarkFullReport(b *testing.B) {
	st := core.DefaultStudyCache.Get(core.QuickScale(), 0)
	b.ReportAllocs()
	for b.Loop() {
		if FullReport(st) == "" {
			b.Fatal("empty report")
		}
	}
}
