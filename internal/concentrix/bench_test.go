package concentrix

import (
	"testing"
)

// BenchmarkSystemStep measures one operating-system scheduling tick
// over a contended run queue: arrival admission, slice accounting,
// preemption checks and the cluster cycle underneath.  make bench
// records it in BENCH_concentrix.json for the CI regression gate.
func BenchmarkSystemStep(b *testing.B) {
	cfg := DefaultSysConfig()
	cfg.TimeSlice = 2_000 // frequent quantum expiry exercises the scheduler
	sys := NewSystem(quietCluster(), cfg)
	submit := func() {
		for j := 0; j < 4; j++ {
			sys.Submit(computeJob(j+1, 400, 3))
		}
	}
	submit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sys.Drained() {
			b.StopTimer()
			submit()
			b.StartTimer()
		}
		sys.Step()
	}
}

// BenchmarkSystemStepN drives BenchmarkSystemStep's workload through
// StepN, the path sessions take between snapshots, in chunks of 1,000
// cycles.  ns/cycle is the cost per simulated cycle, comparable with
// BenchmarkSystemStep's ns/op.
func BenchmarkSystemStepN(b *testing.B) {
	const chunk = 1_000
	cfg := DefaultSysConfig()
	cfg.TimeSlice = 2_000
	sys := NewSystem(quietCluster(), cfg)
	submit := func() {
		for j := 0; j < 4; j++ {
			sys.Submit(computeJob(j+1, 400, 3))
		}
	}
	submit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sys.Drained() {
			b.StopTimer()
			submit()
			b.StartTimer()
		}
		sys.StepN(chunk)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*chunk), "ns/cycle")
}

// BenchmarkVMTouch measures the per-cache-lookup virtual memory check
// with a process whose working set cycles through its resident limit.
func BenchmarkVMTouch(b *testing.B) {
	k := &Kernel{}
	vm := NewVM(4<<10, 800, k)
	p := &Process{PID: 1, Space: NewAddressSpace(64)}
	vm.SetCurrent(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Mostly same-page hits with periodic strides — the access
		// shape of vectorized code.
		addr := uint32(i) * 8 % (1 << 20)
		vm.Touch(int(addr)&7, addr)
	}
}
