package fx8

import (
	"testing"

	"repro/internal/trace"
)

// quietConfig returns a configuration with IP background traffic
// disabled so tests observe only CE-driven behaviour.
func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.NumIP = 0
	return cfg
}

// runUntilIdle steps the cluster until the installed process
// completes, failing the test if it does not finish within limit
// cycles.
func runUntilIdle(t *testing.T, cl *Cluster, limit int) {
	t.Helper()
	for i := 0; i < limit; i++ {
		if cl.Idle() {
			return
		}
		cl.Step()
	}
	t.Fatalf("process did not complete within %d cycles", limit)
}

func computeStream(n int, cycles int32) *SliceStream {
	s := &SliceStream{}
	for i := 0; i < n; i++ {
		s.Instrs = append(s.Instrs, Instr{Op: OpCompute, N: cycles, IAddr: uint32(i * 4)})
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.NumCE = 0
	if bad.Validate() == nil {
		t.Error("NumCE=0 should be invalid")
	}
	bad = DefaultConfig()
	bad.LineBytes = 33
	if bad.Validate() == nil {
		t.Error("non-power-of-two line should be invalid")
	}
	bad = DefaultConfig()
	bad.SharedCacheBytes = 100
	if bad.Validate() == nil {
		t.Error("indivisible cache size should be invalid")
	}
	bad = DefaultConfig()
	bad.ArbBias = []int{1}
	if bad.Validate() == nil {
		t.Error("short ArbBias should be invalid")
	}
	bad = DefaultConfig()
	bad.PageBytes = 3000
	if bad.Validate() == nil {
		t.Error("non-power-of-two page should be invalid")
	}
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"NumIP=-1", func(c *Config) { c.NumIP = -1 }},
		{"IPActivity=-1", func(c *Config) { c.IPActivity = -1 }},
		{"IPActivity=1001", func(c *Config) { c.IPActivity = 1001 }},
		{"IPInvalidate=-1", func(c *Config) { c.IPInvalidate = -1 }},
		{"IPInvalidate=1001", func(c *Config) { c.IPInvalidate = 1001 }},
	} {
		bad = DefaultConfig()
		c.edit(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s should be invalid", c.name)
		}
	}
	for _, edge := range []func(*Config){
		func(c *Config) { c.NumIP = 0 },
		func(c *Config) { c.IPActivity = 0 },
		func(c *Config) { c.IPActivity, c.IPInvalidate = 1000, 1000 },
	} {
		ok := DefaultConfig()
		edge(&ok)
		if err := ok.Validate(); err != nil {
			t.Errorf("edge config rejected: %v", err)
		}
	}
}

// TestIPActivityZeroNeverIssues checks that IPs with zero activity
// leave the memory buses silent and that the cluster still jumps the
// cycles between CE events.
func TestIPActivityZeroNeverIssues(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IPActivity = 0
	cl := New(cfg)
	cl.StepN(100_000)
	if cl.Cycle() != 100_000 || cl.Mem().Transactions != 0 {
		t.Fatalf("cycle %d, %d bus transactions; want 100000 and none", cl.Cycle(), cl.Mem().Transactions)
	}
	if n := cl.Advance(1 << 30); n != 1<<30 {
		t.Fatalf("idle cluster advanced %d cycles, want the whole %d", n, 1<<30)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New should panic on invalid config")
		}
	}()
	cfg := DefaultConfig()
	cfg.NumCE = -1
	New(cfg)
}

func TestSerialExecution(t *testing.T) {
	cl := New(quietConfig())
	if !cl.Idle() {
		t.Fatal("fresh cluster should be idle")
	}
	if err := cl.Run(computeStream(10, 3), 8); err != nil {
		t.Fatal(err)
	}
	if cl.Idle() {
		t.Fatal("cluster should be busy after Run")
	}
	// Only CE 0 should be active while serial.
	cl.Step()
	if n := cl.ActiveCount(); n != 1 {
		t.Fatalf("serial active count = %d, want 1", n)
	}
	if !cl.CE(0).Active() || cl.CE(1).Active() {
		t.Fatal("serial thread should be on CE 0")
	}
	runUntilIdle(t, cl, 10000)
	if cl.ActiveCount() != 0 {
		t.Fatal("no CE should be active after completion")
	}
}

func TestRunWhileBusy(t *testing.T) {
	cl := New(quietConfig())
	if err := cl.Run(computeStream(5, 1), 8); err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(computeStream(5, 1), 8); err != ErrBusy {
		t.Fatalf("second Run = %v, want ErrBusy", err)
	}
}

// loopProgram builds a serial stream that executes a concurrent loop
// of the given trip count, with bodyLen compute instructions per
// iteration, then a short serial tail.
func loopProgram(trips, bodyLen int) *SliceStream {
	loop := &Loop{
		Trips: trips,
		Body: func(iter int) Stream {
			body := &SliceStream{}
			for k := 0; k < bodyLen; k++ {
				body.Instrs = append(body.Instrs,
					Instr{Op: OpCompute, N: 2, IAddr: 0x8000 + uint32(k*4)})
			}
			return body
		},
	}
	return &SliceStream{Instrs: []Instr{
		{Op: OpCompute, N: 5, IAddr: 0},
		{Op: OpCStart, Loop: loop, IAddr: 4},
		{Op: OpCompute, N: 5, IAddr: 8},
	}}
}

func TestConcurrentLoopUsesAllCEs(t *testing.T) {
	cl := New(quietConfig())
	if err := cl.Run(loopProgram(64, 20), 8); err != nil {
		t.Fatal(err)
	}
	maxActive := 0
	for i := 0; i < 100000 && !cl.Idle(); i++ {
		cl.Step()
		if n := cl.ActiveCount(); n > maxActive {
			maxActive = n
		}
	}
	if !cl.Idle() {
		t.Fatal("program did not complete")
	}
	if maxActive != 8 {
		t.Fatalf("max active = %d, want 8", maxActive)
	}
	if got := cl.CCBus().IterationsRun; got != 64 {
		t.Fatalf("iterations run = %d, want 64", got)
	}
	if cl.CCBus().Running() {
		t.Fatal("CCB should be idle after the loop")
	}
}

func TestClusterSizeLimitsConcurrency(t *testing.T) {
	cl := New(quietConfig())
	if err := cl.Run(loopProgram(32, 20), 3); err != nil {
		t.Fatal(err)
	}
	maxActive := 0
	for i := 0; i < 100000 && !cl.Idle(); i++ {
		cl.Step()
		if n := cl.ActiveCount(); n > maxActive {
			maxActive = n
		}
	}
	if maxActive != 3 {
		t.Fatalf("max active = %d, want 3 (cluster size)", maxActive)
	}
}

func TestSerialResumesAfterLoop(t *testing.T) {
	cl := New(quietConfig())
	if err := cl.Run(loopProgram(16, 10), 8); err != nil {
		t.Fatal(err)
	}
	runUntilIdle(t, cl, 100000)
	// The serial tail must have executed: every CE instruction
	// retires, so total retired >= serial (2 instrs + compute
	// cycles) plus all loop bodies.
	var retired uint64
	for i := 0; i < 8; i++ {
		retired += cl.CE(i).InstrsRetired
	}
	if retired == 0 {
		t.Fatal("nothing retired")
	}
}

func TestZeroTripLoopFallsThrough(t *testing.T) {
	cl := New(quietConfig())
	if err := cl.Run(loopProgram(0, 10), 8); err != nil {
		t.Fatal(err)
	}
	runUntilIdle(t, cl, 10000)
	if cl.CCBus().IterationsRun != 0 {
		t.Fatal("zero-trip loop should run no iterations")
	}
}

func TestSingleTripLoop(t *testing.T) {
	cl := New(quietConfig())
	if err := cl.Run(loopProgram(1, 10), 8); err != nil {
		t.Fatal(err)
	}
	runUntilIdle(t, cl, 10000)
	if cl.CCBus().IterationsRun != 1 {
		t.Fatal("single-trip loop should run one iteration")
	}
}

func TestTransitionDescendsToSerial(t *testing.T) {
	// Watch the active count during the end of a loop: it must pass
	// through intermediate values and end at 1 (serial continuation).
	cl := New(quietConfig())
	if err := cl.Run(loopProgram(24, 40), 8); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	prev := 0
	for i := 0; i < 200000 && !cl.Idle(); i++ {
		cl.Step()
		n := cl.ActiveCount()
		if n != prev {
			seen[n] = true
			prev = n
		}
	}
	if !seen[8] {
		t.Error("never reached 8-active")
	}
	if !seen[1] {
		t.Error("never returned to serial (1-active)")
	}
}

func TestDependenceLoopSerializes(t *testing.T) {
	// A fully dependence-chained loop: iteration i awaits i-1.  All
	// iterations must still complete (no deadlock), with substantial
	// await cycles accumulated.
	cfg := quietConfig()
	cl := New(cfg)
	loop := &Loop{
		Trips: 16,
		Body: func(iter int) Stream {
			return &SliceStream{Instrs: []Instr{
				{Op: OpAwait, N: int32(iter - 1), IAddr: 0x9000},
				{Op: OpCompute, N: 10, IAddr: 0x9004},
				{Op: OpAdvance, N: int32(iter), IAddr: 0x9008},
			}}
		},
	}
	serial := &SliceStream{Instrs: []Instr{{Op: OpCStart, Loop: loop, IAddr: 0}}}
	if err := cl.Run(serial, 8); err != nil {
		t.Fatal(err)
	}
	runUntilIdle(t, cl, 100000)
	if cl.CCBus().IterationsRun != 16 {
		t.Fatalf("iterations = %d", cl.CCBus().IterationsRun)
	}
	var await uint64
	for i := 0; i < 8; i++ {
		await += cl.CE(i).AwaitCycles
	}
	if await == 0 {
		t.Error("dependence chain should accumulate await cycles")
	}
}

func TestAwaitingCEIsActiveButBusIdle(t *testing.T) {
	cfg := quietConfig()
	release := &Loop{
		Trips: 2,
		Body: func(iter int) Stream {
			if iter == 1 {
				// Iteration 1 waits on iteration 0.
				return &SliceStream{Instrs: []Instr{
					{Op: OpAwait, N: 0, IAddr: 0x9100},
					{Op: OpCompute, N: 2, IAddr: 0x9104},
				}}
			}
			return &SliceStream{Instrs: []Instr{
				{Op: OpCompute, N: 200, IAddr: 0x9108},
				{Op: OpAdvance, N: 0, IAddr: 0x910C},
			}}
		},
	}
	cl2 := New(cfg)
	if err := cl2.Run(&SliceStream{Instrs: []Instr{{Op: OpCStart, Loop: release, IAddr: 0}}}, 8); err != nil {
		t.Fatal(err)
	}
	sawAwaitActive := false
	for i := 0; i < 50000 && !cl2.Idle(); i++ {
		cl2.Step()
		for ce := 0; ce < 8; ce++ {
			c := cl2.CE(ce)
			if c.mode == ceAwait {
				if !c.Active() {
					t.Fatal("awaiting CE must count as active")
				}
				if c.BusOp() != trace.CEIdle {
					t.Fatal("awaiting CE must not occupy its bus")
				}
				sawAwaitActive = true
			}
		}
	}
	if !sawAwaitActive {
		t.Error("test never observed an awaiting CE")
	}
}

func TestVectorOperationStreams(t *testing.T) {
	cfg := quietConfig()
	cl := New(cfg)
	// One vector load of 32 elements: expect 32 bus-busy element
	// cycles on CE 0 and lookups at each line crossing (8-byte lanes,
	// 32-byte lines: 8 line crossings for 32 elements).
	serial := &SliceStream{Instrs: []Instr{
		{Op: OpVLoad, Addr: 0x40000, N: 32, IAddr: 0},
	}}
	if err := cl.Run(serial, 8); err != nil {
		t.Fatal(err)
	}
	runUntilIdle(t, cl, 10000)
	ce := cl.CE(0)
	// 32 element cycles plus 1 instruction-fetch cycle (cold icache).
	if ce.BusBusyCycles != 33 {
		t.Errorf("bus busy cycles = %d, want 33", ce.BusBusyCycles)
	}
	wantLookups := uint64(9) // 32 elems * 8 B / 32 B lines, + 1 ifetch
	if got := cl.Cache().Hits + cl.Cache().Misses; got != wantLookups {
		t.Errorf("cache lookups = %d, want %d", got, wantLookups)
	}
	if cl.Cache().Misses != 9 {
		t.Errorf("cold vector should miss each line: misses = %d", cl.Cache().Misses)
	}
}

func TestVectorRevisitHits(t *testing.T) {
	cfg := quietConfig()
	cl := New(cfg)
	serial := &SliceStream{Instrs: []Instr{
		{Op: OpVLoad, Addr: 0x40000, N: 32, IAddr: 0},
		{Op: OpVLoad, Addr: 0x40000, N: 32, IAddr: 4},
	}}
	if err := cl.Run(serial, 8); err != nil {
		t.Fatal(err)
	}
	runUntilIdle(t, cl, 10000)
	// 8 cold vector line misses + 1 cold instruction fetch miss; the
	// second pass (same icache line) hits all 8 data lines.
	if cl.Cache().Misses != 9 {
		t.Errorf("second pass should hit: misses = %d", cl.Cache().Misses)
	}
	if cl.Cache().Hits != 8 {
		t.Errorf("hits = %d, want 8", cl.Cache().Hits)
	}
}

func TestScalarMissDrivesMemoryBus(t *testing.T) {
	cfg := quietConfig()
	cl := New(cfg)
	serial := &SliceStream{Instrs: []Instr{
		{Op: OpLoad, Addr: 0x1234, IAddr: 0},
	}}
	if err := cl.Run(serial, 8); err != nil {
		t.Fatal(err)
	}
	sawMissOp := false
	sawMemRead := false
	for i := 0; i < 1000 && !cl.Idle(); i++ {
		cl.Step()
		rec := cl.Snapshot()
		if rec.CE[0] == trace.CEReadMiss {
			sawMissOp = true
		}
		for _, m := range rec.Mem {
			if m == trace.MemRead {
				sawMemRead = true
			}
		}
	}
	if !sawMissOp {
		t.Error("miss-qualified opcode never observed on CE bus")
	}
	if !sawMemRead {
		t.Error("memory bus fill never observed")
	}
}

func TestPreemptAndResume(t *testing.T) {
	cl := New(quietConfig())
	s := computeStream(100, 5)
	if err := cl.Run(s, 8); err != nil {
		t.Fatal(err)
	}
	cl.StepN(50)
	stream, ok := cl.Preempt()
	if !ok {
		t.Fatal("preempt at a serial point should succeed")
	}
	if !cl.Idle() {
		t.Fatal("cluster should be idle after preempt")
	}
	if cl.ActiveCount() != 0 {
		t.Fatal("no CE should be active after preempt")
	}
	// Resume and finish.
	if err := cl.Run(stream, 8); err != nil {
		t.Fatal(err)
	}
	runUntilIdle(t, cl, 10000)
}

func TestPreemptRefusedDuringLoop(t *testing.T) {
	cl := New(quietConfig())
	if err := cl.Run(loopProgram(64, 50), 8); err != nil {
		t.Fatal(err)
	}
	// Step into the loop.
	for i := 0; i < 10000 && !cl.InConcurrentLoop(); i++ {
		cl.Step()
	}
	if !cl.InConcurrentLoop() {
		t.Fatal("never entered the loop")
	}
	if _, ok := cl.Preempt(); ok {
		t.Fatal("preempt during a concurrent loop must be refused")
	}
}

func TestPreemptWhenIdle(t *testing.T) {
	cl := New(quietConfig())
	if _, ok := cl.Preempt(); ok {
		t.Fatal("preempt of idle cluster should fail")
	}
}

func TestSnapshotBeforeStep(t *testing.T) {
	cl := New(quietConfig())
	rec := cl.Snapshot()
	if rec.ActiveCount() != 0 || rec.BusyCount() != 0 {
		t.Error("pre-step snapshot should be empty")
	}
}

func TestSnapshotActiveMatchesCluster(t *testing.T) {
	cl := New(quietConfig())
	if err := cl.Run(loopProgram(32, 15), 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000 && !cl.Idle(); i++ {
		cl.Step()
		rec := cl.Snapshot()
		if rec.ActiveCount() != cl.ActiveCount() {
			t.Fatalf("snapshot active %d != cluster active %d",
				rec.ActiveCount(), cl.ActiveCount())
		}
	}
}

// fixedMMU stalls every access by a constant and counts touches.
type fixedMMU struct {
	stall   int
	touches int
}

func (m *fixedMMU) Touch(ce int, addr uint32) int {
	m.touches++
	return m.stall
}

func TestMMUHookStallsCE(t *testing.T) {
	cfg := quietConfig()
	clFast := New(cfg)
	clSlow := New(cfg)
	mmu := &fixedMMU{stall: 50}
	clSlow.SetMMU(mmu)

	prog := func() *SliceStream {
		s := &SliceStream{}
		for i := 0; i < 10; i++ {
			s.Instrs = append(s.Instrs, Instr{Op: OpLoad, Addr: uint32(i * 64), IAddr: uint32(i * 4)})
		}
		return s
	}
	if err := clFast.Run(prog(), 8); err != nil {
		t.Fatal(err)
	}
	if err := clSlow.Run(prog(), 8); err != nil {
		t.Fatal(err)
	}
	fast, slow := 0, 0
	for ; fast < 100000 && !clFast.Idle(); fast++ {
		clFast.Step()
	}
	for ; slow < 100000 && !clSlow.Idle(); slow++ {
		clSlow.Step()
	}
	if mmu.touches != 10 {
		t.Errorf("touches = %d, want 10", mmu.touches)
	}
	if slow <= fast+10*40 {
		t.Errorf("MMU stalls should slow execution: fast=%d slow=%d", fast, slow)
	}
}

func TestIPTrafficAppearsOnMemoryBus(t *testing.T) {
	cfg := DefaultConfig() // IPs enabled
	cfg.IPActivity = 500
	cl := New(cfg)
	sawIP := false
	for i := 0; i < 5000; i++ {
		cl.Step()
		rec := cl.Snapshot()
		for _, m := range rec.Mem {
			if m == trace.MemIPRead || m == trace.MemIPWrite {
				sawIP = true
			}
		}
	}
	if !sawIP {
		t.Error("IP traffic never observed on the memory bus")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []trace.Record {
		cl := New(DefaultConfig())
		if err := cl.Run(loopProgram(32, 25), 8); err != nil {
			t.Fatal(err)
		}
		var recs []trace.Record
		for i := 0; i < 20000; i++ {
			cl.Step()
			recs = append(recs, cl.Snapshot())
		}
		return recs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at cycle %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestArbitrationBiasSlowsDisfavoredCEs(t *testing.T) {
	// Under contention, CEs with zero bias must accumulate more
	// crossbar wait cycles than strongly favored CEs.
	cfg := quietConfig()
	cfg.ArbBias = []int{0, 8, 8, 8, 8, 8, 8, 0}
	cl := New(cfg)
	// Data-intensive loop: all CEs stream vectors continuously.
	loop := &Loop{
		Trips: 200,
		Body: func(iter int) Stream {
			base := uint32(0x100000 + iter*0x4000)
			return &SliceStream{Instrs: []Instr{
				{Op: OpVLoad, Addr: base, N: 64, IAddr: 0x8000},
				{Op: OpVLoad, Addr: base + 0x1000, N: 64, IAddr: 0x8004},
			}}
		},
	}
	serial := &SliceStream{Instrs: []Instr{{Op: OpCStart, Loop: loop, IAddr: 0}}}
	if err := cl.Run(serial, 8); err != nil {
		t.Fatal(err)
	}
	runUntilIdle(t, cl, 2000000)
	disfavored := cl.CE(0).XbarWaitCycles + cl.CE(7).XbarWaitCycles
	favored := cl.CE(3).XbarWaitCycles + cl.CE(4).XbarWaitCycles
	if disfavored <= favored {
		t.Errorf("disfavored wait %d should exceed favored wait %d", disfavored, favored)
	}
}

func TestInstrStreams(t *testing.T) {
	s := &SliceStream{Instrs: []Instr{{Op: OpCompute, N: 1}, {Op: OpCompute, N: 2}}}
	in, ok := s.Next()
	if !ok || in.N != 1 {
		t.Fatal("first instruction wrong")
	}
	s.Next()
	if _, ok := s.Next(); ok {
		t.Fatal("stream should be exhausted")
	}
	s.Reset()
	if _, ok := s.Next(); !ok {
		t.Fatal("reset should rewind")
	}

	calls := 0
	f := FuncStream(func() (Instr, bool) {
		calls++
		if calls > 2 {
			return Instr{}, false
		}
		return Instr{Op: OpCompute, N: int32(calls)}, true
	})
	n := 0
	for {
		if _, ok := f.Next(); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("FuncStream yielded %d", n)
	}

	c := &ConcatStream{Streams: []Stream{
		&SliceStream{Instrs: []Instr{{Op: OpCompute, N: 1}}},
		&SliceStream{},
		&SliceStream{Instrs: []Instr{{Op: OpCompute, N: 2}}},
	}}
	var got []int32
	for {
		in, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, in.N)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ConcatStream yielded %v", got)
	}
}
