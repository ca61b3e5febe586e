package concentrix

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fx8"
)

// The scheduler's half of the correctness oracle (the cluster's is
// internal/fx8's fingerprint table): FuzzJobMixes' seed mixes, each
// replayed one Step per cycle and in StepN chunks of a fixed
// pseudo-random schedule, pinned to testdata/fingerprints.json.
// Regenerate the table (and review the diff) with
//
//	go test ./internal/concentrix -run TestGoldenFingerprints -update

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.json from the current simulator")

// fingerprint is one recorded run: every cycle's packed probe snapshot
// of the per-cycle run, the snapshots at the chunked run's chunk
// boundaries, and the machine and scheduler statistics at the end.
type fingerprint struct {
	Cycles uint64 `json:"cycles"`
	Wires  string `json:"wires"`
	Chunks string `json:"chunks"`
	Stats  string `json:"stats"`
}

// mixCase is one FuzzJobMixes input.
type mixCase struct {
	seed  uint64
	nJobs uint8
	slice uint32
	limit uint8
}

func (c mixCase) name() string {
	return fmt.Sprintf("mix/%#x/jobs%d/slice%d/limit%d", c.seed, c.nJobs, c.slice, c.limit)
}

// build boots the case's system with its jobs submitted: serial
// compute jobs and concurrent-loop jobs with memory traffic, on a
// cluster with seed%4 IPs of background traffic.
func (c mixCase) build() (*System, []*Process) {
	rng := rand.New(rand.NewPCG(c.seed, 0xCE))
	cfg := DefaultSysConfig()
	cfg.TimeSlice = int(c.slice%200_000) + 100
	cfg.ResidentLimit = int(c.limit%64) + 1
	ccfg := fx8.DefaultConfig()
	ccfg.NumIP = int(c.seed % 4)
	ccfg.Seed = c.seed
	sys := NewSystem(fx8.New(ccfg), cfg)

	n := int(c.nJobs%8) + 1
	jobs := make([]*Process, 0, n)
	for j := 0; j < n; j++ {
		var p *Process
		if rng.IntN(2) == 0 {
			p = computeJob(j+1, 50+rng.IntN(400), int32(1+rng.IntN(4)))
		} else {
			p = loopJob(j+1, rng.IntN(30), 1+rng.IntN(200), rng.Uint64())
		}
		p.ClusterSize = 1 + rng.IntN(8)
		p.Arrival = uint64(rng.IntN(50_000))
		jobs = append(jobs, p)
		sys.Submit(p)
	}
	return sys, jobs
}

// loopJob is a job whose serial thread runs one concurrent loop of
// trips iterations; each iteration computes for body cycles, then
// loads and vector-streams at addresses drawn from the iteration's
// own seed.
func loopJob(pid, trips, body int, seed uint64) *Process {
	loop := &fx8.Loop{
		Trips: trips,
		Body: func(iter int) fx8.Stream {
			r := rand.New(rand.NewPCG(seed, uint64(iter)))
			return &fx8.SliceStream{Instrs: []fx8.Instr{
				{Op: fx8.OpCompute, N: int32(body), IAddr: 0x8000},
				{Op: fx8.OpLoad, Addr: uint32(r.Uint64() % (8 << 20)), IAddr: 0x8004},
				{Op: fx8.OpVLoad, Addr: uint32(r.Uint64() % (8 << 20)), N: int32(r.IntN(64)), IAddr: 0x8008},
			}}
		},
	}
	return &Process{PID: pid, Name: "loop", Serial: &fx8.SliceStream{Instrs: []fx8.Instr{
		{Op: fx8.OpCompute, N: 10, IAddr: 0},
		{Op: fx8.OpCStart, Loop: loop, IAddr: 4},
		{Op: fx8.OpCompute, N: 10, IAddr: 8},
	}}}
}

// hashWords returns the hex sha256 of a word sequence.
func hashWords(ws []uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// statsWords lists the cluster's public statistics, the scheduler's
// and kernel's counters and every job's accounting.
func statsWords(sys *System, jobs []*Process) []uint64 {
	cl := sys.Cluster
	ws := []uint64{cl.Cycle(), sys.IdleCycles}
	for i := 0; i < cl.Config().NumCE; i++ {
		ce := cl.CE(i)
		ws = append(ws, ce.InstrsRetired, ce.BusBusyCycles, ce.MissCycles,
			ce.StallCycles, ce.AwaitCycles, ce.XbarWaitCycles)
	}
	c, m, b, k := cl.Cache(), cl.Mem(), cl.CCBus(), sys.Kernel
	ws = append(ws, c.Hits, c.Misses, c.WriteBacks, c.Invalidations,
		m.Transactions, m.BusyCycles, b.LoopsStarted, b.IterationsRun, b.AdvanceOps,
		k.PageFaultsUser, k.PageFaultsSystem, k.ContextSwitches, k.JobsCompleted)
	for _, p := range jobs {
		var done uint64
		if p.Done {
			done = 1
		}
		ws = append(ws, done, p.StartedAt, p.DoneAt, p.CPUCycles, p.WaitCycles, p.Space.Faults)
	}
	return ws
}

// nextChunk draws the next chunk length of the chunked replay: single
// cycles, short runs and long jumps in equal measure.
func nextChunk(rng *rand.Rand) int {
	switch rng.IntN(4) {
	case 0:
		return 1
	case 1:
		return 1 + rng.IntN(64)
	case 2:
		return 1 + rng.IntN(1024)
	default:
		return 1 + rng.IntN(20_000)
	}
}

// mixRuns replays a case per cycle and chunked, checks the two runs
// against each other, and returns the per-cycle run's fingerprint.
func mixRuns(t testing.TB, c mixCase) fingerprint {
	sys, jobs := c.build()
	var perCycle []uint64
	for i := 0; i < 30_000_000 && !sys.Drained(); i++ {
		sys.Step()
		perCycle = append(perCycle, sys.Cluster.Snapshot().Pack())
	}
	if !sys.Drained() {
		t.Fatalf("%s: system never drained", c.name())
	}
	fp := fingerprint{
		Cycles: sys.Cluster.Cycle(),
		Wires:  hashWords(perCycle),
		Stats:  hashWords(statsWords(sys, jobs)),
	}

	sys, jobs = c.build()
	rng := rand.New(rand.NewPCG(0xC4, 0x4E))
	var wires []uint64
	for sys.Cluster.Cycle() < fp.Cycles {
		n := uint64(nextChunk(rng))
		if left := fp.Cycles - sys.Cluster.Cycle(); n > left {
			n = left
		}
		sys.StepN(int(n)) //fxlint:allow truncation — n <= 20,000
		at := sys.Cluster.Cycle()
		w := sys.Cluster.Snapshot().Pack()
		if w != perCycle[at-1] {
			t.Fatalf("%s: probe wires diverge at cycle %d: per-cycle %#x, chunked %#x", c.name(), at-1, perCycle[at-1], w)
		}
		wires = append(wires, w)
	}
	fp.Chunks = hashWords(wires)
	if !sys.Drained() {
		t.Fatalf("%s: chunked run not drained after %d cycles", c.name(), fp.Cycles)
	}
	if got := hashWords(statsWords(sys, jobs)); got != fp.Stats {
		t.Fatalf("%s: chunked statistics differ from the per-cycle run's", c.name())
	}
	return fp
}

// goldenMixCases is FuzzJobMixes' seed corpus.
var goldenMixCases = []mixCase{
	{0xD1CE, 4, 10_000, 16},
	{7, 1, 150, 1},
	{0x5EED, 7, 2_000, 8},
	{0xC0DE, 6, 40_000, 3},
}

// TestGoldenFingerprints pins the per-cycle and chunked runs of every
// mix to the committed table.
func TestGoldenFingerprints(t *testing.T) {
	got := make(map[string]fingerprint)
	for _, c := range goldenMixCases {
		got[c.name()] = mixRuns(t, c)
	}
	path := filepath.Join("testdata", "fingerprints.json")
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]fingerprint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, fp := range got {
		if fp != want[name] {
			t.Errorf("%s: fingerprint\n got  %+v\n want %+v", name, fp, want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d fingerprints, the test produced %d", path, len(want), len(got))
	}
}
