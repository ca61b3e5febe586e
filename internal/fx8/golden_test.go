package fx8

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
)

// The correctness oracle of the simulator core: absolute fingerprints
// of recorded runs, committed in testdata/fingerprints.json.  Every
// run is replayed twice — one Step per cycle, and in StepN chunks of
// a fixed pseudo-random schedule — and both must reproduce the table.
// Regenerate it (and review the diff) with
//
//	go test ./internal/fx8 -run TestGoldenFingerprints -update

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.json from the current simulator")

// fingerprint is one recorded run.  Wires hashes every cycle's packed
// probe snapshot of the per-cycle run; Chunks hashes the snapshot at
// every chunk boundary of the chunked run; Stats hashes the machine's
// statistics at the end, which both runs must share.
type fingerprint struct {
	Cycles uint64 `json:"cycles"`
	Wires  string `json:"wires"`
	Chunks string `json:"chunks"`
	Stats  string `json:"stats"`
}

// programCase is one FuzzClusterPrograms input: the program seed, the
// resource class and the machine mode (IP count and MMU stall).
type programCase struct {
	seed uint64
	size uint8
	mode uint8
}

// name keys the case in the fingerprint table.
func (c programCase) name() string {
	return fmt.Sprintf("program/%#x/size%d/mode%d", c.seed, c.size, c.mode)
}

// build returns a cluster with the case's program installed.  The
// mode's low two bits give the IP count (0..3, so IP traffic and
// coherence invalidations are covered); the next two bits a uniform
// MMU stall per data access (0 = no MMU).
func (c programCase) build(t testing.TB) *Cluster {
	cfg := quietConfig()
	cfg.NumIP = int(c.mode % 4)
	cl := New(cfg)
	if stall := int(c.mode/4%4) * 13; stall > 0 {
		cl.SetMMU(&fixedMMU{stall: stall})
	}
	rng := rand.New(rand.NewPCG(c.seed, 0xF2))
	if err := cl.Run(randomProgram(rng), int(c.size%8)+1); err != nil {
		t.Fatal(err)
	}
	return cl
}

// stepRun steps cl one cycle at a time until its process completes or
// limit cycles pass, returning every cycle's packed probe snapshot.
func stepRun(cl *Cluster, limit int) []uint64 {
	var wires []uint64
	for i := 0; i < limit && !cl.Idle(); i++ {
		cl.Step()
		wires = append(wires, cl.Snapshot().Pack())
	}
	return wires
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

// chunkRun advances a machine by exactly cycles cycles in chunks of
// the fixed schedule, calling stepN for each chunk and snap at every
// chunk boundary.  It returns the boundary cycles (counted from the
// start) and the packed snapshots taken there.
func chunkRun(cycles uint64, stepN func(int), snap func() uint64) (at, wires []uint64) {
	rng := rand.New(rand.NewPCG(0xC4, 0x4E))
	var done uint64
	for done < cycles {
		n := uint64(nextChunk(rng))
		if n > cycles-done {
			n = cycles - done
		}
		stepN(int(n)) //fxlint:allow truncation — n <= 20,000
		done += n
		at = append(at, done)
		wires = append(wires, snap())
	}
	return at, wires
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

// statsWords lists every statistic the cluster keeps: the cycle
// count, each CE's counters and icache hits and misses, each IP's
// traffic, the shared cache, the memory buses and the CCB.
func statsWords(cl *Cluster) []uint64 {
	ws := []uint64{cl.Cycle()}
	for i := range cl.ces {
		ce := cl.CE(i)
		ws = append(ws, ce.InstrsRetired, ce.BusBusyCycles, ce.MissCycles,
			ce.StallCycles, ce.AwaitCycles, ce.XbarWaitCycles, ce.icache.hits, ce.icache.misses)
	}
	for i := range cl.ips {
		ws = append(ws, cl.ips[i].Transactions, cl.ips[i].Invalidations)
	}
	c, m, b := cl.Cache(), cl.Mem(), cl.CCBus()
	return append(ws, c.Hits, c.Misses, c.WriteBacks, c.Invalidations,
		m.Transactions, m.BusyCycles, b.LoopsStarted, b.IterationsRun, b.AdvanceOps)
}

// firstDivergence compares the chunked run's boundary snapshots with
// the per-cycle run's and reports the first boundary that differs.
func firstDivergence(perCycle, at, wires []uint64) error {
	for i, c := range at {
		if perCycle[c-1] != wires[i] {
			return fmt.Errorf("probe wires diverge at cycle %d: per-cycle %#x, chunked %#x", c-1, perCycle[c-1], wires[i])
		}
	}
	return nil
}

// programRuns replays a case per cycle and chunked, checks the two
// runs against each other, and returns the per-cycle run's
// fingerprint.
func programRuns(t testing.TB, c programCase) fingerprint {
	stepped := c.build(t)
	perCycle := stepRun(stepped, 3_000_000)
	if !stepped.Idle() {
		t.Fatalf("%s wedged", c.name())
	}
	fp := fingerprint{
		Cycles: stepped.Cycle(),
		Wires:  hashWords(perCycle),
		Stats:  hashWords(statsWords(stepped)),
	}
	chunked := c.build(t)
	at, wires := chunkRun(fp.Cycles, chunked.StepN, func() uint64 { return chunked.Snapshot().Pack() })
	fp.Chunks = hashWords(wires)
	if err := firstDivergence(perCycle, at, wires); err != nil {
		t.Fatalf("%s: %v", c.name(), err)
	}
	if !chunked.Idle() {
		t.Fatalf("%s: chunked run not idle after %d cycles", c.name(), fp.Cycles)
	}
	if got := hashWords(statsWords(chunked)); got != fp.Stats {
		t.Fatalf("%s: chunked statistics differ from the per-cycle run's", c.name())
	}
	return fp
}

// goldenProgramCases is FuzzClusterPrograms' seed corpus.
var goldenProgramCases = []programCase{
	{0xF00D, 8, 0},
	{1, 1, 0},
	{0xBEEF, 4, 0},
	{0xF00D, 8, 3},
	{0xBEEF, 8, 7},
	{0x5EED, 6, 2},
	{0xC0FFEE, 8, 3},
	{0xA11CE, 3, 5},
	{42, 8, 11},
}

// checkGolden compares fingerprints against a committed table, or
// rewrites the table under -update.
func checkGolden(t *testing.T, path string, got map[string]fingerprint) {
	t.Helper()
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
		t.Logf("wrote %d fingerprints to %s", len(got), path)
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
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in %s (regenerate with -update)", name, path)
			continue
		}
		if fp != w {
			t.Errorf("%s: fingerprint\n got  %+v\n want %+v", name, fp, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d fingerprints, the test produced %d", path, len(want), len(got))
	}
}

// TestGoldenFingerprints pins the per-cycle and chunked runs of every
// case to the committed table.
func TestGoldenFingerprints(t *testing.T) {
	got := make(map[string]fingerprint)
	for _, c := range goldenProgramCases {
		got[c.name()] = programRuns(t, c)
	}
	checkGolden(t, filepath.Join("testdata", "fingerprints.json"), got)
}
