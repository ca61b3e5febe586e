package trace

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestCEOpStrings(t *testing.T) {
	want := map[CEOp]string{
		CEIdle:      "IDLE",
		CERead:      "READ",
		CEWrite:     "WRITE",
		CEFetch:     "FETCH",
		CEReadMiss:  "READ.MISS",
		CEWriteMiss: "WRITE.MISS",
		CEFetchMiss: "FETCH.MISS",
	}
	for op, s := range want {
		if got := op.String(); got != s {
			t.Errorf("CEOp(%d).String() = %q, want %q", op, got, s)
		}
	}
	if got := CEOp(99).String(); got != "CEOp(99)" {
		t.Errorf("unknown opcode String() = %q", got)
	}
}

func TestMemOpStrings(t *testing.T) {
	want := map[MemOp]string{
		MemIdle:    "IDLE",
		MemRead:    "READ",
		MemWrite:   "WRITE",
		MemInval:   "INVAL",
		MemIPRead:  "IP.READ",
		MemIPWrite: "IP.WRITE",
	}
	for op, s := range want {
		if got := op.String(); got != s {
			t.Errorf("MemOp(%d).String() = %q, want %q", op, got, s)
		}
	}
	if got := MemOp(99).String(); got != "MemOp(99)" {
		t.Errorf("unknown opcode String() = %q", got)
	}
}

func TestCEOpBusy(t *testing.T) {
	if CEIdle.Busy() {
		t.Error("CEIdle should not be busy")
	}
	for _, op := range []CEOp{CERead, CEWrite, CEFetch, CEReadMiss, CEWriteMiss, CEFetchMiss} {
		if !op.Busy() {
			t.Errorf("%v should be busy", op)
		}
	}
}

func TestCEOpMiss(t *testing.T) {
	misses := map[CEOp]bool{
		CEIdle: false, CERead: false, CEWrite: false, CEFetch: false,
		CEReadMiss: true, CEWriteMiss: true, CEFetchMiss: true,
	}
	for op, want := range misses {
		if got := op.Miss(); got != want {
			t.Errorf("%v.Miss() = %v, want %v", op, got, want)
		}
	}
}

func TestMemOpBusy(t *testing.T) {
	if MemIdle.Busy() {
		t.Error("MemIdle should not be busy")
	}
	for _, op := range []MemOp{MemRead, MemWrite, MemInval, MemIPRead, MemIPWrite} {
		if !op.Busy() {
			t.Errorf("%v should be busy", op)
		}
	}
}

func TestRecordCounts(t *testing.T) {
	var r Record
	if r.ActiveCount() != 0 || r.BusyCount() != 0 || r.MissCount() != 0 {
		t.Fatalf("zero record should have zero counts: %+v", r)
	}

	r.Active[0] = true
	r.Active[7] = true
	r.CE[0] = CERead
	r.CE[3] = CEReadMiss
	r.CE[7] = CEWriteMiss

	if got := r.ActiveCount(); got != 2 {
		t.Errorf("ActiveCount = %d, want 2", got)
	}
	if got := r.BusyCount(); got != 3 {
		t.Errorf("BusyCount = %d, want 3", got)
	}
	if got := r.MissCount(); got != 2 {
		t.Errorf("MissCount = %d, want 2", got)
	}
}

func TestSignalCountFitsPod(t *testing.T) {
	if SignalCount > 80 {
		t.Fatalf("SignalCount = %d exceeds the 80-signal pod capacity", SignalCount)
	}
	if SignalCount > 64 {
		t.Fatalf("SignalCount = %d does not fit the 64-bit packed word", SignalCount)
	}
}

func randomRecord(rng *rand.Rand) Record {
	var r Record
	for i := range r.CE {
		r.CE[i] = CEOp(rng.IntN(NumCEOps))
	}
	for i := range r.Mem {
		r.Mem[i] = MemOp(rng.IntN(NumMemOps))
	}
	for i := range r.Active {
		r.Active[i] = rng.IntN(2) == 1
	}
	return r
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		r := randomRecord(rng)
		got := Unpack(r.Pack())
		if got != r {
			t.Fatalf("round trip failed: %+v -> %#x -> %+v", r, r.Pack(), got)
		}
	}
}

func TestPackUnpackQuick(t *testing.T) {
	// Property: packing then unpacking any in-range record is the
	// identity, and the packed word never uses bits beyond SignalCount.
	f := func(ceRaw [NumCE]uint8, memRaw [NumMemBus]uint8, act [NumCE]bool) bool {
		var r Record
		for i, v := range ceRaw {
			r.CE[i] = CEOp(int(v) % NumCEOps)
		}
		for i, v := range memRaw {
			r.Mem[i] = MemOp(int(v) % NumMemOps)
		}
		r.Active = act
		w := r.Pack()
		if w>>SignalCount != 0 {
			return false
		}
		return Unpack(w) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 200; i++ {
		r := randomRecord(rng)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		// The packed form is a bare integer, not an object.
		if bytes.ContainsAny(data, "{[") {
			t.Fatalf("record encoded expanded: %s", data)
		}
		var got Record
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Fatalf("JSON round trip failed: %+v -> %s -> %+v", r, data, got)
		}
	}
	// Buffers (the persisted form) round-trip as integer arrays.
	buf := []Record{randomRecord(rng), randomRecord(rng)}
	data, err := json.Marshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != buf[0] || got[1] != buf[1] {
		t.Fatalf("buffer round trip failed: %s", data)
	}
	// Garbage fails loudly rather than zero-filling.
	if err := json.Unmarshal([]byte(`"text"`), new(Record)); err == nil {
		t.Error("non-numeric record decoded")
	}
}

func TestUnpackIgnoresHighBits(t *testing.T) {
	r := Record{CE: [NumCE]CEOp{CERead}, Active: [NumCE]bool{true}}
	// Set a bit above the signal range and confirm the decoded record
	// is unchanged.
	if SignalCount < 64 {
		w := r.Pack() | 1<<63
		if got := Unpack(w); got != r {
			t.Errorf("Unpack with stray high bit = %+v, want %+v", got, r)
		}
	}
}

func TestActiveCountMatchesPackedPopcount(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 200; i++ {
		r := randomRecord(rng)
		n := 0
		w := r.Pack() >> activeShift
		for w != 0 {
			n += int(w & 1)
			w >>= 1
		}
		if n != r.ActiveCount() {
			t.Fatalf("popcount %d != ActiveCount %d", n, r.ActiveCount())
		}
	}
}
