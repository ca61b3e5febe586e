package trace

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"testing"
)

// FuzzBufferDecode checks Buffer.UnmarshalJSON against the per-record
// reference, json.Unmarshal into []Record: for any input both must
// accept or both reject, and on success agree record for record,
// including nil (null) against empty ([]).  The store deletes entries
// that fail to decode, so a decoder stricter than the reference would
// destroy valid cache entries.
func FuzzBufferDecode(f *testing.F) {
	rng := rand.New(rand.NewPCG(5, 6))
	valid, err := json.Marshal([]Record{randomRecord(rng), randomRecord(rng), randomRecord(rng)})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(valid),
		" \t\n\r[ 1 ,\n2\t,\r3 ] \n",
		"[]", "[ ]", "null", " null ", "nul", "nullx",
		"[null]", "[1,null]",
		"[12345678,123456789012,1234567:9,123456789012/4]",
		"[18446744073709551615]", "[18446744073709551616]", "[99999999999999999999]",
		"[-1]", "[-0]", "[1.0]", "[1e3]", "[1E3]", "[+1]", "[01]", "[0]", "[00]",
		`["1"]`, "[true]", "[[1]]", "[{}]",
		"[1,]", "[,1]", "[1 2]", "[1,,2]", "[1]]", "[[1]", "[1][2]", "[1] x",
		"", " ", "[", "]", "{}", "1", `"[1]"`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []Record
		wantErr := json.Unmarshal(data, &want)
		var got Buffer
		gotErr := got.UnmarshalJSON(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: Buffer error %v, []Record error %v", data, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("%q: Buffer nil=%v, []Record nil=%v", data, got == nil, want == nil)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: Buffer has %d records, []Record %d", data, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: record %d = %+v, want %+v", data, i, got[i], want[i])
			}
		}
		// The wire form is the per-record one: both re-encode alike.
		a, errA := json.Marshal(got)
		b, errB := json.Marshal(want)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("%q: Buffer encodes %s (%v), []Record %s (%v)", data, a, errA, b, errB)
		}
	})
}

// TestBufferNestedDecode decodes buffers the way stored sessions hold
// them, as values inside a larger document, where encoding/json hands
// each array (or null) to Buffer.UnmarshalJSON.
func TestBufferNestedDecode(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	in := struct{ Buffers [][]Record }{
		Buffers: [][]Record{{randomRecord(rng), randomRecord(rng)}, {}, nil, {randomRecord(rng)}},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ Buffers []Buffer }
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Buffers) != len(in.Buffers) {
		t.Fatalf("decoded %d buffers, want %d", len(out.Buffers), len(in.Buffers))
	}
	for i, buf := range out.Buffers {
		if (buf == nil) != (in.Buffers[i] == nil) || len(buf) != len(in.Buffers[i]) {
			t.Fatalf("buffer %d = %v, want %v", i, buf, in.Buffers[i])
		}
		for j, r := range buf {
			if r != in.Buffers[i][j] {
				t.Fatalf("buffer %d record %d = %+v, want %+v", i, j, r, in.Buffers[i][j])
			}
		}
	}
	again, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Errorf("re-encoded %s, want %s", again, data)
	}
	// A bad word inside a document fails the whole decode.
	if err := json.Unmarshal([]byte(`{"Buffers":[[1,-1]]}`), &out); err == nil {
		t.Error("negative packed record decoded")
	}
}

// TestSkipBuffersMatchesReadBuffers: wherever ReadBuffers decodes a
// []Buffer value, SkipBuffers measures the same length, and wherever
// the arrays' structure is malformed both fail.  Malformed words pass
// SkipBuffers, which decodes none of them.
func TestSkipBuffersMatchesReadBuffers(t *testing.T) {
	for _, tc := range []struct {
		in         string
		structural bool // SkipBuffers must fail too
	}{
		{in: "null"}, {in: "null,"}, {in: "[]"}, {in: "[ ]x"}, {in: "[null]"}, {in: "[[]]"},
		{in: "[ [1 , 2] ,null, [ ] ] ,\"x\":1"}, {in: "[[18446744073709551615,0]]"},
		{in: "[[1],[-1]]"}, {in: "[[01]]"}, {in: "[[1,]]"}, {in: "[[1 2]]"}, {in: `[[1,"2"]]`},
		{in: `[[1,"]"]]`, structural: true}, {in: "[[1]", structural: true}, {in: "[[1],", structural: true},
		{in: "[[1", structural: true}, {in: "[1]", structural: true}, {in: "[[1]x]", structural: true},
		{in: "", structural: true}, {in: "nul", structural: true}, {in: "{}", structural: true},
	} {
		bufs, n, err := ReadBuffers([]byte(tc.in))
		m, skipErr := SkipBuffers([]byte(tc.in))
		switch {
		case err == nil && (skipErr != nil || m != n):
			t.Errorf("%q: ReadBuffers read %d bytes (%d buffers), SkipBuffers %d (%v)", tc.in, n, len(bufs), m, skipErr)
		case tc.structural && (err == nil || skipErr == nil):
			t.Errorf("%q: ReadBuffers error %v, SkipBuffers error %v; want both to fail", tc.in, err, skipErr)
		case !tc.structural && skipErr != nil:
			t.Errorf("%q: SkipBuffers error %v", tc.in, skipErr)
		}
	}
}
