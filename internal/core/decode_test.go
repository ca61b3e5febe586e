package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// FuzzDecodeStudy checks DecodeStudy against its reference,
// json.Unmarshal into a Study: for any input both must accept or both
// reject, and on success return deep-equal studies that re-encode to
// the same bytes.  The seeds cover the layouts EncodeStudy never
// writes but encoding/json accepts: whitespace, reordered and unknown
// keys, null sessions and buffers, key text inside strings, and keys
// naming a field twice or in another case, where the last one wins.
func FuzzDecodeStudy(f *testing.F) {
	enc, err := EncodeStudy(RunStudy(tinyConfig()))
	if err != nil {
		f.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, enc, "\r", "\t "); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		enc, indented.Bytes(),
		enc[:len(enc)/2], enc[:len(enc)-1], append(enc[:len(enc):len(enc)], 'x'),
		append(enc[:len(enc):len(enc)], " \n"...), append(enc[:len(enc):len(enc)], "{}"...),
	} {
		f.Add(seed)
	}
	for _, seed := range []string{
		`null`, ` null `, `{}`, `[]`, `""`, `1`, ``, `{`, `{"HighConc":[]}`, `{"HighConc":null}`,
		// Reordered and unknown keys, whitespace, nulls.
		`{"Transition":[{"Buffers":[[1,2]],"ID":7}],"Random":null,"HighConc":[{"Mode":1,"Buffers":[[3]]}]}`,
		` { "HighConc" : [ null , { "Buffers" : [ [ 1 , 2 ] , null , [ ] ] } , { "Buffers" : null } , {} ] } `,
		`{"HighConc":[{"Buffers":[]}],"Transition":[{"Buffers":[null]}],"Extra":{"Buffers":[[9]]}}`,
		`{"Note":"\"Buffers\":[[1]]","HighConc":[{"\"Buffers\":[[9]]":1,"Buffers":[[5]]}]}`,
		`{"Note":"\\\"HighConc\":[","HighConc":[{"Buffers":[[5]],"Samples":[{"Buffers":[[6]]}]}]}`,
		// Keys naming a field twice, in other cases and in escapes.
		`{"HighConc":[{"Buffers":[[1]],"buffers":[[2]]}]}`,
		`{"HighConc":[{"buffers":[[1]],"Buffers":null}]}`,
		`{"HighConc":[{"BUFFERS":[[1]],"Buffers":[1]}]}`,
		`{"HighConc":[{"Buffers":[[1]],"Buffers":[[1,"2"]]}]}`,
		`{"highconc":[{"bUfFeRs":[[4]]}],"TRANSITION":[{"Buffers":[[8]]}]}`,
		"{\"HighConc\":[{\"Bufferſ\":[[4]]}],\"Tranſition\":[{\"Buffers\":[[8]]}]}",
		`{"HighConc":[{"Buffers":[[1]],"Buffer\u0073":[[2]]}]}`,
		`{"HighConc":[{"Buffers":[[1]]}],"High\u0043onc":[{"Buffers":[[2]]}]}`,
		`{"Transitions":{},"Transition":[{"Buffers":[[8]]}]}`,
		`{"HighConc":[{"Buffers":[[1]]},{"Buffers":[[2]]}],"HighConc":[{"ID":3}]}`,
		`{"HighConc":[{"Buffers":[[1]]},{"Buffers":[[2]]}],"HighConc":[{}],"HighConc":[{},{}]}`,
		`{"Transition":[{"Buffers":[[1]]}],"transition":null}`,
		// Words at and past the grammar's limits.
		`{"HighConc":[{"Buffers":[[18446744073709551615,0]]}]}`,
		`{"HighConc":[{"Buffers":[[18446744073709551616]]}]}`,
		`{"HighConc":[{"Buffers":[[01]]}]}`,
		`{"HighConc":[{"Buffers":[[1.0],[-1]]}]}`,
		`{"HighConc":[{"Buffers":[[1,]]}]}`,
		`{"HighConc":[{"Buffers":[[1]]x}]}`,
		// Malformed buffers found only when the cut values decode,
		// after the walk accepted the document.
		`{"HighConc":[{"Buffers":[[1]]},{"Buffers":[[2,-3]]}]}`,
		`{"HighConc":[{"Buffers":[[1,"]"]]}]}`,
		`{"HighConc":[{"Buffers":[[1,"]"],[2]]}]}`,
		`{"HighConc":[{"Buffers":[["]]}]}"]]}]}`,
		`{"HighConc":[{"Buffers":[[1,2}]}`,
		`{"HighConc":[{"Buffers":[[1],[2}]}`,
		`{"HighConc":[{"Buffers":[[1]]}]`,
		`{"HighConc":[{"Buffers":[[1]]}]}}`,
		`{"HighConc":[1,{"Buffers":[[1]]}]}`,
		`{"HighConc":{"Buffers":[[1]]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := new(Study)
		wantErr := json.Unmarshal(data, want)
		got, gotErr := DecodeStudy(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: DecodeStudy error %v, json.Unmarshal error %v", data, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: DecodeStudy and json.Unmarshal decode different studies", data)
		}
		a, errA := EncodeStudy(got)
		b, errB := EncodeStudy(want)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("%q: DecodeStudy's study encodes %.200s (%v), json.Unmarshal's %.200s (%v)", data, a, errA, b, errB)
		}
	})
}

// TestDecodeStudyEveryProcCount decodes the stored quick campaign with
// one and with four Ps: however the buffer decoding spreads over
// goroutines, the study re-encodes to the pinned bytes.
func TestDecodeStudyEveryProcCount(t *testing.T) {
	if testing.Short() {
		t.Skip("quick campaign in -short mode")
	}
	enc, err := EncodeStudy(DefaultStudyCache.Get(QuickScale(), 0))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		st, err := DecodeStudy(enc)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		again, err := EncodeStudy(st)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(again)); got != quickStudySHA256 {
			t.Errorf("GOMAXPROCS %d: decoded quick study re-encodes to sha256 %s, want %s", procs, got, quickStudySHA256)
		}
	}
}
