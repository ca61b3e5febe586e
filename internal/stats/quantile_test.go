package stats

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// refQuantile is the sort-based Quantile that selection replaced; the
// two must agree bit for bit.
func refQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// checkQuantile compares Quantile with refQuantile bit for bit and
// checks that the input is left as it was.
func checkQuantile(t *testing.T, xs []float64, q float64) {
	t.Helper()
	in := append([]float64(nil), xs...)
	got, want := Quantile(xs, q), refQuantile(xs, q)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Quantile(%v, %v) = %v (%#x), sort gives %v (%#x)",
			xs, q, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(in[i]) {
			t.Fatalf("Quantile modified its input at %d", i)
		}
	}
}

// special draws the values whose order only the sort decides or that
// test the comparisons' edges.
var special = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}

func TestQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1961))
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 16, 31, 100, 451, 610, 1000, 2000}
	for trial := 0; trial < 400; trial++ {
		n := lengths[trial%len(lengths)]
		if trial >= 2*len(lengths) {
			n = rng.IntN(2001)
		}
		xs := make([]float64, n)
		kind := trial % 6
		for i := range xs {
			switch kind {
			case 0: // continuous
				xs[i] = rng.NormFloat64()
			case 1: // heavy duplicates
				xs[i] = float64(rng.IntN(4))
			case 2: // all equal
				xs[i] = 0.0257
			case 3: // sorted, a selection's bad case without a median pivot
				xs[i] = float64(i)
			case 4: // reversed, with a few infinities
				xs[i] = float64(n - i)
				if rng.IntN(20) == 0 {
					xs[i] = special[1+rng.IntN(2)]
				}
			default: // specials mixed in, NaNs and -0 among them
				xs[i] = rng.NormFloat64()
				if rng.IntN(8) == 0 {
					xs[i] = special[rng.IntN(len(special))]
				}
			}
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1, -1, 2, rng.Float64(), rng.Float64()} {
			checkQuantile(t, xs, q)
		}
	}
}

func TestSelectKthOrdersAroundK(t *testing.T) {
	rng := rand.New(rand.NewPCG(65, 1))
	for trial := 0; trial < 200; trial++ {
		s := make([]float64, 1+rng.IntN(300))
		for i := range s {
			s[i] = float64(rng.IntN(1 + trial%40))
		}
		k := rng.IntN(len(s))
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		selectKth(s, k)
		if s[k] != sorted[k] {
			t.Fatalf("s[%d] = %v, want %v", k, s[k], sorted[k])
		}
		for i := range s {
			if (i < k && s[i] > s[k]) || (i > k && s[i] < s[k]) {
				t.Fatalf("s[%d] = %v on the wrong side of s[%d] = %v", i, s[i], k, s[k])
			}
		}
	}
}

// FuzzQuantile decodes the input as float64 bit patterns (any NaN,
// infinity or signed zero) and compares every quantile probed with the
// sort-based reference.
func FuzzQuantile(f *testing.F) {
	enc := func(q float64, xs ...float64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(q))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(enc(0.5))
	f.Add(enc(0.5, 3, 1, 2))
	f.Add(enc(0.25, 1, 1, 1, 1, 2, 2, 2))
	f.Add(enc(0.5, math.NaN(), 1, math.NaN(), 0))
	f.Add(enc(0.75, 0, math.Copysign(0, -1), 0, math.Copysign(0, -1)))
	f.Add(enc(0.9, math.Inf(1), math.Inf(-1), 5, math.Inf(1)))
	f.Add(enc(1, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		q := math.Float64frombits(binary.LittleEndian.Uint64(data))
		if math.IsNaN(q) {
			q = 0.5 // a NaN q indexes out of range, as it always has
		}
		xs := make([]float64, (len(data)-8)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8+8*i:]))
		}
		for _, p := range []float64{q, 0, 0.25, 0.5, 0.75, 1} {
			checkQuantile(t, xs, p)
		}
	})
}
