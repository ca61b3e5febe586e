// Package fastrand is math/rand/v2's generator without the Source
// interface: the exact PCG state and draw algorithms of
// rand.New(rand.NewPCG(s1, s2)) on the concrete type, so per-cycle
// and per-instruction call sites (IP traffic, workload instruction
// streams) skip an interface dispatch per draw.  The draw sequence is
// pinned bit-for-bit against the stdlib by this package's tests.
// Unlike the stdlib, which switches reduction algorithms on 32-bit
// hosts, the sequence is the 64-bit one on every platform, so seeded
// workloads never depend on GOARCH.
package fastrand

import "math/bits"

// PCG draws the same sequence as rand.New(rand.NewPCG(seed1, seed2)).
// The zero value is the zero-seeded generator; use New for seeded
// ones.  Not safe for concurrent use, like rand.Rand.
type PCG struct {
	hi, lo uint64 // the 128-bit LCG state of rand.PCG
}

// New returns a generator with the state of rand.NewPCG(seed1, seed2).
func New(seed1, seed2 uint64) PCG {
	return PCG{hi: seed1, lo: seed2}
}

// next advances a PCG state by one draw and returns the new state and
// the draw: rand.PCG's 128-bit LCG step and DXSM output function.  It
// works on values, so loops can keep the state in registers.
func next(hi, lo uint64) (nhi, nlo, out uint64) {
	const (
		mulHi    = 2549297995355413924
		mulLo    = 4865540595714422341
		incHi    = 6364136223846793005
		incLo    = 1442695040888963407
		cheapMul = 0xda942042e4dd58b5
	)
	// state = state * mul + inc
	nhi, nlo = bits.Mul64(lo, mulLo)
	nhi += hi*mulLo + lo*mulHi
	nlo, c := bits.Add64(nlo, incLo, 0)
	nhi, _ = bits.Add64(nhi, incHi, c)
	// DXSM "double xorshift multiply"
	out = nhi
	out ^= out >> 32
	out *= cheapMul
	out ^= out >> 48
	out *= nlo | 1
	return nhi, nlo, out
}

// Uint64 matches (*rand.Rand).Uint64.
func (p *PCG) Uint64() uint64 {
	var x uint64
	p.hi, p.lo, x = next(p.hi, p.lo)
	return x
}

// IntN matches (*rand.Rand).IntN's 64-bit path, including the panic
// on n <= 0.
func (p *PCG) IntN(n int) int {
	if n <= 0 {
		panic("invalid argument to IntN")
	}
	u := uint64(n)
	if u&(u-1) == 0 { // n is power of two, can mask
		return int(p.Uint64() & (u - 1))
	}
	hi, lo := bits.Mul64(p.Uint64(), u)
	if lo < u {
		thresh := -u % u
		for lo < thresh {
			hi, lo = bits.Mul64(p.Uint64(), u)
		}
	}
	// hi = floor(x*n / 2^64) < n, an int; narrowing cannot truncate.
	return int(hi) //fxlint:allow truncation — hi < n
}

// Failures rolls IntN(n) < k trials until one succeeds and returns
// how many failed first.  It consumes exactly the draws the loop
// `for p.IntN(n) >= k {}` would, IntN's rejection step included, so
// it can pre-draw a Bernoulli(k/n) trial per cycle up to the next
// success.  k must be in 1..n, or the loop never ends.
func (p *PCG) Failures(n, k int) uint64 {
	if n <= 0 {
		panic("invalid argument to Failures")
	}
	u, kk := uint64(n), uint64(k)
	// The generator state lives in registers for the loop.
	hi, lo := p.hi, p.lo
	var x, f uint64
	if u&(u-1) == 0 {
		for {
			hi, lo, x = next(hi, lo)
			if x&(u-1) < kk {
				p.hi, p.lo = hi, lo
				return f
			}
			f++
		}
	}
	thresh := -u % u
	for {
		hi, lo, x = next(hi, lo)
		v, r := bits.Mul64(x, u)
		for r < thresh {
			hi, lo, x = next(hi, lo)
			v, r = bits.Mul64(x, u)
		}
		if v < kk {
			p.hi, p.lo = hi, lo
			return f
		}
		f++
	}
}

// Float64 matches (*rand.Rand).Float64.
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()<<11>>11) / (1 << 53)
}
