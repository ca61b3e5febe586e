package fastrand

import (
	"math/bits"
	"math/rand/v2"
	"testing"
)

// TestMatchesRandV2 pins the generator to the stdlib: PCG must
// consume and produce the exact draw sequence of
// rand.New(rand.NewPCG(...)), mixing every method the simulator and
// workload generator call, so swapping it in changed no study byte.
// The stdlib takes a different reduction path on 32-bit hosts; this
// package deliberately implements the 64-bit algorithm everywhere,
// so the pin only holds (and only runs) on 64-bit.
func TestMatchesRandV2(t *testing.T) {
	if bits.UintSize == 32 {
		t.Skip("stdlib IntN uses a different draw algorithm on 32-bit hosts")
	}
	for seed := uint64(0); seed < 4; seed++ {
		ref := rand.New(rand.NewPCG(seed, seed+0xA5))
		fast := New(seed, seed+0xA5)
		// The moduli the IP model and workload generator actually
		// roll, plus edge cases: powers of two, 1, and a modulus
		// large enough to make the rejection threshold nontrivial.
		// The large modulus goes through a variable so the conversion
		// happens at run time (after the 32-bit skip above); a
		// constant literal would fail to compile on 386.
		bigMod := uint64(1)<<62 + 12345
		moduli := []int{1000, 4, 2, 1, 7, 3, 1 << 20, int(bigMod)}
		for i := 0; i < 300_000; i++ {
			switch i % 4 {
			case 0:
				if a, b := ref.Uint64(), fast.Uint64(); a != b {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, a, b)
				}
			case 1:
				if a, b := ref.Float64(), fast.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, a, b)
				}
			default:
				n := moduli[i%len(moduli)]
				if a, b := ref.IntN(n), fast.IntN(n); a != b {
					t.Fatalf("seed %d draw %d: IntN(%d) %d != %d", seed, i, n, a, b)
				}
			}
		}
	}
}

func TestIntNPanicsOnNonPositive(t *testing.T) {
	p := New(1, 2)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("IntN(%d) should panic", n)
				}
			}()
			p.IntN(n)
		}()
	}
}

// TestFailuresMatchesIntNLoop pins Failures to the trial loop it
// replaces: the same counts and the same generator state afterwards,
// for the IP model's modulus, a power of two and certain success.
func TestFailuresMatchesIntNLoop(t *testing.T) {
	for _, c := range []struct{ n, k int }{{1000, 60}, {1000, 1}, {1000, 1000}, {7, 3}, {64, 5}, {1, 1}} {
		ref, fast := New(9, uint64(c.n)), New(9, uint64(c.n))
		for i := 0; i < 2_000; i++ {
			var want uint64
			for ref.IntN(c.n) >= c.k {
				want++
			}
			if got := fast.Failures(c.n, c.k); got != want {
				t.Fatalf("n=%d k=%d draw %d: Failures = %d, loop = %d", c.n, c.k, i, got, want)
			}
		}
		if a, b := ref.Uint64(), fast.Uint64(); a != b {
			t.Fatalf("n=%d k=%d: generator states diverged", c.n, c.k)
		}
	}
}

// BenchmarkFailures measures the IP model's trial pre-draw: the
// failed IntN(1000) < 60 trials before the first success, about 16
// draws per op.
func BenchmarkFailures(b *testing.B) {
	p := New(1, 2)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += p.Failures(1000, 60)
	}
	_ = sink
}
