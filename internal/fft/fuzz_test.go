package fft

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// FuzzFFTRoundTrip drives forward+inverse round trips over fuzzer-
// chosen lengths (clamped to [1, 1024], so primes and other Bluestein
// lengths are reachable) and fuzzer-seeded data on the complex path,
// and checks the two real-input plans production runs against the
// complex transforms they replace: RealPlan2D.Forward on an nx×n array
// (nx in [1, 8], from the data seed) against Plan2D.Forward, and
// RealPlan3D.Forward on a cube of side ((n−1) mod 16) + 1 against
// Plan3D.Forward, both within 1e-9 of the peak coefficient. The seed
// corpus pins powers of two, primes (including the paper's 221 and
// 511), and degenerate lengths; `go test` replays the corpus, `go test
// -fuzz=FuzzFFTRoundTrip` explores. A round trip cannot see a wrong
// spectrum — that is FuzzFFTMatchesNaive's job.
func FuzzFFTRoundTrip(f *testing.F) {
	for _, seed := range [][2]uint64{
		{1, 1}, {2, 2}, {4, 3}, {16, 4}, {64, 5}, {1024, 6}, // powers of two
		{3, 7}, {7, 8}, {97, 9}, {221, 10}, {511, 11}, {509, 12}, // Bluestein, incl. paper sizes
		{6, 13}, {10, 14}, {222, 15}, {100, 16}, // even composites
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, rawN, dataSeed uint64) {
		n := int((rawN-1)%1024) + 1 // seed length n means n (it used to mean n+1)
		r := rand.New(rand.NewSource(int64(dataSeed)))

		// Complex round trip.
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		work := append([]complex128(nil), x...)
		p := NewPlan(n)
		p.Forward(work)
		p.Inverse(work)
		tol := 1e-9 * float64(n)
		for i := range x {
			if cmplx.Abs(work[i]-x[i]) > tol {
				t.Fatalf("complex round trip n=%d sample %d: |Δ|=%g", n, i, cmplx.Abs(work[i]-x[i]))
			}
		}

		// RealPlan2D against Plan2D on an nx×n array.
		nx := int(dataSeed%8) + 1
		src := randomReal(r, nx*n)
		got := make([]complex128, len(src))
		NewRealPlan2D(nx, n).Forward(src, got)
		if d := maxRel(got, complexOracle2D(src, nx, n)); d > 1e-9 {
			t.Fatalf("RealPlan2D %d×%d: deviation from Plan2D %g of the peak", nx, n, d)
		}

		// RealPlan3D against Plan3D on a small cube.
		c := (n-1)%16 + 1
		src = randomReal(r, c*c*c)
		got = make([]complex128, len(src))
		NewRealPlan3D(c, c, c).Forward(src, got)
		if d := maxRel(got, complexOracle3D(src, c, c, c)); d > 1e-9 {
			t.Fatalf("RealPlan3D %d³: deviation from Plan3D %g of the peak", c, d)
		}
	})
}

// FuzzFFTMatchesNaive checks Forward against the O(n²) DFT, which the
// round-trip target cannot do: a kernel whose outputs are permuted or
// mis-twiddled still inverts itself and still agrees with the real
// plans (which are built on it). Lengths clamp to [1, 1024]; the bound is 1e-12 of
// the peak coefficient. The corpus holds every workload length (box,
// padded box), one length per kernel boundary and the degenerate ones.
func FuzzFFTMatchesNaive(f *testing.F) {
	for _, n := range []uint64{
		16, 32, 40, 48, 56, 64, 80, 96, 112, 128, // workload lengths
		7 * 2, 7 * 4, 7 * 8, 7 * 64, 11, 13, 2 * 11, 221, 511, // kernel boundaries
		1, 2, 3, 5, 7, // degenerate
	} {
		f.Add(n, n)
	}
	f.Fuzz(func(t *testing.T, rawN, dataSeed uint64) {
		n := int((rawN-1)%1024) + 1
		x := randomSignal(rand.New(rand.NewSource(int64(dataSeed))), n)
		want := naiveDFT(x)
		p := NewPlan(n)
		p.Forward(x)
		if d := maxRel(x, want); d > 1e-12 {
			t.Fatalf("n=%d (%v): deviation from naive DFT %g of the peak", n, p.kernel, d)
		}
	})
}
