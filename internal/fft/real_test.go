package fft

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

func randomReal(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

// complexOracle2D transforms a real array through the complex 2-D
// path, the reference the Hermitian-symmetry plans are pinned against.
func complexOracle2D(src []float64, nx, ny int) []complex128 {
	out := make([]complex128, len(src))
	for i, v := range src {
		out[i] = complex(v, 0)
	}
	NewPlan2D(nx, ny).Forward(out)
	return out
}

func complexOracle3D(src []float64, nx, ny, nz int) []complex128 {
	out := make([]complex128, len(src))
	for i, v := range src {
		out[i] = complex(v, 0)
	}
	NewPlan3D(nx, ny, nz).Forward(out)
	return out
}

// maxRel returns the largest coefficient deviation relative to the
// spectrum's peak magnitude.
func maxRel(got, want []complex128) float64 {
	var peak, worst float64
	for _, w := range want {
		if a := cmplx.Abs(w); a > peak {
			peak = a
		}
	}
	if peak == 0 {
		peak = 1
	}
	for i := range got {
		if d := cmplx.Abs(got[i] - want[i]); d/peak > worst {
			worst = d / peak
		}
	}
	return worst
}

// TestRealPlan2DMatchesComplex pins the Hermitian 2-D path to the
// complex oracle at ≤1e-12 relative across even, odd, mixed,
// degenerate and prime shapes.
func TestRealPlan2DMatchesComplex(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, d := range [][2]int{
		{4, 4}, {8, 8}, {16, 16}, {32, 32}, // pow-2
		{5, 7}, {9, 15}, {21, 21}, {13, 11}, // odd/prime (Bluestein)
		{8, 6}, {6, 9}, {10, 21}, {17, 16}, // mixed parity
		{1, 9}, {3, 1}, {1, 1}, {2, 2}, // degenerate
	} {
		nx, ny := d[0], d[1]
		src := randomReal(r, nx*ny)
		want := complexOracle2D(src, nx, ny)
		got := make([]complex128, nx*ny)
		NewRealPlan2D(nx, ny).Forward(src, got)
		if rel := maxRel(got, want); rel > 1e-12 {
			t.Errorf("%d×%d: real path deviates from complex by %g (rel)", nx, ny, rel)
		}
	}
}

// halfOf returns the z ≤ n/2 half of a full n³ spectrum in the layout
// RealPlan3D.Forward writes.
func halfOf(full []complex128, n int) []complex128 {
	nh := n/2 + 1
	half := make([]complex128, n*n*nh)
	for i := 0; i < n*n; i++ {
		copy(half[i*nh:(i+1)*nh], full[i*n:])
	}
	return half
}

// expandHalf rebuilds the full n³ spectrum from its half the way the
// 3-D plan once did before returning: X[ix,iy,iz] = conj(X[(−ix) mod
// n, (−iy) mod n, n − iz]) for iz > n/2.
func expandHalf(half []complex128, n int) []complex128 {
	nh := n/2 + 1
	full := make([]complex128, n*n*n)
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			copy(full[(ix*n+iy)*n:], half[(ix*n+iy)*nh:(ix*n+iy+1)*nh])
			mir := (((n-ix)%n)*n + (n-iy)%n) * nh
			for iz := nh; iz < n; iz++ {
				full[(ix*n+iy)*n+iz] = cmplx.Conj(half[mir+n-iz])
			}
		}
	}
	return full
}

// TestRealPlan3DMatchesComplex pins the Hermitian 3-D path the same
// way: dense cubes of even, odd, prime and degenerate sizes, and
// l-cubes embedded in larger boxes of either parity, against the half
// of the complex transform of the zero-padded cube.
func TestRealPlan3DMatchesComplex(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, d := range [][2]int{
		{4, 4}, {8, 8}, {16, 16}, {3, 3}, {9, 9}, {5, 5}, {7, 7},
		{6, 6}, {2, 2}, {1, 1}, {10, 10},
		{10, 7}, {9, 4}, {16, 8}, {21, 7}, {12, 5}, {5, 1},
	} {
		n, l := d[0], d[1]
		src := randomReal(r, l*l*l)
		want := halfOf(complexOracle3D(embedCube(src, l, n), n, n, n), n)
		got := make([]complex128, len(want))
		NewRealPlan3D(n).Forward(src, l, got)
		if rel := maxRel(got, want); rel > 1e-12 {
			t.Errorf("%d³ in %d³: real path deviates from complex by %g (rel)", l, n, rel)
		}
	}
}

// skippedBy runs p.Forward and returns the fft.real3d.lines_skipped
// delta it caused.
func skippedBy(t *testing.T, p *RealPlan3D, src []float64, l int, dst []complex128) int64 {
	t.Helper()
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	before := real3dLinesSkipped.Value()
	p.Forward(src, l, dst)
	return real3dLinesSkipped.Value() - before
}

// TestRealPlan3DPrunesZeroLines: on a cube embedded in a pad-2 box the
// pruned transform equals the unpruned complex oracle and skips
// exactly the lines the embedding leaves zero; on a dense cube it
// skips nothing. A dirty dst proves skipped lines are still written.
func TestRealPlan3DPrunesZeroLines(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for _, c := range []struct {
		l, pad  int
		skipped int64
	}{
		// Skipped = dead z-line pairs + (dead x-planes)·(bl/2 + 1) y-lines.
		{48, 2, (4608 - 1152) + 48*49}, // bl = 96: 14 016 − 8 208 transforms
		{40, 2, (3200 - 800) + 40*41},  // bl = 80, smooth with a 5
		{16, 2, (512 - 128) + 16*17},   // bl = 32, pow2
		{7, 3, (21*11 - 7*4) + 14*11},  // bl = 21, odd: each plane ends on a lone line
		{24, 1, 0},                     // dense: nothing may be skipped
		{9, 1, 0},
	} {
		bl := c.l * c.pad
		src := randomReal(r, c.l*c.l*c.l)
		want := halfOf(complexOracle3D(embedCube(src, c.l, bl), bl, bl, bl), bl)
		got := make([]complex128, len(want))
		for i := range got {
			got[i] = complex(math.NaN(), math.NaN())
		}
		skipped := skippedBy(t, NewRealPlan3D(bl), src, c.l, got)
		if rel := maxRel(got, want); !(rel <= 1e-12) {
			t.Errorf("l=%d pad=%d: pruned path deviates from complex oracle by %g (rel)", c.l, c.pad, rel)
		}
		if skipped != c.skipped {
			t.Errorf("l=%d pad=%d: skipped %d line transforms, want %d", c.l, c.pad, skipped, c.skipped)
		}
	}
}

// TestRealPlan3DWorkersBitIdentical: every output line is written by
// one work item whose value does not depend on the worker that ran
// it, so 1, 2, 3 and 8 workers agree to the bit (run under -race: the
// passes share dst and the per-plane live counts).
func TestRealPlan3DWorkersBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for _, d := range [][2]int{{24, 24}, {12, 9}, {16, 16}, {15, 8}} {
		n, l := d[0], d[1]
		src := randomReal(r, l*l*l)
		clear(src[:len(src)/3]) // some dead planes and pairs
		var want []complex128
		for _, workers := range []int{1, 2, 3, 8} {
			got := make([]complex128, n*n*(n/2+1))
			newRealPlan3D(n, workers).Forward(src, l, got)
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("%d³ in %d³: %d workers differ from 1 at coefficient %d", l, n, workers, i)
				}
			}
		}
	}
}

// TestRealPlan3DPow2BitIdenticalToParent: at a power-of-two box the
// pruned, pooled transform reproduces the parent commit's serial one
// bit for bit up to the sign of zero (a skipped line is +0 where the
// transform of zeros could give −0; adding +0 folds both to +0). The
// hash was recorded at the commit before the rewrite, on the full
// spectrum that plan returned; expandHalf rebuilds it from the half by
// the mirror rule that plan applied, so the half is that spectrum's
// z ≤ n/2 half bit for bit.
func TestRealPlan3DPow2BitIdenticalToParent(t *testing.T) {
	src := randomReal(rand.New(rand.NewSource(15)), 8*8*8)
	half := make([]complex128, 16*16*9)
	NewRealPlan3D(16).Forward(src, 8, half)
	dst := expandHalf(half, 16)
	for i, v := range dst {
		dst[i] = complex(real(v)+0, imag(v)+0)
	}
	h := sha256.New()
	hashComplex(h, dst)
	const golden = "d40671e716dce3815119e9c7a1788f21da9b33a1da74d3f35108881f9d3b1b06"
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("16³ padded spectrum hash %s, want %s", got, golden)
	}
}

// TestRealPlan2DReuse: repeated transforms through one plan must not
// contaminate each other via the shared scratch.
func TestRealPlan2DReuse(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	p := NewRealPlan2D(12, 10)
	for trial := 0; trial < 4; trial++ {
		src := randomReal(r, 12*10)
		want := complexOracle2D(src, 12, 10)
		got := make([]complex128, 12*10)
		p.Forward(src, got)
		if rel := maxRel(got, want); rel > 1e-12 {
			t.Fatalf("trial %d: plan reuse broke (rel %g)", trial, rel)
		}
	}
}

// TestSplitTermsMatchComplexDivision pins the ±0 caveat of the real
// scaling that replaced the complex divisions by 2 and 2i: on random
// and all-zero lines, splitPair gives outputs == the old expressions,
// so every value is equal and only the sign of a zero may differ.
func TestSplitTermsMatchComplexDivision(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{2, 7, 16, 48} {
		for _, zero := range []bool{false, true} {
			z := make([]complex128, n)
			for i := range z {
				if zero {
					z[i] = complex(negZero, 0) // mixed-sign zeros
					if i%2 == 0 {
						z[i] = complex(0, negZero)
					}
					continue
				}
				z[i] = complex(r.NormFloat64(), r.NormFloat64())
			}
			a, b := make([]complex128, n), make([]complex128, n)
			splitPair(z, a, b)
			for k := range z {
				zk, zkm := z[k], cmplx.Conj(z[(n-k)%n])
				if wa, wb := (zk+zkm)/2, (zk-zkm)/complex(0, 2); a[k] != wa || b[k] != wb {
					t.Fatalf("n=%d zero=%t k=%d: splitPair (%v, %v), complex division (%v, %v)", n, zero, k, a[k], b[k], wa, wb)
				}
			}
		}
	}
}

// BenchmarkNewPlanParallel measures concurrent plan construction for a
// cached length across GOMAXPROCS goroutines — the warm-up pattern of
// the pooled transforms, where every worker builds its own plans. A
// sync.Map reads a cached key without a lock, so this must scale, not
// serialize.
func BenchmarkNewPlanParallel(b *testing.B) {
	NewPlan(256)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = NewPlan(256)
		}
	})
}

// BenchmarkNewPlanParallelMixed exercises distinct lengths per
// goroutine so different keys of the one cache are read in parallel.
func BenchmarkNewPlanParallelMixed(b *testing.B) {
	lengths := []int{64, 128, 221, 243, 256, 509, 512, 1024}
	for _, n := range lengths {
		NewPlan(n)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			_ = NewPlan(lengths[i&7])
			i++
		}
	})
}

// BenchmarkRealFFT2D_64 vs BenchmarkFFT2D_64Complex measure the
// real-input speedup on a view-sized 2-D transform.
func BenchmarkRealFFT2D_64(b *testing.B) {
	const l = 64
	r := rand.New(rand.NewSource(3))
	src := randomReal(r, l*l)
	dst := make([]complex128, l*l)
	p := NewRealPlan2D(l, l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(src, dst)
	}
}

func BenchmarkFFT2D_64Complex(b *testing.B) {
	const l = 64
	r := rand.New(rand.NewSource(3))
	src := randomReal(r, l*l)
	work := make([]complex128, l*l)
	p := NewPlan2D(l, l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range src {
			work[j] = complex(v, 0)
		}
		p.Forward(work)
	}
}

// BenchmarkRealFFT3D_32 vs BenchmarkFFT3D_32Complex measure the same
// on a map-sized 3-D transform.
func BenchmarkRealFFT3D_32(b *testing.B) {
	const l = 32
	r := rand.New(rand.NewSource(4))
	src := randomReal(r, l*l*l)
	dst := make([]complex128, l*l*(l/2+1))
	p := NewRealPlan3D(l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(src, l, dst)
	}
}

// embedCube places an l³ cube centrally in a zero n³ box, at the
// offset n/2 − l/2 RealPlan3D.Forward reads its source at.
func embedCube(src []float64, l, n int) []float64 {
	off := n/2 - l/2
	out := make([]float64, n*n*n)
	for x := 0; x < l; x++ {
		for y := 0; y < l; y++ {
			copy(out[((x+off)*n+y+off)*n+off:], src[(x*l+y)*l:(x*l+y+1)*l])
		}
	}
	return out
}

// BenchmarkRealFFT3D_Padded96 is the reference-map transform of the
// sindbis set: a 48³ cube in a 96³ box, smooth kernel, pruned lines,
// pool fan-out at GOMAXPROCS.
func BenchmarkRealFFT3D_Padded96(b *testing.B) {
	const bl = 96
	src := randomReal(rand.New(rand.NewSource(5)), 48*48*48)
	dst := make([]complex128, bl*bl*(bl/2+1))
	p := NewRealPlan3D(bl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(src, 48, dst)
	}
}

func BenchmarkFFT3D_32Complex(b *testing.B) {
	const l = 32
	r := rand.New(rand.NewSource(4))
	src := randomReal(r, l*l*l)
	work := make([]complex128, l*l*l)
	p := NewPlan3D(l, l, l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range src {
			work[j] = complex(v, 0)
		}
		p.Forward(work)
	}
}
