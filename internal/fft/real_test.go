package fft

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
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

// TestRealPlan3DMatchesComplex pins the Hermitian 3-D path the same
// way.
func TestRealPlan3DMatchesComplex(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, d := range [][3]int{
		{4, 4, 4}, {8, 8, 8}, {16, 16, 16},
		{3, 5, 7}, {9, 9, 9}, {5, 5, 5},
		{6, 2, 9}, {2, 3, 1}, {1, 1, 1}, {4, 7, 10},
	} {
		nx, ny, nz := d[0], d[1], d[2]
		src := randomReal(r, nx*ny*nz)
		want := complexOracle3D(src, nx, ny, nz)
		got := make([]complex128, nx*ny*nz)
		NewRealPlan3D(nx, ny, nz).Forward(src, got)
		if rel := maxRel(got, want); rel > 1e-12 {
			t.Errorf("%d×%d×%d: real path deviates from complex by %g (rel)", nx, ny, nz, rel)
		}
	}
}

// skippedBy runs p.Forward and returns the fft.real3d.lines_skipped
// delta it caused.
func skippedBy(t *testing.T, p *RealPlan3D, src []float64, dst []complex128) int64 {
	t.Helper()
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	before := real3dLinesSkipped.Value()
	p.Forward(src, dst)
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
		src := paddedCube(r, c.l, c.pad)
		want := complexOracle3D(src, bl, bl, bl)
		got := make([]complex128, len(src))
		for i := range got {
			got[i] = complex(math.NaN(), math.NaN())
		}
		skipped := skippedBy(t, NewRealPlan3D(bl, bl, bl), src, got)
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
	for _, d := range [][3]int{{24, 24, 24}, {12, 10, 9}, {16, 16, 16}} {
		nx, ny, nz := d[0], d[1], d[2]
		src := randomReal(r, nx*ny*nz)
		clear(src[:len(src)/3]) // some dead planes and pairs
		var want []complex128
		for _, workers := range []int{1, 2, 3, 8} {
			got := make([]complex128, len(src))
			newRealPlan3D(nx, ny, nz, workers).Forward(src, got)
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("%d×%d×%d: %d workers differ from 1 at coefficient %d", nx, ny, nz, workers, i)
				}
			}
		}
	}
}

// TestRealPlan3DPow2BitIdenticalToParent: at a power-of-two box the
// pruned, pooled transform reproduces the parent commit's serial one
// bit for bit up to the sign of zero (a skipped line is +0 where the
// transform of zeros could give −0; adding +0 folds both to +0). The
// hash was recorded at the commit before the rewrite.
func TestRealPlan3DPow2BitIdenticalToParent(t *testing.T) {
	src := paddedCube(rand.New(rand.NewSource(15)), 8, 2)
	dst := make([]complex128, len(src))
	NewRealPlan3D(16, 16, 16).Forward(src, dst)
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
// and all-zero lines, splitPair and RealPlan's Forward and Inverse give
// outputs == the old expressions, so every value is equal and only the
// sign of a zero may differ.
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

			if n%2 != 0 {
				continue // RealPlan takes even lengths only
			}
			// RealPlan: the same half-size FFT, unpacked the old way.
			x := make([]float64, n)
			for i := range x {
				if !zero {
					x[i] = r.NormFloat64()
				}
			}
			p, err := NewRealPlan(n)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			h := n / 2
			buf := make([]complex128, h)
			for i := range buf {
				buf[i] = complex(x[2*i], x[2*i+1])
			}
			NewPlan(h).Forward(buf)
			want := make([]complex128, n)
			for k := 0; k < h; k++ {
				zk, zkm := buf[k], cmplx.Conj(buf[(h-k)%h])
				want[k] = (zk+zkm)/2 + p.twid[k]*((zk-zkm)/complex(0, 2))
			}
			want[h] = (buf[0]+cmplx.Conj(buf[0]))/2 - (buf[0]-cmplx.Conj(buf[0]))/complex(0, 2)
			for k := h + 1; k < n; k++ {
				want[k] = cmplx.Conj(want[n-k])
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("n=%d zero=%t: Forward[%d] = %v, old unpack %v", n, zero, k, got[k], want[k])
				}
			}

			spect := append([]complex128(nil), want...)
			back := make([]float64, n)
			if err := p.Inverse(spect, back); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < h; k++ {
				xk, xkh := spect[k], spect[k+h]
				buf[k] = (xk+xkh)/2 + complex(0, 1)*(cmplx.Conj(p.twid[k])*(xk-xkh)/2)
			}
			NewPlan(h).Inverse(buf)
			for i := 0; i < h; i++ {
				if back[2*i] != real(buf[i]) || back[2*i+1] != imag(buf[i]) {
					t.Fatalf("n=%d zero=%t: Inverse samples %d,%d = %v,%v, old repack %v", n, zero, 2*i, 2*i+1, back[2*i], back[2*i+1], buf[i])
				}
			}
		}
	}
}

// TestRealPlanInverseRoundTrip: Forward→Inverse must reproduce the
// signal through the packed real path.
func TestRealPlanInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for _, n := range []int{2, 4, 10, 16, 64, 222} {
		x := randomReal(r, n)
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		spect, err := p.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		back := make([]float64, n)
		if err := p.Inverse(spect, back); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(x[i]-back[i]) > 1e-11 {
				t.Fatalf("n=%d sample %d: %g vs %g", n, i, x[i], back[i])
			}
		}
	}
	// Validation errors.
	p, _ := NewRealPlan(8)
	if err := p.Inverse(make([]complex128, 6), make([]float64, 8)); err == nil {
		t.Fatal("spectrum length mismatch accepted")
	}
	if err := p.Inverse(make([]complex128, 8), make([]float64, 6)); err == nil {
		t.Fatal("dst length mismatch accepted")
	}
}

// TestRFFTIRFFTAllLengths covers the convenience pair over even, odd
// and prime lengths: RFFT must agree with the complex transform and
// IRFFT must invert it.
func TestRFFTIRFFTAllLengths(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for _, n := range []int{1, 2, 3, 5, 7, 8, 9, 16, 17, 97, 221, 222} {
		x := randomReal(r, n)
		want := make([]complex128, n)
		for i, v := range x {
			want[i] = complex(v, 0)
		}
		Forward(want)
		got := RFFT(x)
		if rel := maxRel(got, want); rel > 1e-12 {
			t.Errorf("n=%d: RFFT deviates by %g (rel)", n, rel)
		}
		back := IRFFT(got)
		for i := range x {
			if math.Abs(x[i]-back[i]) > 1e-10 {
				t.Fatalf("n=%d: IRFFT sample %d: %g vs %g", n, i, x[i], back[i])
			}
		}
	}
}

// TestRealTablesShared: real plans of one length must share the cached
// unpack twiddles, like complex plans share planTables.
func TestRealTablesShared(t *testing.T) {
	a, _ := NewRealPlan(48)
	b, _ := NewRealPlan(48)
	if a.realTables != b.realTables {
		t.Fatal("real plans built distinct table sets")
	}
	if &a.buf[0] == &b.buf[0] {
		t.Fatal("real plans share mutable scratch")
	}
}

// TestPlanCacheShardedConcurrent hammers many distinct lengths from
// many goroutines through both caches at once; run under -race this
// gates the sharded cache against construction races.
func TestPlanCacheShardedConcurrent(t *testing.T) {
	lengths := []int{30, 34, 38, 42, 46, 50, 54, 58, 62, 66, 70, 74}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for _, n := range lengths {
				x := randomReal(r, n)
				p, err := NewRealPlan(n)
				if err != nil {
					t.Error(err)
					return
				}
				spect, err := p.Forward(x)
				if err != nil {
					t.Error(err)
					return
				}
				back := make([]float64, n)
				if err := p.Inverse(spect, back); err != nil {
					t.Error(err)
					return
				}
				for i := range x {
					if math.Abs(x[i]-back[i]) > 1e-10 {
						t.Error("round trip corrupted under concurrency")
						return
					}
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
}

// BenchmarkNewPlanParallel measures concurrent plan construction for a
// cached length across GOMAXPROCS goroutines — the warm-up pattern of
// the parallel slab DFT and the streaming pipeline. With the sharded
// lock-free cache this must scale, not serialize.
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
// goroutine so shards are hit in parallel.
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
	dst := make([]complex128, l*l*l)
	p := NewRealPlan3D(l, l, l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(src, dst)
	}
}

// paddedCube embeds a dense random l³ cube centrally in a zero (pad·l)³
// box, the input fourier.NewVolumeDFTPadded builds.
func paddedCube(r *rand.Rand, l, pad int) []float64 {
	bl := pad * l
	off := bl/2 - l/2
	src := make([]float64, bl*bl*bl)
	for x := 0; x < l; x++ {
		for y := 0; y < l; y++ {
			for z := 0; z < l; z++ {
				src[((x+off)*bl+y+off)*bl+z+off] = r.NormFloat64()
			}
		}
	}
	return src
}

// BenchmarkRealFFT3D_Padded96 is the reference-map transform of the
// sindbis set: a 48³ cube in a 96³ box, smooth kernel, pruned lines,
// pool fan-out at GOMAXPROCS.
func BenchmarkRealFFT3D_Padded96(b *testing.B) {
	const bl = 96
	src := paddedCube(rand.New(rand.NewSource(5)), bl/2, 2)
	dst := make([]complex128, bl*bl*bl)
	p := NewRealPlan3D(bl, bl, bl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(src, dst)
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
