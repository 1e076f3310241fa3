package fft

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}

func randomSignal(r *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// lengths1to128 is every length the kernel tests sweep: all three
// kernels, every radix mix the smooth one can meet below 128, and the
// primes between them.
func lengths1to128() []int {
	ns := make([]int, 128)
	for i := range ns {
		ns[i] = i + 1
	}
	return ns
}

func TestForwardMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	// Every length to 128, then larger composites of each kernel —
	// including the paper's view sizes 221 = 13·17 and 511 = 7·73.
	for _, n := range append(lengths1to128(), 210, 221, 240, 360, 511, 512, 1000) {
		x := randomSignal(r, n)
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).Forward(got)
		if d := maxRel(got, want); d > 1e-12 {
			t.Errorf("n=%d (%v): deviation from naive DFT %g of the peak", n, NewPlan(n).kernel, d)
		}
	}
}

// TestKernelSelection pins which kernel each length gets: the choice
// is a function of the factorisation alone, and Bluestein serves no
// length whose prime factors are all ≤ 7.
func TestKernelSelection(t *testing.T) {
	want := map[int]kernel{}
	for n := 1; n <= 1024; n <<= 1 {
		want[n] = kernelPow2
	}
	for _, n := range []int{6, 40, 48, 56, 80, 96, 112, 360} {
		want[n] = kernelSmooth
	}
	for _, n := range []int{11, 13, 221, 511} {
		want[n] = kernelBluestein
	}
	for n, k := range want {
		if got := NewPlan(n).kernel; got != k {
			t.Errorf("n=%d: kernel %v, want %v", n, got, k)
		}
	}
	for n := 1; n <= 4096; n++ {
		rest := n
		for _, f := range []int{2, 3, 5, 7} {
			for rest%f == 0 {
				rest /= f
			}
		}
		got := buildTables(n).kernel
		switch {
		case rest != 1 && got != kernelBluestein:
			t.Errorf("n=%d has a prime factor > 7 but got kernel %v", n, got)
		case rest == 1 && n&(n-1) == 0 && got != kernelPow2:
			t.Errorf("n=%d is a power of two but got kernel %v", n, got)
		case rest == 1 && n&(n-1) != 0 && got != kernelSmooth:
			t.Errorf("n=%d is 7-smooth but got kernel %v", n, got)
		}
	}
}

// TestPow2BitIdenticalToParent: the radix-2 kernel did not change when
// the smooth kernel arrived. The hash is over the float64 bits of
// Forward on seeded input at every power of two to 1024, recorded at
// the commit before the mixed-radix kernel.
func TestPow2BitIdenticalToParent(t *testing.T) {
	h := sha256.New()
	r := rand.New(rand.NewSource(14))
	for n := 1; n <= 1024; n <<= 1 {
		x := randomSignal(r, n)
		NewPlan(n).Forward(x)
		hashComplex(h, x)
	}
	const golden = "8f4704b01d15a99e48a19f801f2353adeec9d445e3cdad1665f60f3505517a3e"
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("power-of-two spectra hash %s, want %s", got, golden)
	}
}

func hashComplex(h hash.Hash, x []complex128) {
	var b [16]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
}

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 13, 48, 64, 221, 255, 256} {
		p := NewPlan(n)
		x := randomSignal(r, n)
		orig := append([]complex128(nil), x...)
		p.Forward(x)
		p.Inverse(x)
		if d := maxDiff(x, orig); d > 1e-9*float64(n) {
			t.Errorf("n=%d: round-trip error %g", n, d)
		}
	}
}

func TestPlanReuse(t *testing.T) {
	// The same plan must give identical results across calls.
	r := rand.New(rand.NewSource(3))
	p := NewPlan(221)
	x := randomSignal(r, 221)
	a := append([]complex128(nil), x...)
	b := append([]complex128(nil), x...)
	p.Forward(a)
	p.Forward(b)
	if maxDiff(a, b) != 0 {
		t.Fatal("plan reuse is not deterministic")
	}
}

func TestLinearity(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, n := range lengths1to128() {
		p := NewPlan(n)
		x, y := randomSignal(r, n), randomSignal(r, n)
		alpha := complex(r.NormFloat64(), r.NormFloat64())
		lhs := make([]complex128, n)
		for i := range lhs {
			lhs[i] = x[i] + alpha*y[i]
		}
		p.Forward(lhs)
		p.Forward(x)
		p.Forward(y)
		for i := range x {
			x[i] += alpha * y[i]
		}
		if d := maxRel(lhs, x); d > 1e-12 {
			t.Fatalf("n=%d: F(x+αy) deviates from F(x)+αF(y) by %g of the peak", n, d)
		}
	}
}

func TestParseval(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for _, n := range lengths1to128() {
		x := randomSignal(r, n)
		var timeE float64
		for _, v := range x {
			timeE += real(v)*real(v) + imag(v)*imag(v)
		}
		NewPlan(n).Forward(x)
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		if math.Abs(freqE/float64(n)-timeE) > 1e-12*timeE {
			t.Errorf("n=%d: spectrum energy/n %g, signal energy %g", n, freqE/float64(n), timeE)
		}
	}
}

func TestImpulseAndDC(t *testing.T) {
	n := 32
	p := NewPlan(n)
	// DC signal -> impulse at k=0 of height n.
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	p.Forward(x)
	if cmplx.Abs(x[0]-complex(float64(n), 0)) > 1e-9 {
		t.Errorf("DC bin = %v, want %d", x[0], n)
	}
	for k := 1; k < n; k++ {
		if cmplx.Abs(x[k]) > 1e-9 {
			t.Errorf("bin %d = %v, want 0", k, x[k])
		}
	}
	// Impulse -> flat spectrum.
	y := make([]complex128, n)
	y[0] = 1
	p.Forward(y)
	for k := 0; k < n; k++ {
		if cmplx.Abs(y[k]-1) > 1e-9 {
			t.Errorf("impulse spectrum bin %d = %v, want 1", k, y[k])
		}
	}
}

func TestShiftTheorem(t *testing.T) {
	// x[n-s] has DFT X[k]·exp(-2πi ks/N).
	r := rand.New(rand.NewSource(4))
	for _, n := range lengths1to128() {
		s := 7 % n
		x := randomSignal(r, n)
		shifted := make([]complex128, n)
		for i := range shifted {
			shifted[i] = x[((i-s)%n+n)%n]
		}
		p := NewPlan(n)
		p.Forward(x)
		p.Forward(shifted)
		for k := 0; k < n; k++ {
			x[k] *= cmplx.Exp(complex(0, -2*math.Pi*float64(k*s%n)/float64(n)))
		}
		if d := maxRel(shifted, x); d > 1e-12 {
			t.Fatalf("n=%d: shift theorem violated by %g of the peak", n, d)
		}
	}
}

func TestRealSignalHermitian(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 33
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), 0)
	}
	NewPlan(n).Forward(x)
	for k := 1; k < n; k++ {
		if cmplx.Abs(x[k]-cmplx.Conj(x[n-k])) > 1e-8 {
			t.Fatalf("Hermitian symmetry violated at bin %d", k)
		}
	}
}

func TestPlan2DMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	nx, ny := 6, 9
	x := randomSignal(r, nx*ny)
	want := make([]complex128, nx*ny)
	for kx := 0; kx < nx; kx++ {
		for ky := 0; ky < ny; ky++ {
			var s complex128
			for jx := 0; jx < nx; jx++ {
				for jy := 0; jy < ny; jy++ {
					angle := -2 * math.Pi * (float64(kx*jx)/float64(nx) + float64(ky*jy)/float64(ny))
					s += x[jx*ny+jy] * cmplx.Exp(complex(0, angle))
				}
			}
			want[kx*ny+ky] = s
		}
	}
	NewPlan2D(nx, ny).Forward(x)
	if d := maxDiff(x, want); d > 1e-8 {
		t.Fatalf("2-D FFT deviates from naive DFT by %g", d)
	}
}

func TestPlan2DRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := NewPlan2D(17, 12)
	x := randomSignal(r, 17*12)
	orig := append([]complex128(nil), x...)
	p.Forward(x)
	p.Inverse(x)
	if d := maxDiff(x, orig); d > 1e-9 {
		t.Fatalf("2-D round-trip error %g", d)
	}
}

func TestPlan3DRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	p := NewPlan3D(8, 6, 10)
	x := randomSignal(r, 8*6*10)
	orig := append([]complex128(nil), x...)
	p.Forward(x)
	p.Inverse(x)
	if d := maxDiff(x, orig); d > 1e-9 {
		t.Fatalf("3-D round-trip error %g", d)
	}
}

func TestPlan3DSeparability(t *testing.T) {
	// A separable product signal has a separable product transform.
	nx, ny, nz := 8, 8, 8
	r := rand.New(rand.NewSource(9))
	ax, ay, az := randomSignal(r, nx), randomSignal(r, ny), randomSignal(r, nz)
	x := make([]complex128, nx*ny*nz)
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			for iz := 0; iz < nz; iz++ {
				x[(ix*ny+iy)*nz+iz] = ax[ix] * ay[iy] * az[iz]
			}
		}
	}
	NewPlan3D(nx, ny, nz).Forward(x)
	fx := append([]complex128(nil), ax...)
	fy := append([]complex128(nil), ay...)
	fz := append([]complex128(nil), az...)
	Forward(fx)
	Forward(fy)
	Forward(fz)
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			for iz := 0; iz < nz; iz++ {
				want := fx[ix] * fy[iy] * fz[iz]
				got := x[(ix*ny+iy)*nz+iz]
				if cmplx.Abs(got-want) > 1e-6 {
					t.Fatalf("separability violated at (%d,%d,%d)", ix, iy, iz)
				}
			}
		}
	}
}

func TestFreqIndexRoundTrip(t *testing.T) {
	for _, n := range []int{4, 5, 8, 9} {
		for k := 0; k < n; k++ {
			f := FreqIndex(k, n)
			if f < -n/2 || f > n/2 {
				t.Errorf("FreqIndex(%d,%d) = %d out of range", k, n, f)
			}
			if back := (f + n) % n; back != k {
				t.Errorf("FreqIndex(%d,%d) = %d wraps back to index %d", k, n, f, back)
			}
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Forward with wrong length did not panic")
		}
	}()
	NewPlan(8).Forward(make([]complex128, 7))
}

func BenchmarkFFTPow2_256(b *testing.B) {
	p := NewPlan(256)
	x := randomSignal(rand.New(rand.NewSource(1)), 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkFFTBluestein_221(b *testing.B) { benchForward(b, 221) }

// The smooth kernel at the sindbis box (48), its padded lattice (96)
// and the asymmetric set's padded lattice (80 = 2⁴·5).
func BenchmarkFFTSmooth_48(b *testing.B) { benchForward(b, 48) }
func BenchmarkFFTSmooth_96(b *testing.B) { benchForward(b, 96) }
func BenchmarkFFTSmooth_80(b *testing.B) { benchForward(b, 80) }

func benchForward(b *testing.B, n int) {
	p := NewPlan(n)
	x := randomSignal(rand.New(rand.NewSource(1)), n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkFFT2D_64(b *testing.B) {
	p := NewPlan2D(64, 64)
	x := randomSignal(rand.New(rand.NewSource(1)), 64*64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkFFT3D_32(b *testing.B) {
	p := NewPlan3D(32, 32, 32)
	x := randomSignal(rand.New(rand.NewSource(1)), 32*32*32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}
