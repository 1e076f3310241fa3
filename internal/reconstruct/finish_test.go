package reconstruct

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/fft"
	"repro/internal/volume"
)

// hermitianize enforces G(−f) = conj(G(f)) on a full l³ spectrum by
// averaging each element with the conjugate of its Friedel mate;
// self-conjugate elements are forced real. It is the symmetrization
// the complex-path Finish ran before its inverse.
func hermitianize(data []complex128, l int) {
	for x := 0; x < l; x++ {
		for y := 0; y < l; y++ {
			for z := 0; z < l; z++ {
				i := (x*l+y)*l + z
				j := (((l-x)%l)*l+(l-y)%l)*l + (l-z)%l
				if i < j {
					avg := (data[i] + cmplx.Conj(data[j])) / 2
					data[i], data[j] = avg, cmplx.Conj(avg)
				} else if i == j {
					data[i] = complex(real(data[i]), 0)
				}
			}
		}
	}
}

// TestHermitianizeOracle: the oracle's output is Hermitian.
func TestHermitianizeOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	l := 6
	data := make([]complex128, l*l*l)
	for i := range data {
		data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	hermitianize(data, l)
	for x := 0; x < l; x++ {
		for y := 0; y < l; y++ {
			for z := 0; z < l; z++ {
				a := data[(x*l+y)*l+z]
				b := data[(((l-x)%l)*l+(l-y)%l)*l+(l-z)%l]
				if math.Abs(real(a)-real(b)) > 1e-12 || math.Abs(imag(a)+imag(b)) > 1e-12 {
					t.Fatalf("not Hermitian at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

// finishOracle is the complex path Finish replaced: normalize the whole
// l³ spectrum, Hermitianize, apply the centring ramp, run
// fft.Plan3D.Inverse and keep the real part.
func finishOracle(l int, opt Options, num []complex128, den []float64) *volume.Grid {
	spec := make([]complex128, len(num))
	for i := range num {
		if opt.WienerCTF {
			spec[i] = num[i] * complex(1/(den[i]+opt.WienerEpsilon), 0)
		} else if den[i] > 1e-9 {
			spec[i] = num[i] * complex(1/den[i], 0)
		}
	}
	hermitianize(spec, l)
	ramp := make([]complex128, l)
	for i := range ramp {
		f := float64(fft.FreqIndex(i, l))
		ramp[i] = cmplx.Exp(complex(0, -2*math.Pi*f*float64(l/2)/float64(l)))
	}
	for x := 0; x < l; x++ {
		for y := 0; y < l; y++ {
			for z := 0; z < l; z++ {
				spec[(x*l+y)*l+z] *= ramp[x] * ramp[y] * ramp[z]
			}
		}
	}
	fft.NewPlan3D(l, l, l).Inverse(spec)
	g := volume.NewGrid(l)
	for i, v := range spec {
		g.Data[i] = real(v)
	}
	return g
}

// TestFinishMatchesComplexInverse pins the half-spectrum Finish to the
// complex path it replaced, to ≤ 1e-12 of the map's peak, with and
// without the Wiener CTF, at an odd box (15), a power of two (16), a
// Bluestein length (22 = 2·11) and 24; and bit for bit at workers
// {1, 2, 3, 8}.
func TestFinishMatchesComplexInverse(t *testing.T) {
	for _, l := range []int{15, 16, 22, 24} {
		ds, centers, ctfs := ctfDataset(t, l, 40, int64(50+l))
		images, orients := ds.Images(), ds.TrueOrientations()
		tasks := make([]ViewTask, len(images))
		for i := range tasks {
			tasks[i] = taskAt(images, orients, centers, ctfs, i)
		}
		for _, wiener := range []bool{true, false} {
			opt := Options{WienerCTF: wiener}
			var first *volume.Grid
			for _, w := range []int{1, 2, 3, 8} {
				s := NewSharded(l, ParallelOptions{Options: opt, Workers: w})
				if err := s.InsertViews(tasks); err != nil {
					t.Fatal(err)
				}
				got := s.Finish()
				if first != nil {
					if MapDigest(got) != MapDigest(first) {
						t.Fatalf("l=%d wiener=%t: Finish on %d workers differs from 1", l, wiener, w)
					}
					continue
				}
				first = got
				want := finishOracle(l, s.opt, s.num, s.den)
				if d := maxRelDiff(want, got); d > 1e-12 {
					t.Fatalf("l=%d wiener=%t: Finish differs from the complex inverse by %.3g of peak", l, wiener, d)
				}
			}
		}
	}
}

// TestFinishPlaneAllocFree: the //repro:hotpath plane kernel of Finish
// allocates nothing, with and without the Wiener CTF, counting the
// per-voxel normalization below it. (Finish itself allocates the half
// spectrum and the map once per call; TestReconstructionAllocBytes
// bounds that.)
func TestFinishPlaneAllocFree(t *testing.T) {
	const l = 12
	nh := l/2 + 1
	num, den := make([]complex128, l*l*l), make([]float64, l*l*l)
	for i := range num {
		num[i], den[i] = complex(float64(i%7), float64(i%3)), float64(i%4)
	}
	half := make([]complex128, l*l*nh)
	for _, wiener := range []bool{true, false} {
		opt := Options{WienerCTF: wiener}.normalized(l)
		if a := testing.AllocsPerRun(20, func() { finishPlane(half, num, den, opt, 5, l) }); a != 0 {
			t.Errorf("wiener=%t: finishPlane allocates %v times per call", wiener, a)
		}
	}
}

// BenchmarkFinish times one Finish at l = 64 on 60 views with the
// Wiener CTF, the recon_fsc shape: normalize + Hermitian average into
// the half spectrum, then the half-spectrum inverse.
func BenchmarkFinish(b *testing.B) {
	l := 64
	ds, centers, ctfs := ctfDataset(b, l, 60, 34)
	s := NewSharded(l, ParallelOptions{Options: Options{WienerCTF: true}})
	images, orients := ds.Images(), ds.TrueOrientations()
	tasks := make([]ViewTask, len(images))
	for i := range tasks {
		tasks[i] = taskAt(images, orients, centers, ctfs, i)
	}
	if err := s.InsertViews(tasks); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Finish()
	}
}
