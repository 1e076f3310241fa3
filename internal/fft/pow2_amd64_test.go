//go:build !purego

package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// goPlan is NewPlan(n) on the Go loops alone: the reference the
// assembly is held to.
func goPlan(n int) *Plan {
	p := NewPlan(n)
	p.vector = false
	return p
}

// vectorCoverage counts the special values TestPow2AVXMatchGo saw in
// the outputs it compared.
type vectorCoverage struct {
	negZero, inf, nan int
}

func (c *vectorCoverage) count(x []complex128) {
	for _, v := range x {
		for _, f := range []float64{real(v), imag(v)} {
			switch {
			case f == 0 && math.Signbit(f):
				c.negZero++
			case math.IsInf(f, 0):
				c.inf++
			case math.IsNaN(f):
				c.nan++
			}
		}
	}
}

// sameBits reports the first index at which got and want differ in
// the bits of either part, or −1.
func sameBits(got, want []complex128) int {
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return i
		}
	}
	return -1
}

// nanKinds are the NaNs planted one kind per input: the default quiet
// NaN of both signs, a quiet NaN with a payload and a signalling one,
// which arithmetic quiets. Which NaN a sum of two keeps depends on
// operand order, so an input holds one kind; Inverse's conjugation
// then sets the kind's negation beside it, where the kernel's operand
// order has to be the Go loop's.
var nanKinds = []uint64{0x7ff8000000000000, 0xfff8000000000000, 0x7ff8000000000123, 0x7ff0000000000001}

// namedInput is one of specialInputs' inputs.
type namedInput struct {
	name string
	x    []complex128
}

// specialInputs returns seeded inputs of length n: plain, with −0 and
// +0 planted in both parts, all ±0 (whose spectra hold −0), with ±Inf
// planted among −0s, and, one per kind, with a NaN kind planted among
// −0s.
func specialInputs(r *rand.Rand, n int) []namedInput {
	plant := func(x []complex128, every int, v func() float64) {
		for i := range x {
			if r.Intn(every) != 0 {
				continue
			}
			if r.Intn(2) == 0 {
				x[i] = complex(v(), imag(x[i]))
			} else {
				x[i] = complex(real(x[i]), v())
			}
		}
	}
	negZero := func() float64 { return math.Copysign(0, -1) }
	zero := func() float64 { return math.Copysign(0, float64(r.Intn(2)*2-1)) }
	in := []namedInput{{"plain", randomSignal(r, n)}}
	z := randomSignal(r, n)
	plant(z, 4, zero)
	plant(z, 8, negZero)
	in = append(in, namedInput{"zeros", z})
	signed := make([]complex128, n)
	for i := range signed {
		signed[i] = complex(zero(), zero())
	}
	in = append(in, namedInput{"signed zeros", signed})
	inf := randomSignal(r, n)
	plant(inf, 4, negZero)
	plant(inf, 2*n, func() float64 { return math.Inf(r.Intn(2)*2 - 1) })
	inf[r.Intn(n)] = complex(math.Inf(1), imag(inf[0]))
	in = append(in, namedInput{"inf", inf})
	for _, k := range nanKinds {
		x := randomSignal(r, n)
		plant(x, 4, negZero)
		plant(x, 2*n, func() float64 { return math.Float64frombits(k) })
		x[r.Intn(n)] = complex(real(x[0]), math.Float64frombits(k))
		in = append(in, namedInput{fmt.Sprintf("NaN %#x", k), x})
	}
	return in
}

// TestPow2AVXMatchGo holds the vector kernel to the Go loops bit for
// bit, with math.Float64bits: Forward and Inverse at every power of two
// from 4 to 4096, and Bluestein (whose inner transforms are powers of
// two) at 221, 442 and 511, on seeded input with −0, ±Inf and NaN
// planted in it. It logs the special values it compared and fails if a
// class is missing.
func TestPow2AVXMatchGo(t *testing.T) {
	if !HaveAVX {
		t.Skip("the CPU or OS lacks AVX; every transform runs the Go loop")
	}
	var cov vectorCoverage
	r := rand.New(rand.NewSource(57))
	var lengths []int
	for n := 4; n <= 4096; n <<= 1 {
		lengths = append(lengths, n)
	}
	for _, n := range append(lengths, 221, 442, 511) {
		vec, ref := NewPlan(n), goPlan(n)
		if !vec.vector {
			t.Fatalf("n=%d: a plan on an AVX CPU does not take the vector path", n)
		}
		for _, in := range specialInputs(r, n) {
			for _, dir := range []string{"Forward", "Inverse"} {
				got, want := append([]complex128(nil), in.x...), append([]complex128(nil), in.x...)
				if dir == "Forward" {
					vec.Forward(got)
					ref.Forward(want)
				} else {
					vec.Inverse(got)
					ref.Inverse(want)
				}
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("n=%d %s on %s input: sample %d is %v (%#x, %#x), Go loop %v (%#x, %#x)", n, dir, in.name, i,
						got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
						want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
				}
				cov.count(got)
			}
		}
	}
	t.Logf("compared outputs holding %d −0, %d ±Inf and %d NaN parts", cov.negZero, cov.inf, cov.nan)
	if cov.negZero == 0 || cov.inf == 0 || cov.nan == 0 {
		t.Fatal("a special-value class never reached the compared outputs")
	}
}

// TestRealPlansAVXMatchGo holds the real-input plans with the vector
// kernel to the same plans on the Go loops bit for bit: RealPlan2D at
// 64², RealPlan3D at 32³ and a 48³ cube padded to 64³ (whose pruned
// lines and planted −0 decide signs of zero).
func TestRealPlansAVXMatchGo(t *testing.T) {
	if !HaveAVX {
		t.Skip("the CPU or OS lacks AVX; every transform runs the Go loop")
	}
	r := rand.New(rand.NewSource(58))
	plantNegZero := func(x []float64) {
		for i := range x {
			if r.Intn(8) == 0 {
				x[i] = math.Copysign(0, -1)
			}
		}
	}

	src := randomReal(r, 64*64)
	plantNegZero(src)
	vec, ref := NewRealPlan2D(64, 64), NewRealPlan2D(64, 64)
	ref.px.vector, ref.py.vector = false, false
	got, want := make([]complex128, len(src)), make([]complex128, len(src))
	vec.Forward(src, got)
	ref.Forward(src, want)
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("RealPlan2D 64²: coefficient %d is %v, Go loop %v", i, got[i], want[i])
	}

	for _, d := range [][2]int{{32, 32}, {64, 48}} {
		n, l := d[0], d[1]
		src := randomReal(r, l*l*l)
		plantNegZero(src)
		clear(src[:l*l]) // a dead plane
		vec, ref := newRealPlan3D(n, 2), newRealPlan3D(n, 2)
		for i := range ref.workers {
			ref.workers[i].plan.vector = false
		}
		got, want := make([]complex128, n*n*(n/2+1)), make([]complex128, n*n*(n/2+1))
		vec.Forward(src, l, got)
		ref.Forward(src, l, want)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("RealPlan3D %d³ in %d³: coefficient %d is %v, Go loop %v", l, n, i, got[i], want[i])
		}
	}
}

// BenchmarkFFTLines times one Forward per line on the vector kernel
// (avx) and on the Go loop (go), at the powers of two 32–1024 and the
// Bluestein lengths 221, 442 and 511, whose inner transforms are powers
// of two.
func BenchmarkFFTLines(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256, 512, 1024, 221, 442, 511} {
		for _, path := range []struct {
			name string
			p    *Plan
		}{{"avx", NewPlan(n)}, {"go", goPlan(n)}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, path.name), func(b *testing.B) {
				x := randomSignal(rand.New(rand.NewSource(1)), n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					path.p.Forward(x)
				}
			})
		}
	}
}
