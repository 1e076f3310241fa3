package fft

import "math"

// Mixed-radix kernel for 7-smooth lengths (every prime factor ≤ 7):
// a Stockham autosort decimation-in-frequency transform. Each stage
// peels one radix r off the current sub-length n = r·m, reading the
// source with stride m and writing the destination in the order the
// next stage wants, so the output lands in natural order with no
// digit-reversal pass. The two buffers (the caller's x and one
// n-sized scratch) swap roles after every stage.
//
// With s the product of the radices already peeled (s·n = N), stage
// input element p of sub-transform q lives at src[q + s·p]. For
// p < m, q < s and a_k = src[q + s·(p + k·m)] the stage computes
//
//	dst[q + s·(r·p + j)] = w_n^{p·j} · Σ_k a_k·ω_r^{j·k},   j < r,
//
// which is r sub-sequences of length m at stride r·s — the next
// stage's input. After the last stage (n = 1) element q is X[q].

// maxRadix is the largest prime factor the smooth kernel handles;
// lengths with a larger one go to Bluestein.
const maxRadix = 7

// smoothStage is one radix pass: n = radix·m is the sub-length it
// splits, s the stride (product of earlier radices).
type smoothStage struct {
	radix, m, s int
	// tw holds the radix−1 twiddles w_n^{p·j}, j = 1…radix−1, of each
	// p = 1…m−1, p-major (p = 0 has unit twiddles and is not stored).
	tw []complex128
	// cos and sin of 2π·k/radix, k < radix, for the generic odd-prime
	// butterfly (nil for the specialised radices).
	cos, sin []float64
}

// smoothRadices factors n into the stage radices of the Stockham plan,
// or returns nil when n has a prime factor above maxRadix. Fours come
// first (a radix-4 butterfly does two radix-2 levels in fewer
// multiplies), then the leftover two, then odd primes ascending, so
// the costliest butterfly runs last, where every twiddle is 1.
func smoothRadices(n int) []int {
	var rs []int
	for n%4 == 0 {
		rs = append(rs, 4)
		n /= 4
	}
	for _, r := range [...]int{2, 3, 5, 7} {
		for n%r == 0 {
			rs = append(rs, r)
			n /= r
		}
	}
	if n != 1 {
		return nil
	}
	return rs
}

// root returns exp(−2πi·k/n).
func root(k, n int) complex128 {
	sin, cos := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
	return complex(cos, sin)
}

func (t *planTables) initSmooth(radices []int) {
	n, s := t.n, 1
	t.stages = make([]smoothStage, len(radices))
	for i, r := range radices {
		m := n / r
		st := smoothStage{radix: r, m: m, s: s}
		if m > 1 {
			st.tw = make([]complex128, 0, (m-1)*(r-1))
			for p := 1; p < m; p++ {
				for j := 1; j < r; j++ {
					// w_n^{p·j} = w_N^{p·j·s}, and p·j·s < N.
					st.tw = append(st.tw, root(p*j*s, t.n))
				}
			}
		}
		if r > 5 {
			st.cos = make([]float64, r)
			st.sin = make([]float64, r)
			for k := range st.cos {
				st.sin[k], st.cos[k] = math.Sincos(2 * math.Pi * float64(k) / float64(r))
			}
		}
		t.stages[i] = st
		n, s = m, s*r
	}
}

// forwardSmooth runs the Stockham stages over x and the n-sized
// scratch. It reads only immutable tables, so plans of one length may
// run it concurrently on their own buffers.
func (t *planTables) forwardSmooth(x, scratch []complex128) {
	src, dst := x, scratch
	for i := range t.stages {
		st := &t.stages[i]
		switch st.radix {
		case 2:
			st.pass2(src, dst)
		case 3:
			st.pass3(src, dst)
		case 4:
			st.pass4(src, dst)
		case 5:
			st.pass5(src, dst)
		default:
			st.passPrime(src, dst)
		}
		src, dst = dst, src
	}
	if len(t.stages)%2 == 1 {
		copy(x, scratch)
	}
}

// mulNegI returns −i·z, the forward quarter-turn.
func mulNegI(z complex128) complex128 { return complex(imag(z), -real(z)) }

// mulReal returns c·z for real c: two multiplies, not a complex product.
func mulReal(c float64, z complex128) complex128 { return complex(c*real(z), c*imag(z)) }

func (st *smoothStage) pass2(src, dst []complex128) {
	m, s := st.m, st.s
	sm := s * m
	for q := 0; q < s; q++ {
		a0, a1 := src[q], src[q+sm]
		dst[q], dst[q+s] = a0+a1, a0-a1
	}
	for p := 1; p < m; p++ {
		w1 := st.tw[p-1]
		in, out := s*p, 2*s*p
		for q := 0; q < s; q++ {
			a0, a1 := src[in+q], src[in+q+sm]
			dst[out+q], dst[out+q+s] = a0+a1, (a0-a1)*w1
		}
	}
}

const sin60 = 0.86602540378443864676372317075294 // √3/2

func bfly3(a0, a1, a2 complex128) (b0, b1, b2 complex128) {
	t1 := a1 + a2
	t2 := a0 - mulReal(0.5, t1)
	t3 := mulNegI(mulReal(sin60, a1-a2))
	return a0 + t1, t2 + t3, t2 - t3
}

func (st *smoothStage) pass3(src, dst []complex128) {
	m, s := st.m, st.s
	sm := s * m
	for q := 0; q < s; q++ {
		dst[q], dst[q+s], dst[q+2*s] = bfly3(src[q], src[q+sm], src[q+2*sm])
	}
	for p := 1; p < m; p++ {
		w := st.tw[2*(p-1) : 2*p]
		w1, w2 := w[0], w[1]
		in, out := s*p, 3*s*p
		for q := 0; q < s; q++ {
			b0, b1, b2 := bfly3(src[in+q], src[in+q+sm], src[in+q+2*sm])
			dst[out+q], dst[out+q+s], dst[out+q+2*s] = b0, b1*w1, b2*w2
		}
	}
}

func bfly4(a0, a1, a2, a3 complex128) (b0, b1, b2, b3 complex128) {
	t0, t1 := a0+a2, a0-a2
	t2, t3 := a1+a3, mulNegI(a1-a3)
	return t0 + t2, t1 + t3, t0 - t2, t1 - t3
}

func (st *smoothStage) pass4(src, dst []complex128) {
	m, s := st.m, st.s
	sm := s * m
	for q := 0; q < s; q++ {
		dst[q], dst[q+s], dst[q+2*s], dst[q+3*s] = bfly4(src[q], src[q+sm], src[q+2*sm], src[q+3*sm])
	}
	for p := 1; p < m; p++ {
		w := st.tw[3*(p-1) : 3*p]
		w1, w2, w3 := w[0], w[1], w[2]
		in, out := s*p, 4*s*p
		for q := 0; q < s; q++ {
			b0, b1, b2, b3 := bfly4(src[in+q], src[in+q+sm], src[in+q+2*sm], src[in+q+3*sm])
			dst[out+q], dst[out+q+s], dst[out+q+2*s], dst[out+q+3*s] = b0, b1*w1, b2*w2, b3*w3
		}
	}
}

const (
	cos72  = 0.30901699437494742410229341718282  // cos(2π/5)
	cos144 = -0.80901699437494742410229341718282 // cos(4π/5)
	sin72  = 0.95105651629515357211643933337938  // sin(2π/5)
	sin144 = 0.58778525229247312916870595463907  // sin(4π/5)
)

func bfly5(a0, a1, a2, a3, a4 complex128) (b0, b1, b2, b3, b4 complex128) {
	t1, t2 := a1+a4, a2+a3
	t3, t4 := a1-a4, a2-a3
	m1 := a0 + mulReal(cos72, t1) + mulReal(cos144, t2)
	m2 := a0 + mulReal(cos144, t1) + mulReal(cos72, t2)
	n1 := mulNegI(mulReal(sin72, t3) + mulReal(sin144, t4))
	n2 := mulNegI(mulReal(sin144, t3) - mulReal(sin72, t4))
	return a0 + t1 + t2, m1 + n1, m2 + n2, m2 - n2, m1 - n1
}

func (st *smoothStage) pass5(src, dst []complex128) {
	m, s := st.m, st.s
	sm := s * m
	for q := 0; q < s; q++ {
		dst[q], dst[q+s], dst[q+2*s], dst[q+3*s], dst[q+4*s] =
			bfly5(src[q], src[q+sm], src[q+2*sm], src[q+3*sm], src[q+4*sm])
	}
	for p := 1; p < m; p++ {
		w := st.tw[4*(p-1) : 4*p]
		w1, w2, w3, w4 := w[0], w[1], w[2], w[3]
		in, out := s*p, 5*s*p
		for q := 0; q < s; q++ {
			b0, b1, b2, b3, b4 := bfly5(src[in+q], src[in+q+sm], src[in+q+2*sm], src[in+q+3*sm], src[in+q+4*sm])
			dst[out+q], dst[out+q+s], dst[out+q+2*s], dst[out+q+3*s], dst[out+q+4*s] = b0, b1*w1, b2*w2, b3*w3, b4*w4
		}
	}
}

// passPrime is the butterfly for any odd prime radix r ≤ maxRadix
// without a specialised pass (today: 7). It pairs inputs k and r−k:
// with u_k = a_k + a_{r−k} and v_k = a_k − a_{r−k},
//
//	b_j, b_{r−j} = (a_0 + Σ_k u_k·cos(2πjk/r)) ∓ i·Σ_k v_k·sin(2πjk/r),
//
// so each output pair costs r−1 real-by-complex products in place of
// 2(r−1) complex ones.
func (st *smoothStage) passPrime(src, dst []complex128) {
	r, m, s := st.radix, st.m, st.s
	sm := s * m
	h := r / 2
	var u, v [maxRadix / 2]complex128
	for p := 0; p < m; p++ {
		in, out := s*p, r*s*p
		var w []complex128 // twiddles of this p; none (all 1) at p = 0
		if p > 0 {
			w = st.tw[(r-1)*(p-1) : (r-1)*p]
		}
		for q := 0; q < s; q++ {
			a0 := src[in+q]
			sum := a0
			for k := 1; k <= h; k++ {
				x, y := src[in+q+k*sm], src[in+q+(r-k)*sm]
				u[k-1], v[k-1] = x+y, x-y
				sum += u[k-1]
			}
			dst[out+q] = sum
			for j := 1; j <= h; j++ {
				re, im := a0, complex128(0)
				idx := 0
				for k := 1; k <= h; k++ {
					if idx += j; idx >= r {
						idx -= r
					}
					re += mulReal(st.cos[idx], u[k-1])
					im += mulReal(st.sin[idx], v[k-1])
				}
				im = mulNegI(im)
				bj, brj := re+im, re-im
				if w != nil {
					bj, brj = bj*w[j-1], brj*w[r-j-1]
				}
				dst[out+q+j*s], dst[out+q+(r-j)*s] = bj, brj
			}
		}
	}
}
