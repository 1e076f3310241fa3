package fsc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fft"
	"repro/internal/phantom"
	"repro/internal/volume"
)

func TestIdenticalMapsGiveUnitFSC(t *testing.T) {
	m := phantom.SindbisLike(24)
	c, err := Compute(m, m, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Points {
		if math.Abs(p.CC-1) > 1e-9 {
			t.Fatalf("shell %d: CC %g, want 1", p.Shell, p.CC)
		}
	}
	if res := c.ResolutionAt(0.5); res != c.Points[len(c.Points)-1].ResolutionA {
		t.Fatalf("identical maps: resolution %g, want finest shell", res)
	}
}

func TestIndependentNoiseGivesLowFSC(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	l := 24
	a, b := volume.NewGrid(l), volume.NewGrid(l)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
		b.Data[i] = r.NormFloat64()
	}
	c, err := Compute(a, b, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if mean := c.MeanCC(); math.Abs(mean) > 0.1 {
		t.Fatalf("independent noise mean FSC %g", mean)
	}
}

func TestFSCSymmetric(t *testing.T) {
	m := phantom.SindbisLike(16)
	n := phantom.ReoLike(16)
	ab, _ := Compute(m, n, 2.0)
	ba, _ := Compute(n, m, 2.0)
	for i := range ab.Points {
		if math.Abs(ab.Points[i].CC-ba.Points[i].CC) > 1e-12 {
			t.Fatal("FSC not symmetric in its arguments")
		}
	}
}

func TestNoisyCopyFallsWithFrequency(t *testing.T) {
	// A noisy copy of a map should correlate well at low frequency
	// and progressively worse at high frequency.
	r := rand.New(rand.NewSource(2))
	m := phantom.SindbisLike(32)
	noisy := m.Clone()
	_, _, _, std := m.Stats()
	for i := range noisy.Data {
		noisy.Data[i] += 1.5 * std * r.NormFloat64()
	}
	c, err := Compute(m, noisy, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	first := c.Points[0].CC
	last := c.Points[len(c.Points)-1].CC
	if first < 0.8 {
		t.Fatalf("low-frequency shell CC %g, want high", first)
	}
	if last >= first {
		t.Fatalf("FSC did not fall with frequency: first %g last %g", first, last)
	}
	res := c.ResolutionAt(0.5)
	if res <= c.Points[len(c.Points)-1].ResolutionA || res >= c.Points[0].ResolutionA {
		t.Fatalf("0.5 crossing %g Å outside curve range", res)
	}
}

func TestResolutionAtMonotoneInThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := phantom.SindbisLike(24)
	noisy := m.Clone()
	_, _, _, std := m.Stats()
	for i := range noisy.Data {
		noisy.Data[i] += 2 * std * r.NormFloat64()
	}
	c, _ := Compute(m, noisy, 2.0)
	r9 := c.ResolutionAt(0.9)
	r5 := c.ResolutionAt(0.5)
	r1 := c.ResolutionAt(0.143)
	// A stricter threshold cannot claim finer resolution.
	if !(r9 >= r5 && r5 >= r1) {
		t.Fatalf("thresholds not monotone: 0.9→%g 0.5→%g 0.143→%g", r9, r5, r1)
	}
}

func TestShellResolutionLabels(t *testing.T) {
	m := phantom.SindbisLike(16)
	c, _ := Compute(m, m, 3.0)
	// Shell s of a 16-box at 3 Å/px: resolution = 16·3/s.
	for _, p := range c.Points {
		want := 16.0 * 3.0 / float64(p.Shell)
		if math.Abs(p.ResolutionA-want) > 1e-9 {
			t.Fatalf("shell %d labeled %g Å, want %g", p.Shell, p.ResolutionA, want)
		}
	}
}

func TestComputeParallelBitIdentical(t *testing.T) {
	// Per-plane partial sums merged in ascending x are the shared
	// float grouping of both paths, so the parallel curve must match
	// the serial one bit for bit, not merely to rounding.
	r := rand.New(rand.NewSource(4))
	m := phantom.SindbisLike(24)
	noisy := m.Clone()
	_, _, _, std := m.Stats()
	for i := range noisy.Data {
		noisy.Data[i] += std * r.NormFloat64()
	}
	serial, err := Compute(m, noisy, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 7, 8} {
		par, err := ComputeParallel(m, noisy, 2.0, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Points) != len(serial.Points) {
			t.Fatalf("workers=%d: %d shells, want %d", w, len(par.Points), len(serial.Points))
		}
		for i := range par.Points {
			if par.Points[i] != serial.Points[i] {
				t.Fatalf("workers=%d shell %d: %+v != %+v", w, par.Points[i].Shell, par.Points[i], serial.Points[i])
			}
		}
	}
}

// complexPathCCs is the FSC on the complex path ComputeParallel
// replaced: each map copied into a complex grid and transformed by
// fft.Plan3D.Forward, then the same shell sums.
func complexPathCCs(a, b *volume.Grid) []float64 {
	l := a.L
	var spectra [2][]complex128
	for i, g := range []*volume.Grid{a, b} {
		spectra[i] = make([]complex128, len(g.Data))
		for j, v := range g.Data {
			spectra[i][j] = complex(v, 0)
		}
		fft.NewPlan3D(l, l, l).Forward(spectra[i])
	}
	nShells := l / 2
	sums := make([]float64, shellTerms*(nShells+1))
	for x := 0; x < l; x++ {
		accumulatePlane(sums, spectra[0], spectra[1], x, l, nShells)
	}
	ccs := make([]float64, nShells)
	for s := 1; s <= nShells; s++ {
		t := s * shellTerms
		ccs[s-1] = sums[t] / math.Sqrt(sums[t+1]*sums[t+2])
	}
	return ccs
}

// TestComputeMatchesComplexPath: Compute and ComputeParallel agree bit
// for bit at workers {1, 2, 3, 8}, and both agree with the complex-path
// oracle to ≤ 1e-12 per shell, at an even and an odd box.
func TestComputeMatchesComplexPath(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, l := range []int{24, 15} {
		a, b := phantom.SindbisLike(l), phantom.SindbisLike(l)
		_, _, _, std := a.Stats()
		for i := range b.Data {
			b.Data[i] += std * r.NormFloat64()
		}
		serial, err := Compute(a, b, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		want := complexPathCCs(a, b)
		if len(serial.Points) != len(want) {
			t.Fatalf("l=%d: %d shells, oracle %d", l, len(serial.Points), len(want))
		}
		for i, p := range serial.Points {
			if d := math.Abs(p.CC - want[i]); d > 1e-12 {
				t.Fatalf("l=%d shell %d: CC %v, complex path %v (|Δ| %.3g)", l, p.Shell, p.CC, want[i], d)
			}
		}
		for _, w := range []int{1, 2, 3, 8} {
			par, err := ComputeParallel(a, b, 2.0, w)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range par.Points {
				q := serial.Points[i]
				if p.Shell != q.Shell || math.Float64bits(p.CC) != math.Float64bits(q.CC) ||
					math.Float64bits(p.ResolutionA) != math.Float64bits(q.ResolutionA) {
					t.Fatalf("l=%d workers %d shell %d: %+v, Compute %+v", l, w, p.Shell, p, q)
				}
			}
		}
	}
}

func TestComputeParallelValidation(t *testing.T) {
	a := volume.NewGrid(8)
	if _, err := ComputeParallel(a, volume.NewGrid(10), 2, 4); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := ComputeParallel(a, a, -1, 4); err == nil {
		t.Fatal("negative pixel size accepted")
	}
}

func TestComputeValidation(t *testing.T) {
	a := volume.NewGrid(8)
	b := volume.NewGrid(10)
	if _, err := Compute(a, b, 2); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := Compute(a, a, 0); err == nil {
		t.Fatal("zero pixel size accepted")
	}
}

func TestDominates(t *testing.T) {
	m := phantom.SindbisLike(16)
	c, _ := Compute(m, m, 2)
	worse := &Curve{PixelA: 2}
	for _, p := range c.Points {
		q := p
		q.CC -= 0.2
		worse.Points = append(worse.Points, q)
	}
	if !c.Dominates(worse, 0.9) {
		t.Fatal("unit curve should dominate degraded curve")
	}
	if worse.Dominates(c, 0.5) {
		t.Fatal("degraded curve should not dominate unit curve")
	}
}
