package ctf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fourier"
	"repro/internal/volume"
)

func TestWavelength(t *testing.T) {
	// Known values: 300 kV -> 0.0197 Å, 200 kV -> 0.0251 Å, 100 kV -> 0.0370 Å.
	cases := []struct{ kv, want float64 }{
		{300, 0.0197}, {200, 0.0251}, {100, 0.0370},
	}
	for _, c := range cases {
		p := Params{VoltageKV: c.kv}
		if got := p.Wavelength(); math.Abs(got-c.want) > 5e-4 {
			t.Errorf("λ(%g kV) = %.4f, want ≈%.4f", c.kv, got, c.want)
		}
	}
}

func TestEvalAtDC(t *testing.T) {
	p := Typical(2.0)
	// At s=0, γ=0: CTF = −A (pure amplitude contrast).
	if got := p.Eval(0); math.Abs(got+p.AmplitudeContrast) > 1e-12 {
		t.Fatalf("CTF(0) = %g, want %g", got, -p.AmplitudeContrast)
	}
}

func TestEvalOscillatesAndDecays(t *testing.T) {
	p := Typical(2.0)
	// The CTF must change sign at least twice below Nyquist (0.25 1/Å
	// at 2 Å/px) for typical defocus.
	signChanges := 0
	prev := p.Eval(0.001)
	for s := 0.002; s < 0.25; s += 0.001 {
		v := p.Eval(s)
		if (v > 0) != (prev > 0) {
			signChanges++
		}
		prev = v
	}
	if signChanges < 2 {
		t.Fatalf("CTF changed sign only %d times below Nyquist", signChanges)
	}
	// The B-factor envelope must attenuate high frequencies.
	if math.Abs(p.Eval(0.24)) > 1.0 {
		t.Fatal("envelope not attenuating")
	}
}

func TestPhaseFlipSquares(t *testing.T) {
	// Applying the CTF then phase flipping must leave every
	// coefficient with the sign it had before the microscope:
	// flip(c)·c = |c| ≥ 0.
	r := rand.New(rand.NewSource(1))
	l := 32
	im := volume.NewImage(l)
	for i := range im.Data {
		im.Data[i] = r.NormFloat64()
	}
	clean := fourier.ImageDFT(im)
	seen := clean.Clone()
	p := Typical(2.0)
	Apply(seen, p.Table(seen.L))
	if err := Correct(seen, p, PhaseFlip); err != nil {
		t.Fatal(err)
	}
	// Every corrected coefficient must be a non-negative multiple of
	// the clean one: Re(corrected·conj(clean)) ≥ 0.
	for i := range clean.Data {
		dot := real(seen.Data[i] * complex(real(clean.Data[i]), -imag(clean.Data[i])))
		if dot < -1e-9 {
			t.Fatalf("coefficient %d still phase-reversed after flip", i)
		}
	}
}

func TestWienerRestoresImage(t *testing.T) {
	// Wiener correction of a CTF-corrupted image must be closer to
	// the clean image than the corrupted one is.
	l := 32
	c := float64(l / 2)
	im := volume.NewImage(l)
	for j := 0; j < l; j++ {
		for k := 0; k < l; k++ {
			dx, dy := float64(j)-c, float64(k)-c
			im.Set(j, k, math.Exp(-(dx*dx+dy*dy)/20)+0.5*math.Exp(-((dx-5)*(dx-5)+dy*dy)/6))
		}
	}
	p := Typical(2.0)
	f := fourier.ImageDFT(im)
	Apply(f, p.Table(f.L))
	corrupted := fourier.InverseImageDFT(f)
	if err := Correct(f, p, Wiener); err != nil {
		t.Fatal(err)
	}
	restored := fourier.InverseImageDFT(f)
	ccBad := volume.ImageCorrelation(im, corrupted)
	ccGood := volume.ImageCorrelation(im, restored)
	if ccGood <= ccBad {
		t.Fatalf("Wiener did not help: corrupted cc=%.4f restored cc=%.4f", ccBad, ccGood)
	}
	if ccGood < 0.9 {
		t.Fatalf("Wiener restoration too weak: cc=%.4f", ccGood)
	}
}

func TestCorrectUnknownMode(t *testing.T) {
	f := volume.NewCImage(4)
	if err := Correct(f, Typical(2), Correction(99)); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestFreqOfBin(t *testing.T) {
	p := Params{PixelSizeA: 2}
	// Nyquist bin of a 64-pixel image at 2 Å/px: 32/(64·2) = 0.25 1/Å.
	if got := p.FreqOfBin(32, 0, 64); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Nyquist frequency %g, want 0.25", got)
	}
	if p.FreqOfBin(0, 0, 64) != 0 {
		t.Fatal("DC frequency not zero")
	}
}

func TestApplyPreservesHermitian(t *testing.T) {
	// The CTF is radially symmetric and real, so it preserves the
	// Hermitian symmetry of a real image's transform.
	r := rand.New(rand.NewSource(2))
	l := 16
	im := volume.NewImage(l)
	for i := range im.Data {
		im.Data[i] = r.NormFloat64()
	}
	f := fourier.ImageDFT(im)
	Apply(f, Typical(3).Table(f.L))
	for j := 0; j < l; j++ {
		for k := 0; k < l; k++ {
			a := f.Data[j*l+k]
			b := f.Data[((l-j)%l)*l+(l-k)%l]
			if math.Abs(real(a)-real(b)) > 1e-9 || math.Abs(imag(a)+imag(b)) > 1e-9 {
				t.Fatalf("Hermitian symmetry broken at (%d,%d)", j, k)
			}
		}
	}
}
