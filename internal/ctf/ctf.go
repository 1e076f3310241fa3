// Package ctf models the contrast transfer function of a transmission
// electron microscope and the corrections applied to experimental
// views before orientation matching (paper step e).
//
// The CTF is the oscillatory function that multiplies the Fourier
// transform of a TEM image: defocusing, used to generate phase
// contrast for unstained specimens, reverses phases and attenuates
// amplitudes in alternating resolution zones, and must be compensated
// before comparing experimental transforms with cuts of the reference
// map. The standard weak-phase-object model is
//
//	CTF(s) = −[√(1−A²)·sin γ(s) + A·cos γ(s)]·exp(−B·s²/4)
//	γ(s)   = π·λ·Δf·s² − (π/2)·Cs·λ³·s⁴
//
// with spatial frequency s in 1/Å, electron wavelength λ from the
// accelerating voltage, defocus Δf (positive = underfocus), spherical
// aberration Cs, amplitude-contrast fraction A, and B-factor envelope.
package ctf

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/volume"
)

// Params describes one microscope/micrograph setting. All views boxed
// from the same micrograph share one Params (the paper: "views
// originated from the same micrograph have the same CTF").
type Params struct {
	// VoltageKV is the accelerating voltage in kilovolts.
	VoltageKV float64
	// DefocusA is the defocus in Ångström (positive = underfocus).
	DefocusA float64
	// CsMM is the spherical-aberration coefficient in millimetres.
	CsMM float64
	// AmplitudeContrast is the amplitude-contrast fraction A ∈ [0,1).
	AmplitudeContrast float64
	// BFactor is the envelope decay in Å².
	BFactor float64
	// PixelSizeA is the sampling of the image in Å/pixel.
	PixelSizeA float64
}

// Typical returns microscope settings typical of the cryo-TEM data the
// paper used: 300 kV, 1.8 µm underfocus, Cs 2.0 mm, 7 % amplitude
// contrast, mild envelope, at the given pixel size.
func Typical(pixelA float64) Params {
	return Params{
		VoltageKV:         300,
		DefocusA:          18000,
		CsMM:              2.0,
		AmplitudeContrast: 0.07,
		BFactor:           100,
		PixelSizeA:        pixelA,
	}
}

// Wavelength returns the relativistic electron wavelength in Å.
func (p Params) Wavelength() float64 {
	v := p.VoltageKV * 1e3
	return 12.2639 / math.Sqrt(v*(1+0.97845e-6*v))
}

// Eval returns the CTF value at spatial frequency s (1/Å).
func (p Params) Eval(s float64) float64 {
	lambda := p.Wavelength()
	cs := p.CsMM * 1e7 // mm -> Å
	s2 := s * s
	gamma := math.Pi*lambda*p.DefocusA*s2 - 0.5*math.Pi*cs*lambda*lambda*lambda*s2*s2
	a := p.AmplitudeContrast
	env := math.Exp(-p.BFactor * s2 / 4)
	return -(math.Sqrt(1-a*a)*math.Sin(gamma) + a*math.Cos(gamma)) * env
}

// FreqOfBin returns the spatial frequency in 1/Å of Fourier bin
// (h, k) of an l×l image sampled at the params' pixel size, where h
// and k are signed frequency indices.
func (p Params) FreqOfBin(h, k, l int) float64 {
	r := math.Hypot(float64(h), float64(k))
	return r / (float64(l) * p.PixelSizeA)
}

// Correction selects how Correct compensates the transfer function.
type Correction int

const (
	// PhaseFlip multiplies each coefficient by the sign of the CTF,
	// undoing phase reversals but leaving amplitudes attenuated —
	// the cheap classical correction.
	PhaseFlip Correction = iota
	// Wiener divides by the CTF with regularization,
	// c/(c²+ε), restoring amplitudes where the signal allows.
	Wiener
)

// wienerEpsilon regularizes the Wiener filter near CTF zeros.
const wienerEpsilon = 0.1

// Table returns the CTF at every bin of an l×l centred image
// transform, in the transform's row-major order: p.Eval at the bin's
// p.FreqOfBin, the value Correct weights each bin by. Views that share
// one Params share one table.
func (p Params) Table(l int) []float64 {
	tab := make([]float64, l*l)
	for j := 0; j < l; j++ {
		h := fft.FreqIndex(j, l)
		for k := 0; k < l; k++ {
			tab[j*l+k] = p.Eval(p.FreqOfBin(h, fft.FreqIndex(k, l), l))
		}
	}
	return tab
}

// Apply multiplies the centred image transform f by the CTF table tab
// (Params.Table of f.L), simulating the microscope's effect on a
// clean projection.
func Apply(f *volume.CImage, tab []float64) {
	for i := range f.Data {
		f.Data[i] *= complex(tab[i], 0)
	}
}

// Correct compensates the CTF on the centred image transform f using
// the chosen correction mode.
func Correct(f *volume.CImage, p Params, mode Correction) error {
	switch mode {
	case PhaseFlip:
		mapCTF(f, p, func(c float64) float64 {
			if c < 0 {
				return -1
			}
			if c > 0 {
				return 1
			}
			return 0
		})
	case Wiener:
		mapCTF(f, p, func(c float64) float64 {
			return c / (c*c + wienerEpsilon)
		})
	default:
		return fmt.Errorf("ctf: unknown correction mode %d", mode)
	}
	return nil
}

// mapCTF multiplies every coefficient of f by fn(CTF(s)) at the bin's
// spatial frequency.
func mapCTF(f *volume.CImage, p Params, fn func(float64) float64) {
	l := f.L
	for j := 0; j < l; j++ {
		h := fft.FreqIndex(j, l)
		for k := 0; k < l; k++ {
			kk := fft.FreqIndex(k, l)
			s := p.FreqOfBin(h, kk, l)
			f.Data[j*l+k] *= complex(fn(p.Eval(s)), 0)
		}
	}
}
