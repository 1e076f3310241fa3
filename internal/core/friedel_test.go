package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/phantom"
)

// newFullDiscMatcher is the band enumeration as it stood before the
// Friedel half band: every coefficient of the disc −r…r × −r…r at
// weight 1, both members of every conjugate pair included. It is kept
// as the reference the half band is held to; sorting and every matcher
// method are band-agnostic and shared, so the oracle differs from
// production in exactly the one decision under test and runs the same
// kernels over twice the entries.
//
//repro:oracle
func newFullDiscMatcher(dft *fourier.VolumeDFT, cfg Config) *matcher {
	l := dft.SrcL
	m := &matcher{dft: dft, smp: dft.NewSampler(cfg.Interp), cfg: cfg, l: l, invL2: 1 / float64(l*l)}
	rmax := math.Min(cfg.RMap, float64(l)/2)
	ri := int(rmax)
	for h := -ri; h <= ri; h++ {
		for k := -ri; k <= ri; k++ {
			r := math.Hypot(float64(h), float64(k))
			if r > rmax {
				continue
			}
			m.band = append(m.band, bandEntry{h: h, k: k, weight: 1, radius: r})
		}
	}
	m.finishBand(rmax)
	return m
}

// friedelRel is the difference of a and b relative to the larger of
// the two and floor — no "1 +" softening, so the 1e-12 bound below is
// relative whatever the distance scale. floor is 0 for the raw metric,
// a plain sum. The least-squares and magnitude metrics are a difference
// E − ⟨F,C⟩²/E_C of two sums of size E/l² that agree to a few parts in a
// thousand near a match, so their rounding error lives on the scale of
// that minuend, not of the result; floor carries E/l² for them.
func friedelRel(a, b, floor float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(floor, math.Max(math.Abs(a), math.Abs(b)))
}

func friedelConfigs(l int) map[string]Config {
	out := map[string]Config{}
	for _, norm := range []bool{true, false} {
		for _, weighted := range []bool{false, true} {
			cfg := DefaultConfig(l)
			cfg.NormalizeScale = norm
			name := "raw"
			if norm {
				name = "normalized"
			}
			if weighted {
				cfg.CorrectCTF = true
				cfg.CTFMode = ctf.PhaseFlip
				cfg.CTFWeightCuts = true
				name += "+ctf"
			}
			out[name] = cfg
		}
	}
	// RMap = l/2: the full disc holds (±l/2, 0) and (0, ±l/2), which
	// alias to one lattice row/column of the view transform.
	nyq := DefaultConfig(l)
	nyq.RMap = float64(l) / 2
	out["nyquist"] = nyq
	nyqRaw := nyq
	nyqRaw.NormalizeScale = false
	nyqRaw.Interp = fourier.Nearest
	out["nyquist-raw-nearest"] = nyqRaw
	return out
}

// TestHalfBandMatchesFullDisc holds every distance variant of the half
// band to the full-disc oracle at ≤ 1e-12 relative: plain, windowed
// (off- and on-lattice) and magnitude distances at every schedule level's
// prefix length, and shifted distances at non-zero shifts, before and
// after centre shifts are baked into the view.
func TestHalfBandMatchesFullDisc(t *testing.T) {
	const l = 20
	const tol = 1e-12
	truth := phantom.Asymmetric(l, 6, 1)
	truth.SphericalMask(8)
	dft := fourier.NewVolumeDFTPadded(truth, 2)
	for name, cfg := range friedelConfigs(l) {
		t.Run(name, func(t *testing.T) {
			ds := micrograph.Generate(truth, micrograph.GenParams{NumViews: 1, PixelA: 2, Seed: 83, CenterJitter: 1, ApplyCTF: cfg.CTFWeightCuts})
			r, err := NewRefiner(dft, cfg)
			if err != nil {
				t.Fatal(err)
			}
			half := r.m
			full := newFullDiscMatcher(dft, r.cfg)
			if got, want := half.fullDiscSize(), len(full.band); got != want {
				t.Fatalf("fullDiscSize %d, oracle band holds %d", got, want)
			}
			// PrepareView only needs the matcher and the config, so a bare
			// Refiner around the oracle band prepares the view for it.
			v := ds.Views[0]
			hpv, err := r.PrepareView(v.Image, v.CTF)
			if err != nil {
				t.Fatal(err)
			}
			fpv, err := (&Refiner{m: full, cfg: r.cfg}).PrepareView(v.Image, v.CTF)
			if err != nil {
				t.Fatal(err)
			}
			hv, fv := hpv.vd, fpv.vd
			hs, fs := half.newScratch(), full.newScratch()
			rng := rand.New(rand.NewSource(7))

			check := func(stage string) {
				t.Helper()
				for li, lv := range r.cfg.Schedule {
					rad := lv.effRMapFrac() * r.cfg.RMap
					nh, nf := half.prefixLen(rad), full.prefixLen(rad)
					if nh == 0 || nf == 0 {
						t.Fatalf("level %d: empty prefix", li)
					}
					energy := hv.prefixE[nh] * half.invL2
					floor := 0.0
					if cfg.NormalizeScale {
						floor = energy
					}
					orients := []geom.Euler{v.TrueOrient}
					for i := 0; i < 12; i++ {
						orients = append(orients, micrograph.RandomOrientation(rng))
					}
					hd, fd := make([]float64, len(orients)), make([]float64, len(orients))
					for i, o := range orients {
						hd[i], fd[i] = half.cutDistance(hv, o, nh, hs.cells), full.cutDistance(fv, o, nf, fs.cells)
					}
					for i, o := range orients {
						if d := friedelRel(hd[i], fd[i], floor); d > tol {
							t.Fatalf("%s level %d cutDistance at %v: half %.17g, full %.17g (rel %.3g)", stage, li, o, hd[i], fd[i], d)
						}
						a, b := half.distance(hv, o, nh, hs), full.distance(fv, o, nf, fs)
						if d := friedelRel(a, b, floor); d > tol {
							t.Fatalf("%s level %d distance at %v: half %.17g, full %.17g (rel %.3g)", stage, li, o, a, b, d)
						}
						hc, fc := make([]complex128, nh), make([]complex128, nf)
						hec, _ := half.scoreCut(hv, o, hc, fourier.NewCellMemo(nh))
						fec, _ := full.scoreCut(fv, o, fc, fourier.NewCellMemo(nf))
						// The centre kernel forms the raw metric as
						// E_F + E_C − 2·cross, so it cancels like the
						// least-squares one and takes the same floor.
						dx, dy := (rng.Float64()-0.5)*4, (rng.Float64()-0.5)*4
						a, b = centerDistanceAt(half, hv, hc, hec, dx, dy), centerDistanceAt(full, fv, fc, fec, dx, dy)
						if d := friedelRel(a, b, energy); d > tol {
							t.Fatalf("%s level %d centerDistance(%g,%g) at %v: half %.17g, full %.17g (rel %.3g)", stage, li, dx, dy, o, a, b, d)
						}
					}
					// Lattice orientations, as the adaptive descent scores
					// them: image axes from the lattice rotation factors.
					hs.rot.use(lv.RAngular)
					fs.rot.use(lv.RAngular)
					for range 10 {
						k := keyOf(micrograph.RandomOrientation(rng), lv.RAngular)
						hx, hy := hs.rot.axes(k)
						fx, fy := fs.rot.axes(k)
						a, b := half.axesDistance(hv, hx, hy, nh, hs.cells), full.axesDistance(fv, fx, fy, nf, fs.cells)
						if d := friedelRel(a, b, floor); d > tol {
							t.Fatalf("%s level %d axesDistance at lattice point %v: half %.17g, full %.17g (rel %.3g)", stage, li, k, a, b, d)
						}
					}
				}
			}
			check("fresh view")
			hr, fr := half.newRamp(), full.newRamp()
			for _, s := range [][2]float64{{0.8, -0.35}, {-0.07, 0.012}} {
				half.applyShift(hv, s[0], s[1], &hr)
				full.applyShift(fv, s[0], s[1], &fr)
			}
			check("shifted view")
		})
	}
}

// TestBandSizeIsFullDiscCount pins the two band counts to each other:
// the package-level BandSize stays the paper's full-disc count (it
// prices the simulated SP2 tables), Refiner.BandSize is the half the
// matcher compares, and the two differ by the conjugate mates of every
// entry but the self-conjugate origin.
func TestBandSizeIsFullDiscCount(t *testing.T) {
	for _, tc := range []struct {
		l    int
		rmap float64
	}{
		{20, 8},
		{20, 10}, // RMap = l/2
		{24, 9.6},
		{32, 12.8},
	} {
		truth := phantom.Asymmetric(tc.l, 6, 1)
		dft := fourier.NewVolumeDFTPadded(truth, 1)
		cfg := Config{RMap: tc.rmap}
		r, err := NewRefiner(dft, cfg)
		if err != nil {
			t.Fatal(err)
		}
		full := BandSize(tc.l, cfg)
		if want := 2*r.BandSize() - 1; full != want {
			t.Errorf("l=%d RMap=%g: BandSize %d, want 2·%d − 1 = %d", tc.l, tc.rmap, full, r.BandSize(), want)
		}
		if oracle := len(newFullDiscMatcher(dft, cfg).band); full != oracle {
			t.Errorf("l=%d RMap=%g: BandSize %d, full-disc oracle holds %d", tc.l, tc.rmap, full, oracle)
		}
	}
}

// TestBandWeights holds the band weights wt(j,k) to the Friedel
// doubling alone: every half-band entry stands for itself and its
// conjugate mate at weight exactly 2, the self-conjugate origin at
// exactly 1, and the half band holds (full disc + 1)/2 entries. CTF cut
// weights are per view (viewData.refW) and must leave the band's own
// weights untouched.
func TestBandWeights(t *testing.T) {
	for _, l := range []int{16, 20, 24} {
		dft := fourier.NewVolumeDFTPadded(phantom.Asymmetric(l, 6, 1), 1)
		for _, rmap := range []float64{0.8 * float64(l) / 2, float64(l) / 2} {
			for _, ctfCuts := range []bool{false, true} {
				cfg := DefaultConfig(l)
				cfg.RMap = rmap
				if ctfCuts {
					cfg.CorrectCTF, cfg.CTFMode, cfg.CTFWeightCuts = true, ctf.PhaseFlip, true
				}
				r, err := NewRefiner(dft, cfg)
				if err != nil {
					t.Fatal(err)
				}
				m := r.m
				for i, e := range m.band {
					want := 2.0
					if e.h == 0 && e.k == 0 {
						want = 1
					}
					if m.wt[i] != want || e.weight != want {
						t.Errorf("l=%d RMap=%g ctf=%t: entry (%d,%d) weight %g (wt %g), want %g", l, rmap, ctfCuts, e.h, e.k, e.weight, m.wt[i], want)
					}
				}
				if full := len(newFullDiscMatcher(dft, cfg).band); len(m.band) != (full+1)/2 {
					t.Errorf("l=%d RMap=%g ctf=%t: half band %d entries, want (%d + 1)/2", l, rmap, ctfCuts, len(m.band), full)
				}
			}
		}
	}
}

// TestNewRefinerRejectsNonHermitianSpectrum: the half band is only
// valid for the spectrum of a real map, and VolumeDFT.Data is exported.
func TestNewRefinerRejectsNonHermitianSpectrum(t *testing.T) {
	const l = 16
	truth := phantom.Asymmetric(l, 6, 1)
	dft := fourier.NewVolumeDFTPadded(truth, 2)
	if _, err := NewRefiner(dft, DefaultConfig(l)); err != nil {
		t.Fatalf("real-map spectrum rejected: %v", err)
	}
	// Multiplying by i is what an imaginary map's spectrum looks like:
	// D(−p) = −conj D(p) everywhere.
	bad := &fourier.VolumeDFT{L: dft.L, SrcL: dft.SrcL, Data: make([]complex128, len(dft.Data))}
	for i, v := range dft.Data {
		bad.Data[i] = v * 1i
	}
	if _, err := NewRefiner(bad, DefaultConfig(l)); err == nil || !strings.Contains(err.Error(), "not Hermitian") {
		t.Fatalf("asymmetric spectrum: got error %v, want a not-Hermitian error", err)
	}
	bad.Data = bad.Data[:len(bad.Data)-1]
	if _, err := NewRefiner(bad, DefaultConfig(l)); err == nil {
		t.Fatal("truncated spectrum accepted")
	}
}
