package reconstruct

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/volume"
)

// fullDiscReference is the insertion and Finish the Friedel-half kernel
// replaced, kept as the reference it is held to. Every coefficient of
// the disc h²+k² ≤ (l/2)² — each one and its conjugate mate — is ramped
// with the tabulated shift ramp, CTF-weighted and spread trilinearly
// with the old kernel's arithmetic (no bounds check, (wx·wy)·wz weight
// association), views in order and each view's disc in (h, k) order.
// Then each voxel and its mirror are normalized separately and their
// Hermitian average is inverted, as the old Finish did.
func fullDiscReference(l int, opt Options, tasks []ViewTask) *volume.Grid {
	num, den := fullDiscAccum(l, opt, tasks)
	norm := func(i int) complex128 {
		switch {
		case opt.WienerCTF:
			return num[i] * complex(1/(den[i]+wienerEpsilon), 0)
		case den[i] > 1e-9:
			return num[i] * complex(1/den[i], 0)
		}
		return 0
	}
	nh := l/2 + 1
	half := make([]complex128, l*l*nh)
	for x := 0; x < l; x++ {
		for y := 0; y < l; y++ {
			for z := 0; z < nh; z++ {
				a := norm((x*l+y)*l + z)
				b := norm((((l-x)%l)*l+(l-y)%l)*l + (l-z)%l)
				half[(x*l+y)*nh+z] = complex((real(a)+real(b))*0.5, (imag(a)-imag(b))*0.5)
			}
		}
	}
	return fourier.GridFromHalfSpectrum(half, l, l, 1)
}

// fullDiscAccum is fullDiscReference's insertion: the num/den pair the
// full-disc kernel accumulated.
func fullDiscAccum(l int, opt Options, tasks []ViewTask) ([]complex128, []float64) {
	num, den := make([]complex128, l*l*l), make([]float64, l*l*l)
	tx, spec := fourier.NewViewTransformer(l), volume.NewCImage(l)
	rampH, rampK := make([]complex128, l), make([]complex128, l)
	rmax := float64(l) / 2
	ri, r2 := int(rmax), rmax*rmax
	for _, t := range tasks {
		tx.Transform(t.Image, spec)
		shift := t.Center != [2]float64{}
		fillShiftRamp(rampH, t.Center[0], l)
		fillShiftRamp(rampK, t.Center[1], l)
		rot := t.Orient.Matrix()
		xa, ya := rot.Col(0), rot.Col(1)
		for h := -ri; h <= ri; h++ {
			for k := -ri; k <= ri; k++ {
				fh, fk := float64(h), float64(k)
				if fh*fh+fk*fk > r2 {
					continue
				}
				hw, kw := wrap(h, l), wrap(k, l)
				val := spec.Data[hw*l+kw]
				if shift {
					val *= rampH[hw] * rampK[kw]
				}
				w := 1.0
				if opt.WienerCTF {
					c := t.CTF.Eval(t.CTF.FreqOfBin(h, k, l))
					val *= complex(c, 0)
					w = c * c
				}
				px, py, pz := xa.X*fh+ya.X*fk, xa.Y*fh+ya.Y*fk, xa.Z*fh+ya.Z*fk
				x0, y0, z0 := int(math.Floor(px)), int(math.Floor(py)), int(math.Floor(pz))
				fx, fy, fz := px-float64(x0), py-float64(y0), pz-float64(z0)
				wx, wy, wz := [2]float64{1 - fx, fx}, [2]float64{1 - fy, fy}, [2]float64{1 - fz, fz}
				for dx := 0; dx < 2; dx++ {
					for dy := 0; dy < 2; dy++ {
						for dz := 0; dz < 2; dz++ {
							c := wx[dx] * wy[dy] * wz[dz]
							i := (wrap(x0+dx, l)*l+wrap(y0+dy, l))*l + wrap(z0+dz, l)
							num[i] += val * complex(c, 0)
							den[i] += c * w
						}
					}
				}
			}
		}
	}
	return num, den
}

// foldGap is how far the Friedel-half accumulators, folded as Finish
// folds them, are from the full-disc pair's Hermitian part: the max of
// |num[q] + conj num[−q] − (N[q] + conj N[−q])/2| over max |N|, and of
// |den[q] + den[−q] − (D[q] + D[−q])/2| over max D. (The full disc is not
// Hermitian at the shifted self-mate Nyquist entries; the
// normalize-then-average Finish kept only the Hermitian part.)
func foldGap(l int, num []complex128, den []float64, fullNum []complex128, fullDen []float64) (float64, float64) {
	var gn, gd, pn, pd float64
	for x := 0; x < l; x++ {
		for y := 0; y < l; y++ {
			for z := 0; z < l; z++ {
				i := (x*l+y)*l + z
				m := (((l-x)%l)*l+(l-y)%l)*l + (l-z)%l
				pn, pd = math.Max(pn, cmplx.Abs(fullNum[i])), math.Max(pd, fullDen[i])
				gn = math.Max(gn, cmplx.Abs(num[i]+cmplx.Conj(num[m])-(fullNum[i]+cmplx.Conj(fullNum[m]))/2))
				gd = math.Max(gd, math.Abs(den[i]+den[m]-(fullDen[i]+fullDen[m])/2))
			}
		}
	}
	if pn == 0 || pd == 0 {
		return gn, gd
	}
	return gn / pn, gd / pd
}

// TestHalfBandMatchesFullDisc holds the Friedel-half insertion and the
// fold in Finish to the full-disc kernel and normalize-then-average
// Finish they replaced, at ≤ 1e-12 of the map's peak: odd and even
// boxes (15, 16, 22, 24), Wiener on and off, centres on and off, over
// the band up to the Nyquist radius l/2 (where even boxes insert the
// self-mate entries (l/2, 0) and (0, l/2), shifted when centres are on;
// odd boxes have none).
func TestHalfBandMatchesFullDisc(t *testing.T) {
	for _, l := range []int{15, 16, 22, 24} {
		ds, centers, ctfs := ctfDataset(t, l, 40, int64(60+l))
		images, orients := ds.Images(), ds.TrueOrientations()
		for _, centred := range []bool{true, false} {
			tasks := make([]ViewTask, len(images))
			for i := range tasks {
				tasks[i] = taskAt(images, orients, centers, ctfs, i)
				if !centred {
					tasks[i].Center = [2]float64{}
				}
			}
			for _, wiener := range []bool{true, false} {
				opt := Options{WienerCTF: wiener}
				s := NewSharded(l, ParallelOptions{Options: opt, Workers: 2})
				if err := s.InsertViews(tasks); err != nil {
					t.Fatal(err)
				}
				if d := maxRelDiff(fullDiscReference(l, opt, tasks), s.Finish()); d > 1e-12 {
					t.Errorf("l=%d centres=%t wiener=%t: %.3g of peak from the full-disc kernel",
						l, centred, wiener, d)
				}
			}
		}
	}
}

// FuzzHalfBandInsert fuzzes one to three views' orientation, centre and
// CTF parameters (defocus, voltage, pixel size and B-factor, mapped
// into a physical range) over boxes 7, 8, 9, 10 and 12: the even boxes
// insert the self-mate Nyquist entries, the odd ones have none. It
// holds the Friedel-half accumulators, folded, to the full-disc pair at
// ≤ 1e-12 of their peaks (foldGap), and the Wiener map to the full-disc
// reference's at ≤ 1e-12 of its peak. The plain map is held only on 40
// views (TestHalfBandMatchesFullDisc): with one to three views, edge
// voxels carry total weights down to 1e-14, where the mates' trilinear
// weights, equal only to the last bit, move num/den by more. The
// accumulators must be bit-identical across worker counts {1, 3} and
// between Insert one view at a time and InsertViews, and a non-finite
// orientation or centre must be refused with an error, never a panic.
func FuzzHalfBandInsert(f *testing.F) {
	f.Add(uint8(0), uint8(2), int64(1), 30.0, 40.0, 50.0, 0.0, 0.0, uint16(9000), uint16(300), uint16(200), uint16(80), true)
	f.Add(uint8(1), uint8(1), int64(2), 0.0, 0.0, 0.0, 0.5, -0.5, uint16(20000), uint16(4000), uint16(50), uint16(0), false)
	f.Add(uint8(3), uint8(0), int64(3), 90.0, 0.0, 90.0, 3.0, 1.25, uint16(1), uint16(0), uint16(999), uint16(500), true)
	f.Add(uint8(2), uint8(2), int64(4), 179.9, 359.0, 1e-9, -2.0, 7.5, uint16(65535), uint16(65535), uint16(65535), uint16(65535), false)
	f.Fuzz(func(t *testing.T, li, nv uint8, seed int64, theta, phi, omega, cx, cy float64,
		defocus, kv, pixel, bfac uint16, wiener bool) {
		sizes := []int{7, 8, 9, 10, 12}
		l := sizes[int(li)%len(sizes)]
		p := ctf.Params{
			VoltageKV:         100 + float64(kv)/65535*200,
			DefocusA:          2000 + float64(defocus)/65535*30000,
			CsMM:              2,
			AmplitudeContrast: 0.07,
			BFactor:           float64(bfac) / 65535 * 400,
			PixelSizeA:        1 + float64(pixel)/65535*5,
		}
		// A centre beyond the box is a whole-box wrap; keep the ramp
		// angle from overflowing.
		cx, cy = math.Mod(cx, float64(l)), math.Mod(cy, float64(l))
		rng := rand.New(rand.NewSource(seed))
		tasks := make([]ViewTask, 1+int(nv)%3)
		for i := range tasks {
			im := volume.NewImage(l)
			for j := range im.Data {
				im.Data[j] = rng.NormFloat64()
			}
			// Later views turn and shift off the fuzzed one.
			d := float64(i)
			tasks[i] = ViewTask{Image: im, CTF: p,
				Orient: geom.Euler{Theta: theta + 37*d, Phi: phi - 53*d, Omega: omega + 71*d},
				Center: [2]float64{cx + d, cy - d/2}}
		}
		opt := Options{WienerCTF: wiener}
		s := NewSharded(l, ParallelOptions{Options: opt, Workers: 1})
		err := s.InsertViews(tasks)
		if checkView(tasks[0].Orient, tasks[0].Center) != nil {
			if err == nil {
				t.Fatalf("non-finite orientation %v or centre %v accepted", tasks[0].Orient, tasks[0].Center)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want := accumDigest(s)
		s3 := NewSharded(l, ParallelOptions{Options: opt, Workers: 3})
		if err := s3.InsertViews(tasks); err != nil {
			t.Fatal(err)
		}
		one := NewSharded(l, ParallelOptions{Options: opt, Workers: 2})
		for _, tk := range tasks {
			if err := one.Insert(tk.Image, tk.Orient, tk.Center, tk.CTF); err != nil {
				t.Fatal(err)
			}
		}
		if accumDigest(s3) != want || accumDigest(one) != want {
			t.Fatal("accumulators differ across worker counts or between Insert and InsertViews")
		}
		fullNum, fullDen := fullDiscAccum(l, opt, tasks)
		if gn, gd := foldGap(l, s.num, s.den, fullNum, fullDen); gn > 1e-12 || gd > 1e-12 {
			t.Fatalf("l=%d: folded accumulators %.3g (num) and %.3g (den) of peak from the full disc", l, gn, gd)
		}
		got := s.Finish()
		for i, v := range got.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite voxel %d: %v", i, v)
			}
		}
		if !wiener {
			return
		}
		if d := maxRelDiff(fullDiscReference(l, opt, tasks), got); d > 1e-12 {
			t.Fatalf("l=%d: Wiener map %.3g of peak from the full-disc kernel", l, d)
		}
	})
}
