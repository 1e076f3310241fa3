package micrograph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/phantom"
	"repro/internal/projection"
	"repro/internal/volume"
)

func TestRandomOrientationUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// The view axes must cover both hemispheres roughly evenly.
	north, total := 0, 5000
	var sumZ float64
	for i := 0; i < total; i++ {
		o := RandomOrientation(rng)
		z := o.ViewAxis().Z
		sumZ += z
		if z > 0 {
			north++
		}
	}
	if math.Abs(float64(north)/float64(total)-0.5) > 0.03 {
		t.Errorf("hemisphere balance off: %d/%d north", north, total)
	}
	if math.Abs(sumZ/float64(total)) > 0.03 {
		t.Errorf("mean z = %g, want ≈0", sumZ/float64(total))
	}
}

func TestGenerateNoiselessMatchesProjection(t *testing.T) {
	truth := phantom.Asymmetric(24, 6, 1)
	ds := Generate(truth, GenParams{NumViews: 3, PixelA: 2, Seed: 5})
	for _, v := range ds.Views {
		want := projection.Real(projection.NewDensity(truth), v.TrueOrient)
		if cc := volume.ImageCorrelation(v.Image, want); cc < 1-1e-9 {
			t.Fatalf("noiseless uncorrupted view differs from projection (cc=%g)", cc)
		}
		if v.TrueCenter != [2]float64{0, 0} {
			t.Fatal("unexpected centre jitter")
		}
	}
}

func TestGenerateCenterJitter(t *testing.T) {
	truth := phantom.Asymmetric(24, 6, 1)
	ds := Generate(truth, GenParams{NumViews: 8, PixelA: 2, CenterJitter: 2, Seed: 6})
	sawNonzero := false
	for _, v := range ds.Views {
		if math.Abs(v.TrueCenter[0]) > 2 || math.Abs(v.TrueCenter[1]) > 2 {
			t.Fatalf("jitter %v exceeds bound", v.TrueCenter)
		}
		if v.TrueCenter[0] != 0 {
			sawNonzero = true
		}
	}
	if !sawNonzero {
		t.Fatal("jitter never applied")
	}
	// A jittered view should match the projection after shifting back.
	v := ds.Views[0]
	proj := projection.Real(projection.NewDensity(truth), v.TrueOrient)
	shifted := proj.Shift(v.TrueCenter[0], v.TrueCenter[1])
	if cc := volume.ImageCorrelation(v.Image, shifted); cc < 0.98 {
		t.Fatalf("jittered view does not match shifted projection (cc=%g)", cc)
	}
}

func TestGenerateNoiseSNR(t *testing.T) {
	truth := phantom.Asymmetric(24, 6, 1)
	clean := Generate(truth, GenParams{NumViews: 1, PixelA: 2, Seed: 7})
	noisy := Generate(truth, GenParams{NumViews: 1, PixelA: 2, SNR: 1, Seed: 7})
	// Same seed => same orientation; noise power should be comparable
	// to signal power at SNR 1.
	var signal, noise float64
	for i := range clean.Views[0].Image.Data {
		s := clean.Views[0].Image.Data[i]
		d := noisy.Views[0].Image.Data[i] - s
		signal += s * s
		noise += d * d
	}
	_, _, mean, _ := clean.Views[0].Image.Stats()
	n := float64(len(clean.Views[0].Image.Data))
	signalVar := signal/n - mean*mean
	ratio := signalVar / (noise / n)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("realized SNR %g, want ≈1", ratio)
	}
}

func TestGenerateDefocusGroups(t *testing.T) {
	truth := phantom.Asymmetric(24, 6, 1)
	ds := Generate(truth, GenParams{NumViews: 20, PixelA: 2, ApplyCTF: true, DefocusGroups: 3, Seed: 8})
	defoci := map[int]float64{}
	for _, v := range ds.Views {
		if prev, ok := defoci[v.Group]; ok && prev != v.CTF.DefocusA {
			t.Fatal("views in one group have different defocus")
		}
		defoci[v.Group] = v.CTF.DefocusA
	}
	if len(defoci) < 2 {
		t.Fatalf("only %d defocus groups realized", len(defoci))
	}
}

func TestPerturbedOrientationsBounded(t *testing.T) {
	truth := phantom.Asymmetric(16, 4, 1)
	ds := Generate(truth, GenParams{NumViews: 10, PixelA: 2, Seed: 9})
	inits := ds.PerturbedOrientations(3, 10)
	for i, o := range inits {
		d := ds.Views[i].TrueOrient
		if math.Abs(o.Theta-d.Theta) > 3 || math.Abs(o.Phi-d.Phi) > 3 || math.Abs(o.Omega-d.Omega) > 3 {
			t.Fatalf("view %d perturbed beyond bound: %v vs %v", i, o, d)
		}
	}
	// Must actually perturb.
	if inits[0] == ds.Views[0].TrueOrient {
		t.Fatal("no perturbation applied")
	}
}

func TestMicrographBoxing(t *testing.T) {
	// Use a centred, symmetric particle: centre-of-mass centring
	// assumes the density centroid coincides with the particle origin,
	// which holds for capsids but not for an arbitrary blob cluster.
	truth := phantom.SindbisLike(24)
	ds := Generate(truth, GenParams{NumViews: 4, PixelA: 2, Seed: 11})
	mg := MakeMicrograph(ds, 2, 2, 1.5, 12)
	if len(mg.Nominal) != 4 {
		t.Fatalf("placed %d particles, want 4", len(mg.Nominal))
	}
	images, centers, err := mg.BoxAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != 4 {
		t.Fatalf("boxed %d images", len(images))
	}
	// Boxed particles must correlate with the original views.
	for i, im := range images {
		if cc := volume.ImageCorrelation(im, ds.Views[i].Image); cc < 0.7 {
			t.Errorf("boxed particle %d correlation %.3f", i, cc)
		}
	}
	// Centre-of-mass estimates should beat the nominal grid positions.
	nominal := make([][2]float64, len(mg.Nominal))
	for i, p := range mg.Nominal {
		nominal[i] = [2]float64{float64(p[0]), float64(p[1])}
	}
	comErr := CenteringError(centers, mg.Actual)
	nomErr := CenteringError(nominal, mg.Actual)
	if comErr >= nomErr {
		t.Errorf("centre-of-mass (%.3f px) no better than nominal (%.3f px)", comErr, nomErr)
	}
}

func TestBoxParticleOutOfBounds(t *testing.T) {
	truth := phantom.Asymmetric(16, 4, 1)
	ds := Generate(truth, GenParams{NumViews: 1, PixelA: 2, Seed: 13})
	mg := MakeMicrograph(ds, 1, 1, 0, 14)
	if _, err := mg.BoxParticle([2]int{0, 0}); err == nil {
		t.Fatal("box at field corner accepted")
	}
}

func TestDatasetAccessors(t *testing.T) {
	truth := phantom.Asymmetric(16, 4, 1)
	ds := Generate(truth, GenParams{NumViews: 5, PixelA: 2, Seed: 15})
	if len(ds.Images()) != 5 || len(ds.TrueOrientations()) != 5 {
		t.Fatal("accessor lengths wrong")
	}
	for i, o := range ds.TrueOrientations() {
		if o != ds.Views[i].TrueOrient {
			t.Fatal("TrueOrientations order mismatch")
		}
	}
}

func TestViewAxisPerturbationIsSmall(t *testing.T) {
	// A 3° per-axis Euler perturbation should stay within ~6° of
	// geodesic distance — sanity for refinement's initial window.
	truth := phantom.Asymmetric(16, 4, 1)
	ds := Generate(truth, GenParams{NumViews: 20, PixelA: 2, Seed: 16})
	inits := ds.PerturbedOrientations(3, 17)
	for i := range inits {
		if d := geom.AngularDistance(inits[i], ds.Views[i].TrueOrient); d > 7 {
			t.Fatalf("view %d initial orientation %g° off", i, d)
		}
	}
}
