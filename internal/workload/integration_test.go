package workload

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fourier"
	"repro/internal/fsc"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/phantom"
	"repro/internal/reconstruct"
	"repro/internal/volume"
)

// TestFullPipelineFromMicrograph exercises the complete
// structure-determination procedure across module boundaries:
// micrograph synthesis → particle boxing with centre-of-mass
// pre-centring (step A) → orientation + centre refinement (step B) →
// 3-D reconstruction (step C) → odd/even FSC assessment (Fig. 4).
func TestFullPipelineFromMicrograph(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline integration test")
	}
	const l = 28
	truth := phantom.Asymmetric(l, 10, 1)
	truth.SphericalMask(0.38 * l)
	ds := micrograph.Generate(truth, micrograph.GenParams{
		NumViews: 16, PixelA: 2.5, SNR: 6, Seed: 41,
	})

	// Step A: micrograph, boxing, pre-centring.
	mg := micrograph.MakeMicrograph(ds, 4, 4, 1.2, 42)
	images, _, err := mg.BoxAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != 16 {
		t.Fatalf("boxed %d particles, want 16", len(images))
	}

	// Step B: refinement from rough initial orientations. Boxed
	// particles carry residual positional error from the jitter, which
	// the centre refinement must absorb.
	dft := fourier.NewVolumeDFTPadded(truth, 2)
	cfg := core.DefaultConfig(l)
	cfg.Schedule = core.DefaultSchedule()[:2]
	r, err := core.NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inits := ds.PerturbedOrientations(2, 43)
	orients := make([]geom.Euler, len(images))
	centers := make([][2]float64, len(images))
	var angErr float64
	for i, im := range images {
		pv, err := r.PrepareView(im, ds.Views[i].CTF)
		if err != nil {
			t.Fatal(err)
		}
		res := r.RefineView(pv, inits[i])
		orients[i] = res.Orient
		centers[i] = res.Center
		angErr += geom.AngularDistance(res.Orient, ds.Views[i].TrueOrient)
	}
	angErr /= float64(len(images))
	if angErr > 1.5 {
		t.Fatalf("mean angular error after boxing+refinement: %.2f°", angErr)
	}

	// Step C: reconstruction from the boxed particles.
	rec, err := reconstruct.FromViews(images, orients, centers, nil, reconstruct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cc := volume.Correlation(truth, rec); cc < 0.6 {
		t.Fatalf("end-to-end reconstruction correlation %.3f", cc)
	}

	// Fig. 4: the resolution assessment must produce a usable curve.
	odd, even, err := reconstruct.SplitHalvesParallel(images, orients, centers, nil, reconstruct.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	curve, err := fsc.Compute(odd, even, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	res := curve.ResolutionAt(0.5)
	if math.IsInf(res, 1) || res <= 0 {
		t.Fatalf("nonsensical resolution estimate %g", res)
	}
	if curve.Points[0].CC < 0.7 {
		t.Fatalf("low-frequency half-map agreement only %.3f", curve.Points[0].CC)
	}
}
