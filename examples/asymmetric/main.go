// Asymmetric-particle refinement and symmetry detection: the use case
// the paper's method was designed to unlock. A particle with no
// symmetry is refined without any symmetry assumption; then the same
// machinery is pointed at capsids whose symmetry is *unknown to it*,
// and the symmetry group is recovered from the refined map (paper §6:
// "if the virus exhibits any symmetry this method allows us to
// determine its symmetry group").
//
//	go run ./examples/asymmetric
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/reconstruct"
	"repro/internal/volume"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	// Part 1: refine an asymmetric particle. The search window roams
	// all of SO(3) — no asymmetric-unit restriction exists for C1.
	spec := workload.AsymmetricSpec()
	ds := spec.Build()
	fmt.Printf("asymmetric dataset: %d views of %d px, SNR %.2g\n", spec.NumViews, spec.L, spec.SNR)

	dft := fourier.NewVolumeDFTPadded(ds.Truth, 2)
	refiner, err := core.NewRefiner(dft, core.DefaultConfig(spec.L))
	if err != nil {
		log.Fatal(err)
	}
	inits := ds.PerturbedOrientations(spec.InitError, 3)
	src := core.SliceSource(ds.Images(), ds.CTFs(), inits)
	results, err := refiner.RefineStream(context.Background(), len(inits), src, core.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	var before, after float64
	orients := make([]geom.Euler, len(results))
	centers := make([][2]float64, len(results))
	for i, res := range results {
		before += geom.AngularDistance(inits[i], ds.Views[i].TrueOrient)
		after += geom.AngularDistance(res.Orient, ds.Views[i].TrueOrient)
		orients[i] = res.Orient
		centers[i] = res.Center
	}
	n := float64(len(results))
	fmt.Printf("mean angular error: %.3f° -> %.3f°\n", before/n, after/n)

	rec, err := reconstruct.FromViews(ds.Images(), orients, centers, nil, reconstruct.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconstruction correlation vs ground truth: %.4f\n",
		volume.Correlation(ds.Truth, rec))

	// Part 2: symmetry detection. Hand maps of undisclosed symmetry
	// to the detector and let it name the group.
	fmt.Println("\nsymmetry-group detection:")
	for _, c := range workload.RunSymmetryDetection(32) {
		marker := "✓"
		if !c.Correct() {
			marker = "✗"
		}
		fmt.Printf("  %-22s -> %-3s (expected %-3s) %s\n", c.Name, c.Detected, c.Expected, marker)
	}
	det := workload.RunSymmetryDetectionOnMap(rec, 0.8)
	fmt.Printf("  refined asymmetric map -> %s\n", det.Detected)
}
