// Command fscplot assesses the resolution of a set of orientations by
// the paper's Fig. 4 procedure: reconstruct two maps from the odd- and
// even-numbered views, compute the Fourier shell correlation between
// them, print the curve, and report the 0.5 crossing.
//
// Usage:
//
//	fscplot -data data/sindbis [-orients refined.txt] [-p workers]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/ctf"
	"repro/internal/fsc"
	"repro/internal/micrograph"
	"repro/internal/reconstruct"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fscplot: ")
	var (
		data    = flag.String("data", "", "dataset directory (required)")
		orients = flag.String("orients", "", "orientation file; empty uses ground truth")
		p       = flag.Int("p", 0, "worker count for reconstruction and FSC; 0 = GOMAXPROCS")
	)
	flag.Parse()
	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}
	ds, err := micrograph.Load(*data)
	if err != nil {
		log.Fatal(err)
	}
	orientList := ds.TrueOrientations()
	var centers [][2]float64
	if *orients != "" {
		orientList, centers, err = micrograph.ReadOrientationList(*orients)
		if err != nil {
			log.Fatal(err)
		}
	}
	var ctfs []ctf.Params
	if ds.HasCTF {
		ctfs = ds.CTFs()
	}
	odd, even, err := reconstruct.SplitHalvesParallel(ds.Images(), orientList, centers, ctfs,
		reconstruct.ParallelOptions{Options: reconstruct.Options{WienerCTF: ds.HasCTF}, Workers: *p})
	if err != nil {
		log.Fatal(err)
	}
	curve, err := fsc.ComputeParallel(odd, even, ds.PixelA, *p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%6s %12s %10s\n", "shell", "res (Å)", "cc")
	for _, p := range curve.Points {
		fmt.Printf("%6d %12.2f %10.4f\n", p.Shell, p.ResolutionA, p.CC)
	}
	fmt.Printf("resolution at cc=0.5: %.2f Å   (mean cc %.4f)\n",
		curve.ResolutionAt(0.5), curve.MeanCC())
}
