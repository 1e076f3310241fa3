// Command reconstruct builds a 3-D electron-density map from a
// dataset's views and an orientation file (refined or ground truth),
// writes the map, and exports central cross-sections as PGM images —
// the raw material of the paper's Figs. 2 and 3.
//
// Usage:
//
//	reconstruct -data data/sindbis -orients refined.txt -out map.vol [-sections dir]
//	            [-p workers] [-metrics -] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/benchutil"
	"repro/internal/ctf"
	"repro/internal/micrograph"
	"repro/internal/reconstruct"
	"repro/internal/volume"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reconstruct: ")
	var (
		data     = flag.String("data", "", "dataset directory (required)")
		orients  = flag.String("orients", "", "orientation file; empty uses ground truth")
		out      = flag.String("out", "map.vol", "output map file")
		sections = flag.String("sections", "", "directory for PGM cross-sections (optional)")
		truthCC  = flag.Bool("truthcc", true, "report correlation against the ground-truth map")
		p        = flag.Int("p", 0, "worker count for the insertion kernel; 0 = GOMAXPROCS")
	)
	var of benchutil.Flags
	of.Register(flag.CommandLine)
	flag.Parse()
	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}
	stopObs, err := of.Start()
	if err != nil {
		log.Fatal(err)
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
		if len(orientList) != len(ds.Views) {
			log.Fatalf("%d orientations for %d views", len(orientList), len(ds.Views))
		}
	}

	var ctfs []ctf.Params
	if ds.HasCTF {
		ctfs = ds.CTFs()
	}
	m, err := reconstruct.FromViewsParallel(ds.Images(), orientList, centers, ctfs,
		reconstruct.ParallelOptions{Options: reconstruct.Options{WienerCTF: ds.HasCTF}, Workers: *p})
	if err != nil {
		log.Fatal(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := m.WriteTo(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconstructed %d views -> %s (%d³ voxels)\n", len(ds.Views), *out, m.L)

	if *truthCC {
		fmt.Printf("correlation vs ground truth: %.4f\n", volume.Correlation(ds.Truth, m))
	}
	if *sections != "" {
		if err := os.MkdirAll(*sections, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, frac := range []float64{0.35, 0.5, 0.65} {
			z := int(frac * float64(m.L))
			path := filepath.Join(*sections, fmt.Sprintf("section_z%02d.pgm", z))
			sf, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := m.ZSection(z).WritePGM(sf); err != nil {
				log.Fatal(err)
			}
			if err := sf.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if err := stopObs(); err != nil {
		log.Fatal(err)
	}
}
