// Cluster-scaling study: the parallel behaviour behind the paper's
// Tables 1 and 2. One refinement pass runs on simulated
// distributed-memory machines of increasing size; the simulated
// per-step times show how view partitioning scales while the
// master-node I/O and the all-gather of the replicated 3-D DFT do not.
//
//	go run ./examples/scaling [-dataset sindbis] [-scale 2]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/parfft"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	dataset := flag.String("dataset", "sindbis", "sindbis, reo or asymmetric")
	scale := flag.Float64("scale", 2, "shrink factor ≥1")
	flag.Parse()

	var spec workload.DatasetSpec
	switch *dataset {
	case "sindbis":
		spec = workload.SindbisSpec()
	case "reo":
		spec = workload.ReoSpec()
	case "asymmetric":
		spec = workload.AsymmetricSpec()
	default:
		log.Fatalf("unknown dataset %q", *dataset)
	}
	spec = spec.Scaled(*scale)

	fmt.Printf("one refinement pass at 0.1°, %s (%d views of %d px), simulated SP2 nodes\n",
		spec.Name, spec.NumViews, spec.L)
	fmt.Printf("%4s %12s %12s %14s %12s %10s\n",
		"P", "3D DFT (s)", "read (s)", "refine (s)", "total (s)", "speedup")

	var base float64
	for _, p := range []int{1, 2, 4, 8, 16} {
		t, err := workload.RunTiming(spec, p)
		if err != nil {
			log.Fatal(err)
		}
		row := t.Rows[1] // the 0.1° pass
		if base == 0 {
			base = row.Total
		}
		fmt.Printf("%4d %12.4g %12.4g %14.4g %12.4g %9.2fx\n",
			p, row.DFT3D, row.ReadImages, row.Refinement, row.Total, base/row.Total)
	}

	fmt.Println("\nparallel 3-D DFT model at paper scale (l=221):")
	for _, p := range []int{1, 4, 16, 64} {
		fmt.Printf("  P=%-3d  %.4g s\n", p, parfft.ModelTime(cluster.SP2, 221, p, 0))
	}
}
