// Sindbis-like full pipeline: the experiment behind the paper's
// Figs. 2–5. An icosahedral alphavirus-like phantom is imaged into
// noisy views; the legacy symmetry-exploiting refinement ("old") and
// the paper's sliding-window multi-resolution refinement ("new")
// both iterate refine→reconstruct from the same rough starting
// orientations; the odd/even-split Fourier shell correlation then
// scores the two maps (Fig. 4's procedure).
//
//	go run ./examples/sindbis [-scale 2]
//
// Expect the run to take a couple of minutes at full scale; pass
// -scale 2 for a quick look.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	scale := flag.Float64("scale", 1, "shrink factor ≥1 for a faster run")
	flag.Parse()

	spec := workload.SindbisSpec().Scaled(*scale)
	fmt.Printf("dataset: %s, %d views of %d×%d px at %.2g Å/px, SNR %.2g\n",
		spec.Name, spec.NumViews, spec.L, spec.L, spec.PixelA, spec.SNR)
	fmt.Println("running old and new refinement (two refine→reconstruct cycles each)...")

	exp, err := workload.RunFSC(spec)
	if err != nil {
		log.Fatal(err)
	}
	if err := workload.WriteFSC(os.Stdout, exp); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := workload.WriteSliding(os.Stdout, spec.Name, exp.New.PerLevel); err != nil {
		log.Fatal(err)
	}
}
