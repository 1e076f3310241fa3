// Command tables regenerates every table and figure of the paper's
// evaluation from the simulator. Each experiment id maps to one table
// or figure (see DESIGN.md for the index):
//
//	fig1b    calculated-view counts vs angular resolution
//	opcount  §4 multi-resolution vs flat operation counts
//	fig23    cross-sections of old- vs new-orientation reconstructions
//	fig5     Sindbis-like FSC comparison (includes the Fig. 4 split)
//	fig6     reo-like FSC comparison
//	table1   Sindbis-like per-step timing table
//	table2   reo-like per-step timing table
//	sliding  §5 sliding-window activation statistics
//	convergence  resolution/error trajectory across cycles of the outer loop (plateau rule off)
//	plateau  cycles-to-plateau of the same outer loop (internal/cycle)
//	depth    §5's closing question: accuracy/cost vs schedule depth
//	cycle    §5 refinement vs reconstruction cycle shares
//	symdetect §6 symmetry-group detection
//	all      everything above
//
// Usage:
//
//	tables -exp fig5 [-scale 1] [-out results] [-p 16]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/volume"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run prints the experiments args select to w; progress notes go to the
// log. It is main without the process exit, so TestTablesGolden can
// hold the output byte for byte.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	var (
		exp   = fs.String("exp", "all", "experiment id (see doc comment)")
		scale = fs.Float64("scale", 1, "shrink factor ≥1 for dataset size (quicker runs)")
		outD  = fs.String("out", "", "directory for image artifacts (fig23 sections)")
		p     = fs.Int("p", 16, "simulated processor count for timing tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *p < 1 {
		return fmt.Errorf("-p %d: the simulated machine needs at least one processor", *p)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"fig1b", "opcount", "fig5", "fig23", "fig6", "table1", "table2", "sliding", "cycle", "symdetect", "convergence", "plateau", "depth"}
	}

	// FSC experiments are shared between several ids; cache them.
	var sindbisFSC, reoFSC *workload.FSCExperiment
	getFSC := func(spec workload.DatasetSpec) (*workload.FSCExperiment, error) {
		cached := &sindbisFSC
		if spec.Name == "reo-like" {
			cached = &reoFSC
		}
		if *cached == nil {
			log.Printf("running FSC experiment for %s (this is the long part)...", spec.Name)
			e, err := workload.RunFSC(spec.Scaled(*scale))
			if err != nil {
				return nil, err
			}
			*cached = e
		}
		return *cached, nil
	}

	// one prints a single experiment's table.
	one := func(id string) error {
		sindbis := workload.SindbisSpec().Scaled(*scale * 1.5)
		switch id {
		case "fig1b":
			return workload.WriteViewCounts(w, workload.ViewCounts([]float64{6, 3, 1, 0.1}))
		case "opcount":
			return workload.WriteOpCount(w, workload.OpCount(10, nil))
		case "fig5", "fig6", "fig23", "sliding":
			spec := workload.SindbisSpec()
			if id == "fig6" {
				spec = workload.ReoSpec()
			}
			e, err := getFSC(spec)
			if err != nil {
				return err
			}
			switch id {
			case "fig23":
				return writeSections(w, *outD, e)
			case "sliding":
				return workload.WriteSliding(w, e.Spec.Name, e.New.PerLevel)
			}
			return workload.WriteFSC(w, e)
		case "table1":
			return runTiming(w, workload.SindbisSpec().Scaled(*scale), *p)
		case "table2":
			return runTiming(w, workload.ReoSpec().Scaled(*scale), *p)
		case "cycle":
			t, err := workload.RunTiming(sindbis, *p)
			if err != nil {
				return err
			}
			cb := t.Cycle()
			_, err = fmt.Fprintf(w, "paper-scale cycle: refinement %.4g s, reconstruction %.4g s (%.1f%% of cycle; §5 reports <5%%)\n",
				cb.RefinementSecs, cb.ReconstructionSecs, 100*cb.ReconstructionShare)
			return err
		case "symdetect":
			return workload.WriteSymDetect(w, workload.RunSymmetryDetection(32))
		case "plateau":
			res, err := workload.RunCycleDriver(sindbis)
			if err != nil {
				return err
			}
			return workload.WritePlateau(w, res)
		case "depth":
			rows, err := workload.DepthStudy(sindbis)
			if err != nil {
				return err
			}
			return workload.WriteDepthStudy(w, sindbis, rows)
		case "convergence":
			res, err := workload.RunConvergence(sindbis, 4)
			if err != nil {
				return err
			}
			if err := res.Write(w); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "converged (Δcc < 0.01 between final cycles): %t\n", res.Converged(0.01))
			return err
		}
		return fmt.Errorf("unknown experiment %q", id)
	}
	for _, id := range ids {
		if _, err := fmt.Fprintf(w, "==== %s ====\n", id); err != nil {
			return err
		}
		if err := one(id); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

func runTiming(w io.Writer, spec workload.DatasetSpec, p int) error {
	t, err := workload.RunTiming(spec, p)
	if err != nil {
		return err
	}
	return workload.WriteTiming(w, t)
}

// writeSections exports the Figs. 2/3 artifacts: matched central
// cross-sections of the truth, old-orientation and new-orientation
// maps, plus summary statistics.
func writeSections(w io.Writer, dir string, e *workload.FSCExperiment) error {
	if _, err := fmt.Fprintf(w, "Figs. 2/3 — reconstructions with old vs new orientations (%s)\n"+
		"map correlation vs ground truth: old %.4f, new %.4f\n", e.Spec.Name, e.Old.TruthCC, e.New.TruthCC); err != nil {
		return err
	}
	if dir == "" {
		_, err := fmt.Fprintln(w, "(pass -out DIR to export PGM cross-sections)")
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	z := e.Truth.L / 2
	for _, item := range []struct {
		name string
		m    *volume.Grid
	}{
		{"truth", e.Truth}, {"old", e.Old.Map}, {"new", e.New.Map},
	} {
		path := filepath.Join(dir, fmt.Sprintf("fig2_%s_z%02d.pgm", item.name, z))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = item.m.ZSection(z).WritePGM(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			_, err = fmt.Fprintf(w, "wrote %s\n", path)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
