package main

import (
	"repro/internal/serve"
	"repro/internal/workload"
)

// workloadDef is one named workload. The names are the benchmark's
// public vocabulary: later issues state which of them a change should
// move and which it must leave alone.
type workloadDef struct {
	name string
	why  string
	// singleProc runs the whole process at GOMAXPROCS=1: the plain
	// single-threaded baseline.
	singleProc bool
	// unitSeconds is roughly what one unit of service (a job, a pass)
	// took on the machine the sizes were chosen on. It only converts
	// -seconds into a count of units: a run does the same fixed work on
	// every commit, however fast the commit is.
	unitSeconds float64
	run         func(e *env, units int) error
}

// units is how many units of service a run of the given length does.
func (w workloadDef) units(seconds float64) int {
	return max(1, int(seconds/w.unitSeconds))
}

var workloads = []workloadDef{
	{
		name:        "cycle_adaptive",
		why:         "served multi-cycle job on the sindbis set, adaptive search: core search and distance evaluation on distinct views dominate; later cycles start refined",
		unitSeconds: 5,
		run: func(e *env, jobs int) error {
			return runCycleWorkload(e, jobs, cycleSizes(e, "adaptive"), true)
		},
	},
	{
		name:        "cycle_adaptive_p1",
		why:         "the same job spec at GOMAXPROCS=1: single-threaded baseline; a kernel gain moves it, a parallelism gain does not, goroutine overhead shows as a loss",
		singleProc:  true,
		unitSeconds: 6.5,
		run: func(e *env, jobs int) error {
			return runCycleWorkload(e, jobs, cycleSizes(e, "adaptive_p1"), false)
		},
	},
	{
		name:        "cycle_exhaustive",
		why:         "served cycle job with the flat window scan: same core and fourier code, but cut sampling dominates and the cut cache is bypassed, opposite to cycle_adaptive",
		unitSeconds: 5,
		run: func(e *env, jobs int) error {
			return runCycleWorkload(e, jobs, cycleSizes(e, "exhaustive"), false)
		},
	},
	{
		name:        "recon_fsc",
		why:         "library reconstruction, half maps, FSC and map I/O at true orientations with CTF: the non-refinement side of a cycle; core does nothing here",
		unitSeconds: 0.31,
		run:         runReconWorkload,
	},
	{
		name:        "jobs_small",
		why:         "closed loop of tiny refine jobs, one client per core, journal on, then journal replay: admission, dataset build, fsync and the refine executor dominate",
		unitSeconds: 0.025,
		run:         runJobsWorkload,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// cycleSizes is the job spec of a cycle_* workload. The seed sets both
// the initial-orientation perturbation and the adaptive probe streams;
// everything else about the dataset is pinned by its named spec.
//
// cycle_adaptive and cycle_adaptive_p1 differ only in the cycle cap
// (and the process's GOMAXPROCS), so their maps are bit-identical cycle
// for cycle and the suite checks that they are.
func cycleSizes(e *env, kind string) serve.JobSpec {
	spec := serve.JobSpec{
		Type:          serve.TypeCycle,
		PlateauWindow: -1, // run to the cycle cap: fixed work per job
		InitSeed:      e.seed,
		SearchSeed:    e.seed,
	}
	if e.smoke {
		// L=16, 8 views, 2 levels, 2 cycles.
		spec.Dataset, spec.Scale, spec.Views, spec.Levels, spec.MaxCycles = "sindbis", 3, 8, 2, 2
		if kind == "exhaustive" {
			spec.Dataset, spec.Scale, spec.Search = "asymmetric", 2.5, "exhaustive"
		}
		return spec
	}
	switch kind {
	case "adaptive":
		spec.Dataset, spec.Views, spec.Levels, spec.MaxCycles = "sindbis", 40, 4, 3
	case "adaptive_p1":
		spec.Dataset, spec.Views, spec.Levels, spec.MaxCycles = "sindbis", 40, 4, 2
	case "exhaustive":
		spec.Dataset, spec.Views, spec.Levels, spec.MaxCycles, spec.Search = "asymmetric", 30, 4, 1, "exhaustive"
	}
	return spec
}

// datasetOf resolves the dataset a normalized job spec refines, the way
// the service does: named spec, optional shrink, view cap.
func datasetOf(spec serve.JobSpec) (workload.DatasetSpec, error) {
	ws, err := workload.SpecByName(spec.Dataset)
	if err != nil {
		return ws, err
	}
	if spec.Scale > 1 {
		ws = ws.Scaled(spec.Scale)
	}
	if spec.Views > 0 && spec.Views < ws.NumViews {
		ws.NumViews = spec.Views
	}
	return ws, nil
}

// smallJobSpec is job i of the jobs_small loop: 8 views of the shrunk
// asymmetric set through 2 levels, a few milliseconds of refinement.
func smallJobSpec(seed int64, i int) serve.JobSpec {
	return serve.JobSpec{
		Type:     serve.TypeRefine,
		Dataset:  "asymmetric",
		Scale:    2.5,
		Views:    8,
		Levels:   2,
		InitSeed: seed*1000 + int64(i),
	}
}

// reconSpec is the recon_fsc dataset: the reo phantom with CTF in four
// defocus groups, generated from the seed.
func reconSpec(e *env) workload.DatasetSpec {
	spec := workload.ReoSpec()
	spec.L, spec.NumViews = 64, 160
	if e.smoke {
		spec.L, spec.NumViews = 24, 12
	}
	spec.ApplyCTF = true
	spec.DefocusGroups = 4
	spec.Seed = e.seed
	return spec
}
