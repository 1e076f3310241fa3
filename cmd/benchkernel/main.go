// Command benchkernel measures the fused orientation-matching kernel
// and writes the results as JSON, giving subsequent changes a recorded
// perf trajectory to regress against:
//
//	go run ./cmd/benchkernel -o BENCH_kernel.json
//
// It times three layers: one matching operation (cut sampling +
// distance over the full band), one batched sliding-window evaluation
// (9×9×9 orientations), and one full multi-resolution refinement of a
// single view — the same fixtures as BenchmarkMatchKernel,
// BenchmarkDistanceWindow and BenchmarkRefineOneView in bench_test.go.
// The refinement runs twice, once with the default adaptive search and
// once through the exhaustive oracle, so the report prices the
// adaptive path against the flat scan it replaces
// (distance_evals_per_view, evals_saved_frac).
//
// With -smoke the command instead acts as a CI gate: it skips the
// timing loops, runs the adaptive path against the exhaustive oracle
// once, and exits non-zero when evals_saved_frac < 0.5, when the
// adaptive final error regresses against the oracle's, or when a
// seeded rerun is not bit-identical.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/core"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/phantom"
)

// Report is the schema of BENCH_kernel.json. SchemaVersion covers the
// shared envelope (schema_version + run_meta); the measurement fields
// may grow between PRs.
type Report struct {
	SchemaVersion int               `json:"schema_version"`
	RunMeta       benchutil.RunMeta `json:"run_meta"`
	L             int               `json:"l"`
	Pad           int               `json:"pad"`
	BandSize      int               `json:"band_size"`

	NsPerMatch     float64 `json:"ns_per_match"`
	MatchesPerSec  float64 `json:"matches_per_sec"`
	AllocsPerMatch float64 `json:"allocs_per_match"`

	WindowOrients     int     `json:"window_orients"`
	NsPerWindow       float64 `json:"ns_per_window"`
	NsPerWindowMatch  float64 `json:"ns_per_window_match"`
	AllocsPerWindow   float64 `json:"allocs_per_window"`
	NsPerRefineView   float64 `json:"ns_per_refine_view"`
	RefineFinalErrDeg float64 `json:"refine_final_err_deg"`

	// Adaptive-vs-exhaustive comparison: the refinement above runs the
	// default adaptive search; the exhaustive fields rerun the same
	// view through the flat-scan oracle.
	SearchMode                  string  `json:"search_mode"`
	DistanceEvalsPerView        float64 `json:"distance_evals_per_view"`
	ExhaustiveEvalsPerView      float64 `json:"exhaustive_evals_per_view"`
	EvalsSavedFrac              float64 `json:"evals_saved_frac"`
	NsPerRefineViewExhaustive   float64 `json:"ns_per_refine_view_exhaustive"`
	RefineFinalErrExhaustiveDeg float64 `json:"refine_final_err_exhaustive_deg"`

	// History carries the file's prior runs forward, newest last, each
	// entry an earlier report with its own history stripped
	// (benchutil.LoadHistory) — reruns extend the perf trajectory
	// instead of erasing it.
	History []json.RawMessage `json:"history,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH_kernel.json", "output path")
	smoke := flag.Bool("smoke", false, "gate mode: skip the timing loops, compare the adaptive search against the exhaustive oracle and exit non-zero on regression")
	var of benchutil.Flags
	of.Register(flag.CommandLine)
	flag.Parse()

	stopObs, err := of.Start()
	if err != nil {
		fatal(err)
	}

	const l, pad = 32, 2
	truth := phantom.Asymmetric(l, 8, 1)
	truth.SphericalMask(13)
	ds := micrograph.Generate(truth, micrograph.GenParams{NumViews: 1, PixelA: 2.5, Seed: 2})
	dft := fourier.NewVolumeDFTPadded(truth, pad)
	r, err := core.NewRefiner(dft, core.DefaultConfig(l))
	if err != nil {
		fatal(err)
	}
	v := ds.Views[0]
	pv, err := r.PrepareView(v.Image, v.CTF)
	if err != nil {
		fatal(err)
	}

	rep := Report{
		SchemaVersion: benchutil.BenchSchemaVersion,
		RunMeta:       benchutil.CurrentRunMeta(),
		L:             l,
		Pad:           pad,
		BandSize:      r.BandSize(),
		SearchMode:    string(core.SearchAdaptive),
	}

	init := v.TrueOrient.Add(geom.Euler{Theta: 1.5, Phi: -1, Omega: 0.7})

	// Deterministic comparison pass, independent of the timing loops:
	// one adaptive refinement (plus a rerun for the bit-identity check)
	// against the exhaustive oracle.
	resA := r.RefineView(mustPrepare(r, v), init)
	resB := r.RefineView(mustPrepare(r, v), init)
	identical := resA.Orient == resB.Orient && resA.Center == resB.Center && resA.Distance == resB.Distance

	//replint:allow oracleguard the report's whole point is scoring the adaptive search against the exhaustive reference scan
	resE := r.ExhaustiveRefine(mustPrepare(r, v), init)

	rep.RefineFinalErrDeg = geom.AngularDistance(resA.Orient, v.TrueOrient)
	rep.RefineFinalErrExhaustiveDeg = geom.AngularDistance(resE.Orient, v.TrueOrient)
	rep.DistanceEvalsPerView = float64(resA.TotalMatchings())
	rep.ExhaustiveEvalsPerView = float64(resE.TotalMatchings())
	if rep.ExhaustiveEvalsPerView > 0 {
		rep.EvalsSavedFrac = 1 - rep.DistanceEvalsPerView/rep.ExhaustiveEvalsPerView
	}

	if !*smoke {
		match := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			var acc float64
			for i := 0; i < b.N; i++ {
				acc += r.Distance(pv, v.TrueOrient)
			}
			_ = acc
		})
		rep.NsPerMatch = float64(match.NsPerOp())
		rep.MatchesPerSec = 1e9 / rep.NsPerMatch
		rep.AllocsPerMatch = float64(match.AllocsPerOp())

		w := geom.CenteredWindow(v.TrueOrient, 4, 1)
		orients := w.Orientations()
		dst := make([]float64, len(orients))
		rep.WindowOrients = len(orients)
		window := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.DistanceWindow(pv, orients, dst)
			}
		})
		rep.NsPerWindow = float64(window.NsPerOp())
		rep.NsPerWindowMatch = rep.NsPerWindow / float64(len(orients))
		rep.AllocsPerWindow = float64(window.AllocsPerOp())

		refine := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := r.RefineView(mustPrepare(r, v), init)
				if res.Orient != resA.Orient {
					fatal(fmt.Errorf("adaptive refinement diverged across reruns"))
				}
			}
		})
		rep.NsPerRefineView = float64(refine.NsPerOp())

		// The exhaustive timing uses the production SearchExhaustive
		// mode — the same code path the oracle forces.
		rex, err := core.NewRefiner(dft, exhaustiveConfig(l))
		if err != nil {
			fatal(err)
		}
		refineEx := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rex.RefineView(mustPrepare(rex, v), init)
			}
		})
		rep.NsPerRefineViewExhaustive = float64(refineEx.NsPerOp())
	}

	if err := stopObs(); err != nil {
		fatal(err)
	}

	rep.History, err = benchutil.LoadHistory(*out, 0)
	if err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}

	if *smoke {
		// The CI gate: the adaptive search must stay cheap, accurate
		// and deterministic relative to the exhaustive oracle.
		ok := true
		if rep.EvalsSavedFrac < 0.5 {
			fmt.Fprintf(os.Stderr, "benchkernel: evals_saved_frac %.3f < 0.5 (adaptive %v vs exhaustive %v evals)\n",
				rep.EvalsSavedFrac, rep.DistanceEvalsPerView, rep.ExhaustiveEvalsPerView)
			ok = false
		}
		if rep.RefineFinalErrDeg > 1.10*rep.RefineFinalErrExhaustiveDeg+0.01 {
			fmt.Fprintf(os.Stderr, "benchkernel: adaptive final error %.4f° regresses against exhaustive %.4f°\n",
				rep.RefineFinalErrDeg, rep.RefineFinalErrExhaustiveDeg)
			ok = false
		}
		if !identical {
			fmt.Fprintln(os.Stderr, "benchkernel: seeded adaptive rerun was not bit-identical")
			ok = false
		}
		if !ok {
			os.Exit(1)
		}
		fmt.Printf("smoke ok: %s — adaptive %v evals vs exhaustive %v (saved %.1f%%), err %.4f° vs %.4f°\n",
			*out, rep.DistanceEvalsPerView, rep.ExhaustiveEvalsPerView, 100*rep.EvalsSavedFrac,
			rep.RefineFinalErrDeg, rep.RefineFinalErrExhaustiveDeg)
		return
	}

	fmt.Printf("wrote %s: %.0f ns/match (%.0f matches/sec, %g allocs), %.2f ms/refine (%.2f ms exhaustive, %.1f%% evals saved)\n",
		*out, rep.NsPerMatch, rep.MatchesPerSec, rep.AllocsPerMatch,
		rep.NsPerRefineView/1e6, rep.NsPerRefineViewExhaustive/1e6, 100*rep.EvalsSavedFrac)
}

// exhaustiveConfig is DefaultConfig with the flat window scan selected.
func exhaustiveConfig(l int) core.Config {
	cfg := core.DefaultConfig(l)
	cfg.Search = core.SearchExhaustive
	return cfg
}

// mustPrepare rebuilds fresh view state (refinement bakes centre
// shifts into the band, so each run needs its own).
func mustPrepare(r *core.Refiner, v *micrograph.View) *core.View {
	pv, err := r.PrepareView(v.Image, v.CTF)
	if err != nil {
		fatal(err)
	}
	return pv
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchkernel:", err)
	os.Exit(1)
}
