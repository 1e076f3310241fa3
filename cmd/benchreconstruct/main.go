// Command benchreconstruct measures the sharded reconstruction kernel
// and writes the results as JSON, the perf record the insertion path
// is regressed against:
//
//	go run ./cmd/benchreconstruct -o BENCH_reconstruct.json
//
// It times the serial oracle insert, the fused sharded insert (both
// single-worker and at the requested worker count), and Finish, over
// the same l=32 CTF fixture as BenchmarkShardedInsertView, and records
// the correctness envelope alongside: max relative difference of the
// sharded map against the serial oracle, bit-identity of the output
// across worker counts {1, 4, 8}, and steady-state allocations per
// inserted view.
//
// With -smoke the command acts as a CI gate: it skips the timing
// loops and exits non-zero when the kernel drifts past 1e-12 of the
// oracle, when any worker count moves a bit of the output, or when a
// steady-state insert allocates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/micrograph"
	"repro/internal/phantom"
	"repro/internal/reconstruct"
	"repro/internal/volume"
)

// Report is the schema of BENCH_reconstruct.json. SchemaVersion covers
// the shared envelope (schema_version + run_meta); the measurement
// fields may grow between PRs.
type Report struct {
	SchemaVersion int               `json:"schema_version"`
	RunMeta       benchutil.RunMeta `json:"run_meta"`
	L             int               `json:"l"`
	Views         int               `json:"views"`
	Workers       int               `json:"workers"`
	Shards        int               `json:"shards"`
	WienerCTF     bool              `json:"wiener_ctf"`

	NsPerInsertViewSerial float64 `json:"ns_per_insert_view_serial"`
	NsPerInsertView1W     float64 `json:"ns_per_insert_view_1w"`
	NsPerInsertView       float64 `json:"ns_per_insert_view"`
	ViewsPerSec           float64 `json:"views_per_sec"`
	SpeedupVsSerial       float64 `json:"speedup_vs_serial"`
	ParallelSpeedup       float64 `json:"parallel_speedup"`
	NsFinish              float64 `json:"ns_finish"`
	AllocsPerInsert       float64 `json:"allocs_per_insert"`

	MaxRelDiffVsOracle        float64 `json:"max_rel_diff_vs_oracle"`
	BitIdenticalAcrossWorkers bool    `json:"bit_identical_across_workers"`

	// History carries the file's prior runs forward, newest last, each
	// entry an earlier report with its own history stripped
	// (benchutil.LoadHistory) — reruns extend the perf trajectory
	// instead of erasing it.
	History []json.RawMessage `json:"history,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH_reconstruct.json", "output path")
	smoke := flag.Bool("smoke", false, "gate mode: skip the timing loops, check oracle equivalence, worker-count bit-identity and zero steady-state allocs, exit non-zero on failure")
	workers := flag.Int("p", 8, "worker count for the parallel timing pass")
	var of benchutil.Flags
	of.Register(flag.CommandLine)
	flag.Parse()

	stopObs, err := of.Start()
	if err != nil {
		fatal(err)
	}

	const l, nViews = 32, 64
	truth := phantom.Asymmetric(l, 8, 1)
	truth.SphericalMask(13)
	ds := micrograph.Generate(truth, micrograph.GenParams{
		NumViews: nViews, PixelA: 2.5, Seed: 7,
		CenterJitter: 2, ApplyCTF: true, DefocusGroups: 3,
	})
	views := ds.Images()
	orients := ds.TrueOrientations()
	centers := make([][2]float64, nViews)
	ctfs := ds.CTFs()
	for i, v := range ds.Views {
		centers[i] = [2]float64{-v.TrueCenter[0], -v.TrueCenter[1]}
	}
	opt := reconstruct.Options{WienerCTF: true}
	popt := func(w int) reconstruct.ParallelOptions {
		return reconstruct.ParallelOptions{Options: opt, Workers: w}
	}

	rep := Report{
		SchemaVersion: benchutil.BenchSchemaVersion,
		RunMeta:       benchutil.CurrentRunMeta(),
		L:             l,
		Views:         nViews,
		Workers:       *workers,
		Shards:        reconstruct.DefaultShards,
		WienerCTF:     true,
	}

	// Correctness envelope, measured in both modes.
	//
	// Oracle equivalence: the sharded kernel regroups sums and
	// tabulates the phase ramp, so it is held to ≤1e-12 of the serial
	// reference, not bit-identity.
	oracle := reconstruct.New(l, opt)
	for i := range views {
		//replint:allow oracleguard the report's whole point is scoring the fused kernel against the serial reference insert
		if err := oracle.Insert(views[i], orients[i], centers[i], ctfs[i]); err != nil {
			fatal(err)
		}
	}
	serialMap := oracle.Finish()
	var perWorker []*volume.Grid
	for _, w := range []int{1, 4, 8} {
		m, err := reconstruct.FromViewsParallel(views, orients, centers, ctfs, popt(w))
		if err != nil {
			fatal(err)
		}
		perWorker = append(perWorker, m)
	}
	rep.MaxRelDiffVsOracle = maxRelDiff(serialMap, perWorker[0])
	rep.BitIdenticalAcrossWorkers = true
	for _, m := range perWorker[1:] {
		if !identical(perWorker[0], m) {
			rep.BitIdenticalAcrossWorkers = false
		}
	}

	// Steady-state allocations of the fused insert, after the shard
	// scratch is warm.
	warm := reconstruct.NewSharded(l, popt(1))
	for i := range views {
		if err := warm.Insert(views[i], orients[i], centers[i], ctfs[i]); err != nil {
			fatal(err)
		}
	}
	i := 0
	rep.AllocsPerInsert = testing.AllocsPerRun(64, func() {
		if err := warm.Insert(views[i%nViews], orients[i%nViews], centers[i%nViews], ctfs[i%nViews]); err != nil {
			fatal(err)
		}
		i++
	})

	if !*smoke {
		serial := testing.Benchmark(func(b *testing.B) {
			rec := reconstruct.New(l, opt)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % nViews
				//replint:allow oracleguard timing the serial reference insert is the report's baseline
				if err := rec.Insert(views[j], orients[j], centers[j], ctfs[j]); err != nil {
					fatal(err)
				}
			}
		})
		rep.NsPerInsertViewSerial = float64(serial.NsPerOp())

		fused := testing.Benchmark(func(b *testing.B) {
			rec := reconstruct.NewSharded(l, popt(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % nViews
				if err := rec.Insert(views[j], orients[j], centers[j], ctfs[j]); err != nil {
					fatal(err)
				}
			}
		})
		rep.NsPerInsertView1W = float64(fused.NsPerOp())

		// Batch pass at the requested worker count: whole-batch wall
		// time over the view count, the number a multi-cycle job sees.
		batch := func(w int) float64 {
			tasks := make([]reconstruct.ViewTask, nViews)
			for i := range tasks {
				tasks[i] = reconstruct.ViewTask{Image: views[i], Orient: orients[i], Center: centers[i], CTF: ctfs[i]}
			}
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					rec := reconstruct.NewSharded(l, popt(w))
					b.StartTimer()
					if err := rec.InsertViews(tasks); err != nil {
						fatal(err)
					}
				}
			})
			return float64(res.NsPerOp()) / float64(nViews)
		}
		rep.NsPerInsertView = batch(*workers)
		rep.ViewsPerSec = 1e9 / rep.NsPerInsertView
		if rep.NsPerInsertView > 0 {
			rep.SpeedupVsSerial = rep.NsPerInsertViewSerial / rep.NsPerInsertView
		}
		if one := batch(1); rep.NsPerInsertView > 0 {
			rep.ParallelSpeedup = one / rep.NsPerInsertView
		}

		finish := testing.Benchmark(func(b *testing.B) {
			rec := reconstruct.NewSharded(l, popt(*workers))
			tasks := make([]reconstruct.ViewTask, nViews)
			for i := range tasks {
				tasks[i] = reconstruct.ViewTask{Image: views[i], Orient: orients[i], Center: centers[i], CTF: ctfs[i]}
			}
			if err := rec.InsertViews(tasks); err != nil {
				fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Finish()
			}
		})
		rep.NsFinish = float64(finish.NsPerOp())
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
		ok := true
		if rep.MaxRelDiffVsOracle > 1e-12 {
			fmt.Fprintf(os.Stderr, "benchreconstruct: max rel diff vs oracle %g > 1e-12\n", rep.MaxRelDiffVsOracle)
			ok = false
		}
		if !rep.BitIdenticalAcrossWorkers {
			fmt.Fprintln(os.Stderr, "benchreconstruct: output differs across worker counts {1,4,8}")
			ok = false
		}
		if rep.AllocsPerInsert != 0 {
			fmt.Fprintf(os.Stderr, "benchreconstruct: %g allocs per steady-state insert, want 0\n", rep.AllocsPerInsert)
			ok = false
		}
		if !ok {
			os.Exit(1)
		}
		fmt.Printf("smoke ok: %s — max rel diff %g, bit-identical across workers, %g allocs/insert\n",
			*out, rep.MaxRelDiffVsOracle, rep.AllocsPerInsert)
		return
	}

	fmt.Printf("wrote %s: serial %.0f ns/view, fused %.0f ns/view 1w, %.0f ns/view %dw (%.0f views/sec, %.2fx vs serial, %.2fx parallel), finish %.2f ms, %g allocs/insert\n",
		*out, rep.NsPerInsertViewSerial, rep.NsPerInsertView1W, rep.NsPerInsertView, rep.Workers,
		rep.ViewsPerSec, rep.SpeedupVsSerial, rep.ParallelSpeedup, rep.NsFinish/1e6, rep.AllocsPerInsert)
}

// maxRelDiff returns max|a−b| scaled by max|a|.
func maxRelDiff(a, b *volume.Grid) float64 {
	var scale, diff float64
	for i := range a.Data {
		if v := a.Data[i]; v > scale {
			scale = v
		} else if -v > scale {
			scale = -v
		}
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > diff {
			diff = d
		}
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

func identical(a, b *volume.Grid) bool {
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreconstruct:", err)
	os.Exit(1)
}
