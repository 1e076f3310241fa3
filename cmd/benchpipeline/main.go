// Command benchpipeline measures the end-to-end refinement pipeline
// and writes the results as JSON:
//
//	go run ./cmd/benchpipeline -o BENCH_pipeline.json
//
// It times three layers: the 3-D map transform (complex oracle vs the
// Hermitian real-input path, plus the simulated slab DFT), the
// streaming load→FFT→CTF→match pipeline, and the per-view
// allocation/footprint profile of a streaming pass.
// Optional -cpuprofile/-memprofile flags capture pprof data for the
// whole run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/benchutil"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/parfft"
	"repro/internal/phantom"
	"repro/internal/volume"
)

// Report is the schema of BENCH_pipeline.json. SchemaVersion covers
// the shared envelope (schema_version + run_meta); the measurement
// fields may grow between PRs.
type Report struct {
	SchemaVersion int               `json:"schema_version"`
	RunMeta       benchutil.RunMeta `json:"run_meta"`
	L             int               `json:"l"`
	Pad           int               `json:"pad"`
	Views         int               `json:"views"`

	// 3-D transform of the padded map (pad·l per side).
	NsDFT3DComplex  float64 `json:"ns_dft3d_complex"`
	NsDFT3DReal     float64 `json:"ns_dft3d_real"`
	DFT3DSpeedup    float64 `json:"dft3d_speedup"`
	SlabDFTNodes    int     `json:"slab_dft_nodes"`
	SlabDFTSimSecs  float64 `json:"slab_dft_sim_secs"`
	SlabDFTWallSecs float64 `json:"slab_dft_wall_secs"`

	// Per-view 2-D transform.
	NsView2DComplex float64 `json:"ns_view2d_complex"`
	NsView2DReal    float64 `json:"ns_view2d_real"`
	View2DSpeedup   float64 `json:"view2d_speedup"`

	// End-to-end refinement throughput.
	SearchMode           string  `json:"search_mode"`
	ViewsPerSecStream    float64 `json:"views_per_sec_stream"`
	DistanceEvalsPerView float64 `json:"distance_evals_per_view"`

	// Streaming-pass footprint.
	AllocsPerView    float64 `json:"allocs_per_view"`
	BytesPerView     float64 `json:"bytes_per_view"`
	PeakRSSProxy     uint64  `json:"peak_rss_proxy_bytes"`
	HeapInUseAfter   uint64  `json:"heap_inuse_after_bytes"`
	StreamFFTWorkers int     `json:"stream_fft_workers"`
	StreamRefiners   int     `json:"stream_refine_workers"`
	StreamDepth      int     `json:"stream_depth"`

	// History carries the file's prior runs forward, newest last, each
	// entry an earlier report with its own history stripped
	// (benchutil.LoadHistory) — reruns extend the perf trajectory
	// instead of erasing it.
	History []json.RawMessage `json:"history,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH_pipeline.json", "output path")
	views := flag.Int("views", 24, "number of views to stream")
	search := flag.String("search", string(core.SearchAdaptive), "orientation search mode: adaptive or exhaustive")
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
	ds := micrograph.Generate(truth, micrograph.GenParams{NumViews: *views, PixelA: 2.5, Seed: 2})

	rep := Report{
		SchemaVersion: benchutil.BenchSchemaVersion,
		RunMeta:       benchutil.CurrentRunMeta(),
		L:             l,
		Pad:           pad,
		Views:         *views,
	}

	// --- 3-D map transform: complex oracle vs Hermitian real path.
	cplx3d := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			//replint:allow oracleguard the benchmark's whole point is timing the complex oracle against the real path
			fourier.NewVolumeDFTComplex(truth, pad)
		}
	})
	real3d := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fourier.NewVolumeDFTPadded(truth, pad)
		}
	})
	rep.NsDFT3DComplex = float64(cplx3d.NsPerOp())
	rep.NsDFT3DReal = float64(real3d.NsPerOp())
	rep.DFT3DSpeedup = rep.NsDFT3DComplex / rep.NsDFT3DReal

	// --- Simulated slab DFT (paper step a) on an SP2-like cluster.
	rep.SlabDFTNodes = 8
	wall := time.Now()
	res := parfft.Transform3D(cluster.New(rep.SlabDFTNodes, cluster.SP2), truth, 0)
	rep.SlabDFTWallSecs = time.Since(wall).Seconds()
	rep.SlabDFTSimSecs = res.Elapsed

	// --- Per-view 2-D transform: complex vs real-input path.
	im := ds.Views[0].Image
	cplx2d := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			//replint:allow oracleguard the benchmark's whole point is timing the complex oracle against the real path
			fourier.ImageDFTComplex(im)
		}
	})
	trans := fourier.NewViewTransformer(l)
	spec := volume.NewCImage(l)
	real2d := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trans.Transform(im, spec)
		}
	})
	rep.NsView2DComplex = float64(cplx2d.NsPerOp())
	rep.NsView2DReal = float64(real2d.NsPerOp())
	rep.View2DSpeedup = rep.NsView2DComplex / rep.NsView2DReal

	// --- End-to-end throughput of the streaming pipeline.
	dft := fourier.NewVolumeDFTPadded(truth, pad)
	cfg := core.DefaultConfig(l)
	cfg.Search = core.SearchMode(*search)
	rep.SearchMode = *search
	r, err := core.NewRefiner(dft, cfg)
	if err != nil {
		fatal(err)
	}
	inits := make([]geom.Euler, *views)
	perturb := geom.Euler{Theta: 1.5, Phi: -1, Omega: 0.7}
	for i, v := range ds.Views {
		inits[i] = v.TrueOrient.Add(perturb)
	}
	src := core.SliceSource(ds.Images(), ds.CTFs(), inits)

	opt := core.StreamOptions{}
	// Warm pipeline (plan caches, pools) before the measured pass.
	results, err := r.RefineStream(context.Background(), *views, src, opt)
	if err != nil {
		fatal(err)
	}
	var evals int
	for i := range results {
		evals += results[i].TotalMatchings()
	}
	rep.DistanceEvalsPerView = float64(evals) / float64(*views)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	streamSecs := timeRun(func() {
		if _, err := r.RefineStream(context.Background(), *views, src, opt); err != nil {
			fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	rep.ViewsPerSecStream = float64(*views) / streamSecs
	rep.AllocsPerView = float64(after.Mallocs-before.Mallocs) / float64(*views)
	rep.BytesPerView = float64(after.TotalAlloc-before.TotalAlloc) / float64(*views)
	rep.PeakRSSProxy = after.Sys
	rep.HeapInUseAfter = after.HeapInuse
	fftW, refW, depth := core.StreamShape(opt)
	rep.StreamFFTWorkers = fftW
	rep.StreamRefiners = refW
	rep.StreamDepth = depth

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
	fmt.Printf("wrote %s: 3-D DFT %.1fx, view FFT %.1fx, %.2f views/sec streamed (%.0f allocs/view)\n",
		*out, rep.DFT3DSpeedup, rep.View2DSpeedup, rep.ViewsPerSecStream, rep.AllocsPerView)
}

func timeRun(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchpipeline:", err)
	os.Exit(1)
}
