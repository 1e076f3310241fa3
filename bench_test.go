package repro

// One benchmark per table and figure of the paper's evaluation, plus
// ablations of the design choices DESIGN.md calls out. The benchmarks
// run the real experiments at reduced scale and publish the headline
// numbers as custom metrics (resolutions in Å, correlation
// coefficients, operation counts), so `go test -bench=.` regenerates
// the full evaluation.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/fsc"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/obs"
	"repro/internal/parfft"
	"repro/internal/phantom"
	"repro/internal/reconstruct"
	"repro/internal/volume"
	"repro/internal/workload"
)

// benchScale shrinks the datasets so the whole suite finishes in
// minutes; the shapes being verified are scale-invariant.
const benchScale = 1.8

// BenchmarkFig1bViewCounts regenerates Fig. 1b / §3: calculated-view
// counts with and without icosahedral symmetry, and the asymmetric
// search-space blow-up.
func BenchmarkFig1bViewCounts(b *testing.B) {
	var rows []workload.ViewCountRow
	for i := 0; i < b.N; i++ {
		rows = workload.ViewCounts([]float64{6, 3, 1, 0.1})
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.IcosAsymUnit), "icosViews@0.1deg")
	b.ReportMetric(last.AsymSearchSpace, "asymSearchSpace@0.1deg")
}

// BenchmarkOpCountMultiRes regenerates §4's operation-count claim:
// the multi-resolution ladder vs a flat fine search over a 10° domain.
func BenchmarkOpCountMultiRes(b *testing.B) {
	var rep workload.OpCountReport
	for i := 0; i < b.N; i++ {
		rep = workload.OpCount(10, nil)
	}
	b.ReportMetric(float64(rep.FlatPerAxis), "flat/axis")
	b.ReportMetric(float64(rep.MultiPerAxis), "multi/axis")
	b.ReportMetric(rep.SavingFactor, "saving")
}

// BenchmarkFig5SindbisFSC regenerates Fig. 5 (and the Fig. 2/3 maps
// and Fig. 4 split behind it): old vs new refinement on the
// Sindbis-like dataset, scored by the odd/even FSC.
func BenchmarkFig5SindbisFSC(b *testing.B) {
	benchmarkFSC(b, workload.SindbisSpec().Scaled(benchScale))
}

// BenchmarkFig6ReoFSC regenerates Fig. 6 for the reo-like dataset.
// The double-shelled reo particle needs a somewhat larger box than the
// Sindbis-like one to keep its shells resolved.
func BenchmarkFig6ReoFSC(b *testing.B) {
	benchmarkFSC(b, workload.ReoSpec().Scaled(benchScale*0.8))
}

func benchmarkFSC(b *testing.B, spec workload.DatasetSpec) {
	var exp *workload.FSCExperiment
	for i := 0; i < b.N; i++ {
		var err error
		exp, err = workload.RunFSC(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(exp.Old.ResolutionA, "oldResÅ")
	b.ReportMetric(exp.New.ResolutionA, "newResÅ")
	b.ReportMetric(exp.Old.MeanAngErr, "oldAngErr°")
	b.ReportMetric(exp.New.MeanAngErr, "newAngErr°")
	// Resolutions are read off discrete FSC shells; allow sub-shell
	// ties at benchmark scale.
	if exp.New.ResolutionA > 1.05*exp.Old.ResolutionA {
		b.Errorf("new method resolution %.2f Å clearly worse than old %.2f Å",
			exp.New.ResolutionA, exp.Old.ResolutionA)
	}
	if exp.New.MeanAngErr > exp.Old.MeanAngErr {
		b.Errorf("new method angular error %.2f° worse than old %.2f°",
			exp.New.MeanAngErr, exp.Old.MeanAngErr)
	}
}

// BenchmarkFig4SplitFSC regenerates the Fig. 4 resolution-assessment
// procedure in isolation: odd/even split, two reconstructions, FSC.
func BenchmarkFig4SplitFSC(b *testing.B) {
	spec := workload.SindbisSpec().Scaled(benchScale)
	ds := spec.Build()
	var res float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		odd, even, err := reconstruct.SplitHalvesParallel(ds.Images(), ds.TrueOrientations(), nil, nil, reconstruct.ParallelOptions{})
		if err != nil {
			b.Fatal(err)
		}
		curve, err := fsc.Compute(odd, even, spec.PixelA)
		if err != nil {
			b.Fatal(err)
		}
		res = curve.ResolutionAt(0.5)
	}
	b.ReportMetric(res, "resÅ@truth")
}

// BenchmarkTable1Sindbis regenerates Table 1: per-step times of one
// refinement pass per angular resolution on the simulated cluster.
func BenchmarkTable1Sindbis(b *testing.B) {
	benchmarkTiming(b, workload.SindbisSpec())
}

// BenchmarkTable2Reo regenerates Table 2 for the reo-like dataset.
func BenchmarkTable2Reo(b *testing.B) {
	benchmarkTiming(b, workload.ReoSpec())
}

func benchmarkTiming(b *testing.B, spec workload.DatasetSpec) {
	spec = spec.Scaled(benchScale * 1.3)
	var table *workload.TimingTable
	for i := 0; i < b.N; i++ {
		var err error
		table, err = workload.RunTiming(spec, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := table.PaperRows[len(table.PaperRows)-1]
	b.ReportMetric(last.Refinement, "refineSecs@0.002°")
	b.ReportMetric(100*last.RefinementShare, "refineShare%")
	if last.RefinementShare < 0.9 {
		b.Errorf("refinement share %.2f at paper scale, expected ≥0.9 (the paper reports ~99%%)",
			last.RefinementShare)
	}
}

// BenchmarkSlidingWindowStats regenerates the §5 sliding-window
// observation: windows slide when the optimum lands on an edge,
// costing extra matchings beyond the base search range.
func BenchmarkSlidingWindowStats(b *testing.B) {
	spec := workload.SindbisSpec().Scaled(benchScale)
	ds := spec.Build()
	dft := fourier.NewVolumeDFTPadded(ds.Truth, 2)
	cfg := core.DefaultConfig(spec.L)
	cfg.Schedule = core.DefaultSchedule()[:2]
	r, err := core.NewRefiner(dft, cfg)
	if err != nil {
		b.Fatal(err)
	}
	inits := ds.PerturbedOrientations(spec.InitError, 3)
	results := make([]core.Result, len(ds.Views))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range ds.Views {
			pv, err := r.PrepareView(v.Image, v.CTF)
			if err != nil {
				b.Fatal(err)
			}
			results[j] = r.RefineView(pv, inits[j])
		}
	}
	var slides, matchings int
	for li := range cfg.Schedule {
		sum := core.Summarize(results, li, r.MaxSlides())
		slides += sum.Slides
		matchings += sum.Matchings
	}
	n := float64(len(ds.Views))
	b.ReportMetric(float64(slides)/n, "slides/view")
	b.ReportMetric(float64(matchings)/n, "matchings/view")
}

// BenchmarkCycleBreakdown regenerates the §5 claim that 3-D
// reconstruction is a small share of a refinement cycle.
func BenchmarkCycleBreakdown(b *testing.B) {
	spec := workload.SindbisSpec().Scaled(benchScale * 1.5)
	var cb workload.CycleBreakdown
	for i := 0; i < b.N; i++ {
		table, err := workload.RunTiming(spec, 16)
		if err != nil {
			b.Fatal(err)
		}
		cb = table.Cycle()
	}
	b.ReportMetric(100*cb.ReconstructionShare, "reconShare%")
}

// BenchmarkSymmetryDetection regenerates the §6 claim: the symmetry
// group of a refined map is recoverable.
func BenchmarkSymmetryDetection(b *testing.B) {
	var cases []workload.SymDetectCase
	for i := 0; i < b.N; i++ {
		cases = workload.RunSymmetryDetection(32)
	}
	correct := 0
	for _, c := range cases {
		if c.Correct() {
			correct++
		}
	}
	b.ReportMetric(float64(correct), "correctOf4")
	if correct != len(cases) {
		b.Errorf("symmetry detection got %d/%d cases", correct, len(cases))
	}
}

// ---- Ablations (DESIGN.md §5) ----

// ablationSetup builds a small noiseless dataset plus spectra at both
// paddings for the interpolation/padding ablations.
func ablationSetup(b *testing.B) (*micrograph.Dataset, *fourier.VolumeDFT, *fourier.VolumeDFT) {
	b.Helper()
	truth := phantom.Asymmetric(28, 8, 1)
	truth.SphericalMask(11)
	ds := micrograph.Generate(truth, micrograph.GenParams{NumViews: 12, PixelA: 2.5, Seed: 4})
	return ds, fourier.NewVolumeDFTPadded(truth, 2), fourier.NewVolumeDFT(truth)
}

func meanRefineError(b *testing.B, ds *micrograph.Dataset, dft *fourier.VolumeDFT, mutate func(*core.Config)) float64 {
	b.Helper()
	cfg := core.DefaultConfig(ds.L)
	cfg.Schedule = core.DefaultSchedule()[:2]
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := core.NewRefiner(dft, cfg)
	if err != nil {
		b.Fatal(err)
	}
	inits := ds.PerturbedOrientations(2, 9)
	var sum float64
	for i, v := range ds.Views {
		pv, err := r.PrepareView(v.Image, v.CTF)
		if err != nil {
			b.Fatal(err)
		}
		res := r.RefineView(pv, inits[i])
		sum += geom.AngularDistance(res.Orient, v.TrueOrient)
	}
	return sum / float64(len(ds.Views))
}

// BenchmarkAblationInterp compares trilinear against nearest-neighbour
// cut interpolation: nearest is cheaper per sample but loses accuracy.
func BenchmarkAblationInterp(b *testing.B) {
	ds, dft, _ := ablationSetup(b)
	var errTri, errNear float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errTri = meanRefineError(b, ds, dft, nil)
		errNear = meanRefineError(b, ds, dft, func(c *core.Config) { c.Interp = fourier.Nearest })
	}
	b.ReportMetric(errTri, "trilinearErr°")
	b.ReportMetric(errNear, "nearestErr°")
	if errTri > errNear {
		b.Errorf("trilinear (%.3f°) should beat nearest (%.3f°)", errTri, errNear)
	}
}

// BenchmarkAblationPadding compares 2x-oversampled matching spectra
// against unpadded ones: padding is the accuracy workhorse.
func BenchmarkAblationPadding(b *testing.B) {
	ds, padded, unpadded := ablationSetup(b)
	var errPad, errNoPad float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errPad = meanRefineError(b, ds, padded, nil)
		errNoPad = meanRefineError(b, ds, unpadded, nil)
	}
	b.ReportMetric(errPad, "pad2Err°")
	b.ReportMetric(errNoPad, "pad1Err°")
}

// BenchmarkAblationSlidingWindow compares refinement with and without
// the sliding-window mechanism when the initial orientation falls
// outside the first window — the situation step i exists for.
func BenchmarkAblationSlidingWindow(b *testing.B) {
	ds, dft, _ := ablationSetup(b)
	offset := geom.Euler{Theta: 5, Phi: -6, Omega: 5}
	run := func(maxSlides int) float64 {
		cfg := core.DefaultConfig(ds.L)
		cfg.Schedule = []core.Level{{RAngular: 1, WindowHalf: 3}}
		cfg.MaxSlides = maxSlides
		r, err := core.NewRefiner(dft, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, v := range ds.Views {
			pv, err := r.PrepareView(v.Image, v.CTF)
			if err != nil {
				b.Fatal(err)
			}
			res := r.RefineView(pv, v.TrueOrient.Add(offset))
			sum += geom.AngularDistance(res.Orient, v.TrueOrient)
		}
		return sum / float64(len(ds.Views))
	}
	var with, without float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with = run(10)
		without = run(0)
	}
	b.ReportMetric(with, "withSlidesErr°")
	b.ReportMetric(without, "noSlidesErr°")
	if with > without {
		b.Errorf("sliding window (%.2f°) should beat fixed window (%.2f°)", with, without)
	}
}

// BenchmarkAblationMultiRes compares the multi-resolution ladder
// against a flat search of equal final resolution over the same
// domain: similar accuracy, orders of magnitude fewer matchings.
func BenchmarkAblationMultiRes(b *testing.B) {
	ds, dft, _ := ablationSetup(b)
	var multiMatch, flatMatch int
	var multiErr, flatErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(ds.L)
		cfg.Schedule = core.DefaultSchedule()[:2]
		r, err := core.NewRefiner(dft, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// The flat strawman of §4: one exhaustive level at the final
		// step over the whole ±2° domain, no laddering, no slides.
		flat, err := core.NewRefiner(dft, core.Config{
			RMap:           cfg.RMap,
			Schedule:       []core.Level{{RAngular: 0.1, WindowHalf: 2}},
			Interp:         fourier.Trilinear,
			NormalizeScale: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		multiMatch, flatMatch = 0, 0
		multiErr, flatErr = 0, 0
		inits := ds.PerturbedOrientations(2, 9)
		for j, v := range ds.Views {
			pv, _ := r.PrepareView(v.Image, v.CTF)
			res := r.RefineView(pv, inits[j])
			multiMatch += res.TotalMatchings()
			multiErr += geom.AngularDistance(res.Orient, v.TrueOrient)

			fv, _ := flat.PrepareView(v.Image, v.CTF)
			res = flat.RefineView(fv, inits[j])
			flatMatch += res.TotalMatchings()
			flatErr += geom.AngularDistance(res.Orient, v.TrueOrient)
		}
	}
	nv := float64(len(ds.Views))
	b.ReportMetric(float64(multiMatch)/nv, "multiMatch/view")
	b.ReportMetric(float64(flatMatch)/nv, "flatMatch/view")
	b.ReportMetric(multiErr/nv, "multiErr°")
	b.ReportMetric(flatErr/nv, "flatErr°")
}

// BenchmarkAblationReplication measures the §6 design discussion on
// the simulator: replicating the 3-D DFT on every node (chosen by the
// paper) versus demand-paging bricks through an LRU cache
// (workload.PriceBrickPaging, the strategy of the paper's ref [6]).
// The replicated all-gather pays once per pass; on-demand fetching
// pays a message per cache miss across the matching workload.
func BenchmarkAblationReplication(b *testing.B) {
	model := cluster.SP2
	truth := phantom.Asymmetric(24, 8, 1)
	dft := fourier.NewVolumeDFTPadded(truth, 2)
	var orients []geom.Euler
	for i := 0; i < 40; i++ {
		orients = append(orients, geom.Euler{Theta: float64(3 * i), Phi: float64(5 * i), Omega: float64(7 * i)})
	}
	var replicated, onDemand, hitRate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Replicated: one all-gather of the full L³ spectrum, as the
		// paper's nodes hold it (this process stores only its half).
		replicated = model.MessageTime(dft.L * dft.L * dft.L * 16)
		// On demand: the same slice workload through a small cache.
		secs, hits, misses, err := workload.PriceBrickPaging(dft, orients, 9, 8, 8, model)
		if err != nil {
			b.Fatal(err)
		}
		onDemand = secs
		hitRate = float64(hits) / float64(hits+misses)
	}
	b.ReportMetric(replicated, "replicatedSecs")
	b.ReportMetric(onDemand, "onDemandSecs")
	b.ReportMetric(100*hitRate, "cacheHit%")
	if replicated > onDemand {
		b.Errorf("replication (%.3gs) should beat on-demand bricks (%.3gs)",
			replicated, onDemand)
	}
}

// BenchmarkParallelDFTScaling prices the slab-decomposed 3-D DFT on
// increasing simulated node counts (step a of the algorithm).
func BenchmarkParallelDFTScaling(b *testing.B) {
	// A map large enough that per-node FFT work dominates the
	// all-gather; small maps are communication-bound and show no
	// speedup (which parfft.ModelTime also predicts).
	const l = 64
	var t1, t8 float64
	for i := 0; i < b.N; i++ {
		t1 = parfft.Price(cluster.New(1, cluster.SP2), l, 0)
		t8 = parfft.Price(cluster.New(8, cluster.SP2), l, 0)
	}
	b.ReportMetric(t1, "P1secs")
	b.ReportMetric(t8, "P8secs")
	b.ReportMetric(t1/t8, "speedup")
	if t8 >= t1 {
		b.Errorf("8 nodes (%gs) not faster than 1 (%gs) on a compute-bound map", t8, t1)
	}
}

// BenchmarkRefineOneView is the kernel benchmark: one full
// multi-resolution refinement of a single view.
func BenchmarkRefineOneView(b *testing.B) {
	truth := phantom.Asymmetric(32, 8, 1)
	truth.SphericalMask(13)
	ds := micrograph.Generate(truth, micrograph.GenParams{NumViews: 1, PixelA: 2.5, Seed: 2})
	dft := fourier.NewVolumeDFTPadded(truth, 2)
	r, err := core.NewRefiner(dft, core.DefaultConfig(32))
	if err != nil {
		b.Fatal(err)
	}
	v := ds.Views[0]
	init := v.TrueOrient.Add(geom.Euler{Theta: 1.5, Phi: -1, Omega: 0.7})
	b.ReportAllocs()
	b.ResetTimer()
	var lastErr float64
	for i := 0; i < b.N; i++ {
		pv, err := r.PrepareView(v.Image, v.CTF)
		if err != nil {
			b.Fatal(err)
		}
		res := r.RefineView(pv, init)
		lastErr = geom.AngularDistance(res.Orient, v.TrueOrient)
	}
	b.ReportMetric(lastErr, "finalErr°")
}

// matchKernelSetup builds the refiner + prepared view used by the
// fused-kernel micro-benchmarks (same fixture as BenchmarkRefineOneView).
func matchKernelSetup(b *testing.B) (*core.Refiner, *core.View, geom.Euler) {
	b.Helper()
	truth := phantom.Asymmetric(32, 8, 1)
	truth.SphericalMask(13)
	ds := micrograph.Generate(truth, micrograph.GenParams{NumViews: 1, PixelA: 2.5, Seed: 2})
	dft := fourier.NewVolumeDFTPadded(truth, 2)
	r, err := core.NewRefiner(dft, core.DefaultConfig(32))
	if err != nil {
		b.Fatal(err)
	}
	v := ds.Views[0]
	pv, err := r.PrepareView(v.Image, v.CTF)
	if err != nil {
		b.Fatal(err)
	}
	return r, pv, v.TrueOrient
}

// BenchmarkMatchKernel times one fused matching operation — cut
// sampling over the whole compared band (the Friedel half of the disc)
// plus the distance accumulation — the inner loop of the entire
// refinement. It stays at 0 allocs/op (internal/core's
// TestRefineLevelAllocs holds the kernel to that). The band metric is the
// number of coefficients compared, not the paper's full-disc count.
func BenchmarkMatchKernel(b *testing.B) {
	r, pv, o := matchKernelSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += r.Distance(pv, o)
	}
	_ = acc
	b.ReportMetric(float64(r.BandSize()), "half-band-coeffs")
}

// BenchmarkMatchKernelInstrumented is BenchmarkMatchKernel with full
// instrumentation enabled: the obs counters inside the kernel
// (sampler cut calls, distance evaluations) fire on every op. The
// 0 allocs/op contract of the instrumented kernel is held by
// internal/core's TestRefineLevelAllocs.
func BenchmarkMatchKernelInstrumented(b *testing.B) {
	r, pv, o := matchKernelSetup(b)
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	b.ReportAllocs()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += r.Distance(pv, o)
	}
	_ = acc
}

// BenchmarkReconstruction is the kernel benchmark for step C.
func BenchmarkReconstruction(b *testing.B) {
	truth := phantom.SindbisLike(32)
	ds := micrograph.Generate(truth, micrograph.GenParams{NumViews: 30, PixelA: 2.5, Seed: 3})
	b.ReportAllocs()
	b.ResetTimer()
	var cc float64
	for i := 0; i < b.N; i++ {
		rec, err := reconstruct.FromViews(ds.Images(), ds.TrueOrientations(), nil, nil, reconstruct.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cc = volume.Correlation(truth, rec)
	}
	b.ReportMetric(cc, "truthCC")
}

// BenchmarkReconstructInsertView times one steady-state fused insert —
// the per-view cost a multi-cycle refinement job pays — on the full
// path: centre phase ramp, Wiener CTF weighting, trilinear scatter.
func BenchmarkReconstructInsertView(b *testing.B) {
	l := 32
	truth := phantom.SindbisLike(l)
	ds := micrograph.Generate(truth, micrograph.GenParams{
		NumViews: 16, PixelA: 2.5, Seed: 3,
		CenterJitter: 2, ApplyCTF: true, DefocusGroups: 3,
	})
	centers := make([][2]float64, len(ds.Views))
	ctfs := make([]ctf.Params, len(ds.Views))
	for i, v := range ds.Views {
		centers[i] = [2]float64{-v.TrueCenter[0], -v.TrueCenter[1]}
		ctfs[i] = v.CTF
	}
	rec := reconstruct.NewSharded(l, reconstruct.ParallelOptions{
		Options: reconstruct.Options{WienerCTF: true}, Workers: 1,
	})
	for i, v := range ds.Views {
		if err := rec.Insert(v.Image, v.TrueOrient, centers[i], ctfs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ds.Views)
		if err := rec.Insert(ds.Views[j].Image, ds.Views[j].TrueOrient, centers[j], ctfs[j]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNormalize compares the paper's raw distance formula
// against the least-squares gain-normalized variant on views whose
// intensity gain varies (as real micrographs' does).
func BenchmarkAblationNormalize(b *testing.B) {
	ds, dft, _ := ablationSetup(b)
	// Rescale every view by a different gain, as film/CCD exposure
	// variation would.
	scaled := make([]*volume.Image, len(ds.Views))
	for i, v := range ds.Views {
		im := v.Image.Clone()
		im.Scale(0.5 + 0.2*float64(i))
		scaled[i] = im
	}
	run := func(normalize bool) float64 {
		cfg := core.DefaultConfig(ds.L)
		cfg.Schedule = core.DefaultSchedule()[:2]
		cfg.NormalizeScale = normalize
		r, err := core.NewRefiner(dft, cfg)
		if err != nil {
			b.Fatal(err)
		}
		inits := ds.PerturbedOrientations(2, 9)
		var sum float64
		for i, v := range ds.Views {
			pv, err := r.PrepareView(scaled[i], v.CTF)
			if err != nil {
				b.Fatal(err)
			}
			res := r.RefineView(pv, inits[i])
			sum += geom.AngularDistance(res.Orient, v.TrueOrient)
		}
		return sum / float64(len(ds.Views))
	}
	var normErr, rawErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		normErr = run(true)
		rawErr = run(false)
	}
	b.ReportMetric(normErr, "normalizedErr°")
	b.ReportMetric(rawErr, "rawErr°")
	if normErr > rawErr {
		b.Errorf("gain normalization (%.3f°) should not lose to the raw formula (%.3f°) under gain variation", normErr, rawErr)
	}
}
