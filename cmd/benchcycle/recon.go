package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ctf"
	"repro/internal/fsc"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/reconstruct"
	"repro/internal/volume"
)

// reconInputs is the recon_fsc view stack at its true orientations and
// centres.
type reconInputs struct {
	ds      *micrograph.Dataset
	images  []*volume.Image
	orients []geom.Euler
	centers [][2]float64
	ctfs    []ctf.Params
	dir     string
}

// reconPass is one pass's outputs.
type reconPass struct {
	wall   time.Duration
	digest string
	fsc05  float64
	back   *volume.Grid // the map as re-read from disk
}

// runReconWorkload is the library path of the non-refinement side of a
// cycle: full map, odd/even half maps, FSC, digest, and the map written
// and read back — npasses of them back to back.
func runReconWorkload(e *env, npasses int) error {
	spec := reconSpec(e)
	var (
		in     reconInputs
		setups []float64
		build  time.Duration
	)
	for began := time.Now(); moreSetups(len(setups), began); {
		if in.dir != "" {
			if err := os.RemoveAll(in.dir); err != nil {
				return err
			}
		}
		t0 := time.Now()
		ds := spec.Build()
		build = time.Since(t0)
		n := len(ds.Views)
		in = reconInputs{ds: ds, images: ds.Images(), orients: ds.TrueOrientations(), centers: make([][2]float64, n), ctfs: make([]ctf.Params, n)}
		for j, v := range ds.Views {
			in.centers[j] = [2]float64{-v.TrueCenter[0], -v.TrueCenter[1]}
			in.ctfs[j] = v.CTF
		}
		var err error
		if in.dir, err = newRunDir(e.base); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(in.dir)
	e.res.set("setup_s", fastest(setups))

	opt := reconstruct.ParallelOptions{Options: reconstruct.Options{WienerCTF: true}}
	st := stage{}
	if e.traced {
		st = stage{e.tr, e.tr.begin("pass", "bench", 0, 0, -1)}
		npasses = 1
	}
	var (
		passes []reconPass
		walls  []float64
	)
	for len(passes) < npasses {
		p, err := in.pass(st, opt)
		if err != nil {
			return err
		}
		if len(passes) > 0 {
			passes[len(passes)-1].back = nil // only the last re-read map is checked
		}
		passes = append(passes, p)
		walls = append(walls, p.wall.Seconds())
	}
	if e.traced {
		e.tr.end(st.root)
	}

	first, last := passes[0], passes[len(passes)-1]
	for i, p := range passes {
		e.res.check(p.digest == first.digest && p.fsc05 == first.fsc05, "pass %d: digest %.12s, FSC 0.5 at %v Å; pass 0 had %.12s, %v Å", i, p.digest, p.fsc05, first.digest, first.fsc05)
	}
	e.res.check(reconstruct.MapDigest(last.back) == last.digest, "map re-read from disk does not digest to %.12s", last.digest)
	nyquist := 2 * in.ds.PixelA
	e.res.check(first.fsc05 >= nyquist && first.fsc05 < 8*nyquist, "odd/even FSC 0.5 crossing %v Å outside [%v, %v) Å at true orientations", first.fsc05, nyquist, 8*nyquist)

	// Every view is inserted twice per pass: once into the full map,
	// once into its half.
	n := len(in.images)
	e.res.set("cycle_s", fastest(walls))
	e.res.set("views_per_s", float64(2*n)/fastest(walls))
	e.res.meta["passes"] = len(passes)
	e.res.meta["pass_wall_s"] = walls
	e.res.meta["box"] = in.ds.L
	e.res.meta["views"] = n
	e.res.meta["map_digest"] = first.digest
	if !e.traced {
		return nil
	}

	b := e.tr.budgetUnder(st.root)
	sec := func(name string) float64 {
		d, _ := e.tr.total(st.root, name, -1)
		return d.Seconds()
	}
	e.res.set("workload.build_s", build.Seconds())
	e.res.set("reconstruct.full_s", sec(spanFull))
	e.res.set("reconstruct.halves_s", sec(spanHalves))
	e.res.set("reconstruct.digest_ms", sec(spanDigest)*1e3)
	e.res.set("fsc.compute_s", sec(spanFSC))
	e.res.set("volume.map_write_ms", sec(spanMapWrite)*1e3)
	e.res.set("volume.map_read_ms", sec(spanMapRead)*1e3)
	if fi, err := os.Stat(in.mapPath()); err == nil {
		e.res.set("volume.map_bytes", float64(fi.Size()))
	}
	e.res.set("quality.fsc05_A", first.fsc05)
	e.res.setCoverage(b.coverage())
	e.res.check(b.layers["core"] == 0, "a core span on recon_fsc")

	kernels := stage{e.tr, e.tr.begin("kernels", "bench", -1, 0, -1)}
	shardedSplit(kernels, e.res, in.images, in.orients, in.centers, in.ctfs, opt)
	e.res.set("fourier.view_fft_us", viewFFTLoop(kernels, in.images))
	e.tr.end(kernels.root)
	return nil
}

func (in *reconInputs) mapPath() string { return filepath.Join(in.dir, "full.map") }

// pass runs one reconstruction pass; with a tracer in st, every call is
// under a span.
func (in *reconInputs) pass(st stage, opt reconstruct.ParallelOptions) (reconPass, error) {
	do := func(name, layer string, f func()) { st.do(name, layer, 0, f) }
	var (
		p               reconPass
		full, odd, even *volume.Grid
		curve           *fsc.Curve
		err             error
	)
	t0 := time.Now()
	do(spanFull, "reconstruct", func() {
		full, err = reconstruct.FromViewsParallel(in.images, in.orients, in.centers, in.ctfs, opt)
	})
	if err != nil {
		return p, fmt.Errorf("full map: %w", err)
	}
	do(spanHalves, "reconstruct", func() {
		odd, even, err = reconstruct.SplitHalvesParallel(in.images, in.orients, in.centers, in.ctfs, opt)
	})
	if err != nil {
		return p, fmt.Errorf("half maps: %w", err)
	}
	do(spanFSC, "fsc", func() { curve, err = fsc.ComputeParallel(odd, even, in.ds.PixelA, 0) })
	if err != nil {
		return p, fmt.Errorf("fsc: %w", err)
	}
	do(spanDigest, "reconstruct", func() { p.digest = reconstruct.MapDigest(full) })
	do(spanMapWrite, "volume", func() { err = volume.WriteGridFile(in.mapPath(), full) })
	if err != nil {
		return p, err
	}
	do(spanMapRead, "volume", func() { p.back, err = volume.ReadGridFile(in.mapPath()) })
	if err != nil {
		return p, err
	}
	p.wall = time.Since(t0)
	p.fsc05 = curve.ResolutionAt(0.5)
	if math.IsNaN(p.fsc05) {
		return p, fmt.Errorf("FSC 0.5 crossing is NaN")
	}
	return p, nil
}
