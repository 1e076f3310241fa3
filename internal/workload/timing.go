package workload

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parfft"
)

// The paper's I/O assumptions: views and maps are read by the master at
// a 1999-era sequential disk rate, views stored at 2 bytes per pixel.
const (
	diskBytesPerSec = 20e6
	bytesPerPixel   = 2
)

// TimingRow is one column of the paper's Tables 1 and 2: the simulated
// time of each step of one orientation-refinement pass at one angular
// resolution.
type TimingRow struct {
	// RAngular is the pass's angular resolution in degrees.
	RAngular float64
	// SearchRange is the window extent per axis in grid points.
	SearchRange int
	// MeanMatchings is the measured matchings per view (windows,
	// slides and intra-level alternation included).
	MeanMatchings float64
	// SlideViews counts views whose window slid at least once.
	SlideViews int
	// Seconds of simulated time per step (the table rows).
	DFT3D, ReadImages, FFTAnalysis, Refinement, Total float64
	// RefinementShare is Refinement/Total — the paper's "99% of the
	// time is spent matching".
	RefinementShare float64
}

// TimingTable is the full Tables 1–2 reproduction for one dataset.
type TimingTable struct {
	Spec DatasetSpec
	// P is the number of simulated processors (the paper used 16).
	P int
	// Rows hold the measured small-scale run: real refinement work
	// counted by the simulator, priced by the SP2 cost model.
	Rows []TimingRow
	// PaperRows extrapolate the same pass analytically to the paper's
	// dataset dimensions (PaperL, PaperViews).
	PaperRows []TimingRow
	// ReconSecs is the modeled paper-scale 3-D reconstruction time,
	// for the §5 claim that reconstruction is <5% of a cycle.
	ReconSecs float64
}

// RunTiming reproduces Tables 1–2 for a dataset: it runs one
// refinement pass per angular resolution of the default schedule
// through the production entry point, core.RefineStream (each pass
// starting from the previous pass's orientations, exactly as
// consecutive production runs would), prices each pass on the simulated
// cluster of p SP2 nodes, and reports per-step simulated times at both
// simulator and paper scale.
func RunTiming(spec DatasetSpec, p int) (*TimingTable, error) {
	if p < 1 {
		return nil, fmt.Errorf("workload: timing needs at least one processor, got %d", p)
	}
	ds := spec.Build()

	// Step a once per pass in the paper; the map transform is the
	// same for every pass here, so price it once and reuse.
	mapReadSecs := float64(8*spec.L*spec.L*spec.L) / diskBytesPerSec
	dft3dSecs := parfft.Price(cluster.New(p, cluster.SP2), spec.L, mapReadSecs)
	// Matching uses a 2× oversampled spectrum for accuracy (step a is
	// priced for the unpadded transform of the paper).
	dft := fourier.NewVolumeDFTPadded(ds.Truth, 2)

	table := &TimingTable{Spec: spec, P: p}
	orients := ds.PerturbedOrientations(spec.InitError, spec.Seed+2)
	images := ds.Images()

	for _, lv := range core.DefaultSchedule() {
		cfg := core.DefaultConfig(spec.L)
		cfg.Schedule = []core.Level{lv}
		// Tables 1–2 price the paper's exhaustive window scan; the
		// adaptive search would deflate MeanMatchings and with it every
		// extrapolated refinement time.
		cfg.Search = core.SearchExhaustive
		r, err := core.NewRefiner(dft, cfg)
		if err != nil {
			return nil, err
		}
		results, err := r.RefineStream(context.Background(), len(images),
			core.SliceSource(images, nil, orients), core.StreamOptions{})
		if err != nil {
			return nil, err
		}
		row := TimingRow{
			RAngular:    lv.RAngular,
			SearchRange: 2*int(math.Round(lv.WindowHalf/lv.RAngular)) + 1,
			DFT3D:       dft3dSecs,
		}
		row.ReadImages, row.FFTAnalysis, row.Refinement = priceOnCluster(cluster.New(p, cluster.SP2), spec.L, cfg, results)
		row.Total = row.DFT3D + row.ReadImages + row.FFTAnalysis + row.Refinement
		for i, res := range results {
			orients[i] = res.Orient
		}
		sum := core.Summarize(results, 0, cfg.MaxSlides)
		row.MeanMatchings = float64(sum.Matchings) / float64(sum.Views)
		row.SlideViews = sum.SlideViews
		if row.Total > 0 {
			row.RefinementShare = row.Refinement / row.Total
		}
		table.Rows = append(table.Rows, row)

		table.PaperRows = append(table.PaperRows,
			paperScaleRow(spec, p, lv, row))
	}
	table.ReconSecs = paperReconSecs(spec, p)
	return table.validate()
}

// priceOnCluster charges one refinement pass (steps b–o) to the
// simulated cluster and returns the makespans of steps b–c (read and
// scatter), d–e (view FFT and CTF) and f–n (refinement). The master
// reads every view and scatters view q to rank q mod P; each node
// transforms its views, synchronizes, charges every level's matchings
// and centre evaluations from the views' PerLevel statistics with a
// barrier per level (step m), and the results are gathered on the
// master (step o). Matchings are charged at the paper's full-disc band,
// not the half band the matcher compares. The ledger cl must be fresh.
func priceOnCluster(cl *cluster.Cluster, l int, cfg core.Config, results []core.Result) (read, fft, refine float64) {
	m, p := len(results), cl.P
	band := core.BandSize(l, cfg)
	viewBytes := l * l * bytesPerPixel
	levelNames := make([]string, len(cfg.Schedule))
	for li := range levelNames {
		levelNames[li] = fmt.Sprintf("refine L%d", li)
	}
	owned := make([]int, p) // views per rank
	for q := 0; q < m; q++ {
		owned[q%p]++
	}
	// Each rank's spans telescope from mark, its last span end.
	mark := make([]float64, p)
	stage := func(name string) {
		for r := range mark {
			now := cl.Clock(r)
			obs.Span(r, 0, name, "refine", mark[r], now)
			mark[r] = now
		}
	}

	cl.Sleep(0, float64(m*viewBytes)/diskBytesPerSec)
	cl.Scatter(0, func(r int) int { return owned[r] * viewBytes })
	read = cl.MaxElapsed()
	stage("b-c read+scatter")

	for q := 0; q < m; q++ {
		r := q % p
		cl.Compute(r, core.EstimateViewFFTFlops(l))
		if cfg.CorrectCTF {
			cl.Compute(r, 20*float64(l*l))
		}
		sp := obs.StartSpan(r, 0, "fft", "refine", mark[r])
		sp.SetArg("view", int64(q))
		mark[r] = cl.Clock(r)
		sp.End(mark[r])
	}
	cl.Barrier()
	fft = cl.MaxElapsed() - read
	stage("post-fft barrier")

	for li := range cfg.Schedule {
		for q := 0; q < m; q++ {
			r := q % p
			st := results[q].PerLevel[li]
			cl.Compute(r, float64(st.Matchings)*core.EstimateMatchFlops(band))
			cl.Compute(r, float64(st.CenterEvals)*15*float64(band))
			sp := obs.StartSpan(r, 0, levelNames[li], "refine", mark[r])
			sp.SetArg("view", int64(q))
			sp.SetArg("matchings", int64(st.Matchings))
			mark[r] = cl.Clock(r)
			sp.End(mark[r])
			if st.Slides > 0 {
				obs.Instant(r, 0, "slide", "refine", mark[r], [2]obs.Arg{
					{Key: "view", Value: int64(q)},
					{Key: "count", Value: int64(st.Slides)},
				})
			}
		}
		cl.Barrier()
		stage("level barrier")
	}
	refine = cl.MaxElapsed() - (read + fft)

	cl.Gather(0, func(r int) int { return owned[r] * 64 })
	stage("gather")
	return read, fft, refine
}

// PriceBrickPaging prices the design alternative §6 of the paper
// discusses and rejects: instead of replicating the spectrum on every
// node, "implement a shared virtual memory where 3D bricks of the
// electron density or its DFT are brought on demand in each node when
// they are needed" (the strategy of the paper's ref. [6]). One node
// extracts the trilinear central section of dft at every orientation
// out to rmax, as VolumeDFT.ExtractSlice does, and reads each
// non-zero-weight corner through an LRU cache of capacity bricks of
// edge³ lattice points (an edge beyond the lattice is clamped to it).
// Each miss costs one modeled message of a whole brick; secs is their
// sum. Only the corners' lattice indices and their order matter, so no
// spectrum value is read.
func PriceBrickPaging(dft *fourier.VolumeDFT, orients []geom.Euler, rmax float64, edge, capacity int, model cluster.CostModel) (secs float64, hits, misses int, err error) {
	if edge < 2 {
		return 0, 0, 0, fmt.Errorf("workload: brick edge must be ≥ 2, got %d", edge)
	}
	if capacity < 1 {
		return 0, 0, 0, fmt.Errorf("workload: brick cache capacity must be ≥ 1, got %d", capacity)
	}
	l := dft.L
	edge = min(edge, l)
	nb := (l + edge - 1) / edge
	fetch := model.MessageTime(edge * edge * edge * 16)
	// brick is the brick index of lattice coordinate i, wrapped.
	brick := func(i int) int { return (i%l + l) % l / edge }
	lru := make([]int, 0, capacity) // brick IDs, most recent first
	touch := func(x, y, z int) {
		id := (brick(x)*nb+brick(y))*nb + brick(z)
		if j := slices.Index(lru, id); j >= 0 {
			hits++
			copy(lru[1:j+1], lru[:j])
			lru[0] = id
			return
		}
		misses++
		secs += fetch
		if len(lru) < capacity {
			lru = append(lru, 0)
		}
		copy(lru[1:], lru)
		lru[0] = id
	}
	// A cell's upper corner on an axis has weight f, its lower one
	// 1 − f, which is never zero for f ∈ [0, 1).
	upper := func(f float64) int {
		if f == 0 {
			return 0
		}
		return 1
	}

	pad, ny := float64(dft.Pad()), float64(l)/2
	rmax = math.Min(rmax, float64(dft.SrcL)/2)
	ri := int(rmax)
	r2 := rmax * rmax
	for _, o := range orients {
		m := o.Matrix()
		xAxis, yAxis := m.Col(0), m.Col(1)
		for h := -ri; h <= ri; h++ {
			fh := float64(h)
			for k := -ri; k <= ri; k++ {
				fk := float64(k)
				if fh*fh+fk*fk > r2 {
					continue
				}
				f := xAxis.Scale(fh).Add(yAxis.Scale(fk)).Scale(pad)
				if f.X < -ny || f.X > ny || f.Y < -ny || f.Y > ny || f.Z < -ny || f.Z > ny {
					continue
				}
				x0, y0, z0 := math.Floor(f.X), math.Floor(f.Y), math.Floor(f.Z)
				for dx := 0; dx <= upper(f.X-x0); dx++ {
					for dy := 0; dy <= upper(f.Y-y0); dy++ {
						for dz := 0; dz <= upper(f.Z-z0); dz++ {
							touch(int(x0)+dx, int(y0)+dy, int(z0)+dz)
						}
					}
				}
			}
		}
	}
	return secs, hits, misses, nil
}

// paperScaleRow prices one pass at the paper's dataset dimensions: the
// measured matchings per view are kept, but the per-matching cost uses
// the paper-size comparison band, the view FFTs use the paper box, and
// I/O uses the paper file sizes.
func paperScaleRow(spec DatasetSpec, p int, lv core.Level, measured TimingRow) TimingRow {
	pl := spec.PaperL
	pm := float64(spec.PaperViews)
	perNode := math.Ceil(pm / float64(p))
	cfg := core.Config{RMap: 0.8 * float64(pl) / 2, Schedule: []core.Level{lv}}
	band := float64(core.BandSize(pl, cfg))
	frac := lv.RMapFrac
	if frac == 0 {
		frac = 1
	}
	bandAtLevel := band * frac * frac

	row := TimingRow{
		RAngular:      lv.RAngular,
		SearchRange:   measured.SearchRange,
		MeanMatchings: measured.MeanMatchings,
		SlideViews:    measured.SlideViews,
	}
	row.DFT3D = parfft.ModelTime(cluster.SP2, pl, p,
		float64(8*pl*pl*pl)/diskBytesPerSec)
	row.ReadImages = pm * float64(pl*pl) * bytesPerPixel / diskBytesPerSec
	row.FFTAnalysis = perNode * core.EstimateViewFFTFlops(pl) / cluster.SP2.FlopsPerSec
	row.Refinement = perNode * measured.MeanMatchings *
		core.EstimateMatchFlops(int(bandAtLevel)) / cluster.SP2.FlopsPerSec
	row.Total = row.DFT3D + row.ReadImages + row.FFTAnalysis + row.Refinement
	if row.Total > 0 {
		row.RefinementShare = row.Refinement / row.Total
	}
	return row
}

// paperReconSecs models the paper-scale 3-D reconstruction (step C):
// each view scatters its band coefficients with 8-point spreading,
// plus one 3-D inverse FFT of the map.
func paperReconSecs(spec DatasetSpec, p int) float64 {
	pl := float64(spec.PaperL)
	pm := float64(spec.PaperViews)
	perNode := math.Ceil(pm / float64(p))
	band := math.Pi * (0.8 * pl / 2) * (0.8 * pl / 2)
	insert := perNode * band * 8 * 12 / cluster.SP2.FlopsPerSec
	ifft := 3 * 5 * pl * pl * pl * math.Log2(pl) / cluster.SP2.FlopsPerSec
	return insert + ifft
}

func (t *TimingTable) validate() (*TimingTable, error) {
	if len(t.Rows) == 0 {
		return nil, fmt.Errorf("workload: timing produced no rows")
	}
	return t, nil
}

// CycleBreakdown summarizes the §5 cycle-economics claim at paper
// scale: the refinement time of the finest pass versus the
// reconstruction time.
type CycleBreakdown struct {
	RefinementSecs, ReconstructionSecs float64
	// ReconstructionShare is recon/(recon+refinement over all rows).
	ReconstructionShare float64
}

// Cycle computes the breakdown from a timing table.
func (t *TimingTable) Cycle() CycleBreakdown {
	var refine float64
	for _, r := range t.PaperRows {
		refine += r.Refinement
	}
	cb := CycleBreakdown{RefinementSecs: refine, ReconstructionSecs: t.ReconSecs}
	if total := refine + t.ReconSecs; total > 0 {
		cb.ReconstructionShare = t.ReconSecs / total
	}
	return cb
}
