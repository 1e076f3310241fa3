// Package parfft implements the paper's parallel 3-D Discrete Fourier
// Transform (step a of the refinement algorithm) on the simulated
// message-passing cluster:
//
//	a.1  the master node reads all z-slabs of the density map D;
//	a.2  it sends each node a z-slab of l³/P voxels;
//	a.3  each node runs 2-D FFTs along x and y on its z-planes;
//	a.4  a global exchange converts z-slabs to y-slabs;
//	a.5  each node runs 1-D FFTs along z within its y-slab;
//	a.6  an all-gather replicates the full D̂ on every node.
//
// The data genuinely moves between goroutine "nodes"; the simulated
// clock model of package cluster reports what the communication and
// FLOPs would cost on the configured machine.
//
// Execution model. Each node's local work — the a.3 plane transforms,
// the a.4 pack/unpack, the a.5 z-line transforms and the a.6 assembly
// — runs on a real worker pool of GOMAXPROCS/P cores (pool.RunIndexed),
// so host wall time scales with the machine while the simulated clock
// is still charged deterministically: Node.Compute is called with the
// same analytic flop counts, outside the pools, exactly as the serial
// schedule would. Simulated timings are therefore bit-identical for
// any GOMAXPROCS (the same contract as workload's pricing of a
// refinement pass, which charges from the pass's statistics). The a.3
// transforms additionally use the real-input 2-D FFT path — the slab
// planes of a density map are purely real — which roughly halves their
// host-side cost without touching the cost model.
package parfft

import (
	"math"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/fft"
	"repro/internal/fourier"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/volume"
)

const bytesPerComplex = 16

// Result carries the replicated transform and the simulated cost of
// producing it.
type Result struct {
	DFT   *fourier.VolumeDFT
	Stats []cluster.Stats
	// Elapsed is the simulated makespan in seconds (the "3D DFT" rows
	// of Tables 1 and 2).
	Elapsed float64
}

// Partition splits n items into p contiguous ranges as evenly as
// possible; range i is [starts[i], starts[i+1]).
func Partition(n, p int) []int {
	starts := make([]int, p+1)
	for i := 0; i <= p; i++ {
		starts[i] = i * n / p
	}
	return starts
}

// fftFlops is the standard 5·n·log₂n operation-count model for one
// complex FFT of length n.
func fftFlops(n int) float64 {
	if n < 2 {
		return 0
	}
	return 5 * float64(n) * math.Log2(float64(n))
}

// nodeWorkers is each node's share of the real machine: GOMAXPROCS/P
// cores, at least one.
func nodeWorkers(p int) int {
	w := runtime.GOMAXPROCS(0) / p
	if w < 1 {
		w = 1
	}
	return w
}

// Transform3D computes the centred 3-D DFT of g on the cluster,
// returning the replicated spectrum. The master node (rank 0) holds g;
// readSecs models the time it spends reading the map from disk (a.1)
// and may be zero.
func Transform3D(c *cluster.Cluster, g *volume.Grid, readSecs float64) Result {
	l := g.L
	p := c.P
	zs := Partition(l, p) // z-slab boundaries
	results := make([]*volume.CGrid, p)

	stats := c.Run(func(n *cluster.Node) {
		rank := n.Rank
		workers := nodeWorkers(p)

		// Stage spans tile [0, Elapsed] on the simulated clock: mark is
		// carried from each stage boundary to the next, so the spans are
		// contiguous by construction and their last end *is* the node's
		// Stats.Elapsed — the reconciliation tests exploit that.
		mark := n.Clock()
		stage := func(name string) {
			now := n.Clock()
			obs.Span(rank, 0, name, "parfft", mark, now)
			mark = now
		}

		// a.1–a.2: master reads the map and scatters z-slabs.
		var parts []interface{}
		if rank == 0 {
			n.Sleep(readSecs)
			parts = make([]interface{}, p)
			pool.RunIndexedLabeled("parfft.a2.pack", p, workers, func(_, i int) {
				z0, z1 := zs[i], zs[i+1]
				planes := make([][]complex128, 0, z1-z0)
				for z := z0; z < z1; z++ {
					plane := make([]complex128, l*l)
					for x := 0; x < l; x++ {
						for y := 0; y < l; y++ {
							plane[x*l+y] = complex(g.At(x, y, z), 0)
						}
					}
					planes = append(planes, plane)
				}
				parts[i] = planes
			})
		}
		stage("a.1 read")
		slabBytes := (zs[1] - zs[0]) * l * l * bytesPerComplex
		myPlanes := n.Scatter("zslab", 0, parts, slabBytes).([][]complex128)
		stage("a.2 scatter")

		// a.3: 2-D FFT along x and y on every owned z-plane. The planes
		// carry a real density map, so each worker runs the Hermitian
		// real-input path on a private plan; the clock is charged with
		// the same analytic count as before, in one deterministic call.
		type fftScratch struct {
			plan *fft.RealPlan2D
			re   []float64
		}
		w3 := pool.Workers(len(myPlanes), workers)
		scratch := make([]*fftScratch, w3)
		pool.RunIndexedLabeled("parfft.a3.fft2d", len(myPlanes), w3, func(w, i int) {
			sc := scratch[w]
			if sc == nil {
				sc = &fftScratch{plan: fft.NewRealPlan2D(l, l), re: make([]float64, l*l)}
				scratch[w] = sc
			}
			plane := myPlanes[i]
			for j, v := range plane {
				sc.re[j] = real(v)
			}
			sc.plan.Forward(sc.re, plane)
		})
		n.Compute(float64(len(myPlanes)) * 2 * float64(l) * fftFlops(l))
		stage("a.3 fft2d")

		// a.4: global exchange z-slabs -> y-slabs. The part destined
		// for rank j holds, for each owned z, the block of all x and
		// y ∈ Yj. Destination blocks are independent, so packing fans
		// out across the node's cores.
		exParts := make([]interface{}, p)
		pool.RunIndexedLabeled("parfft.a4.pack", p, workers, func(_, j int) {
			y0, y1 := zs[j], zs[j+1]
			ny := y1 - y0
			block := make([]complex128, len(myPlanes)*l*ny)
			idx := 0
			for _, plane := range myPlanes {
				for x := 0; x < l; x++ {
					copy(block[idx:idx+ny], plane[x*l+y0:x*l+y1])
					idx += ny
				}
			}
			exParts[j] = block
		})
		partBytes := (zs[1] - zs[0]) * l * (zs[1] - zs[0]) * bytesPerComplex
		recv := n.AllToAll("exchange", exParts, partBytes)
		stage("a.4 exchange")

		// Assemble the y-slab with z contiguous: (x·ny + yy)·l + z.
		// Source blocks write disjoint z ranges, so unpacking is
		// parallel over sources.
		myY0, myY1 := zs[rank], zs[rank+1]
		myNy := myY1 - myY0
		yslab := make([]complex128, l*myNy*l)
		pool.RunIndexedLabeled("parfft.a4.unpack", p, workers, func(_, src int) {
			block := recv[src].([]complex128)
			idx := 0
			for z := zs[src]; z < zs[src+1]; z++ {
				for x := 0; x < l; x++ {
					for yy := 0; yy < myNy; yy++ {
						yslab[(x*myNy+yy)*l+z] = block[idx]
						idx++
					}
				}
			}
		})

		// a.5: 1-D FFT along z within the y-slab, one private plan per
		// worker (plans share immutable tables through the global
		// cache, so this costs only scratch).
		lines := l * myNy
		w5 := pool.Workers(lines, workers)
		zplans := make([]*fft.Plan, w5)
		pool.RunIndexedLabeled("parfft.a5.fftz", lines, w5, func(w, line int) {
			if zplans[w] == nil {
				zplans[w] = fft.NewPlan(l)
			}
			zplans[w].Forward(yslab[line*l : (line+1)*l])
		})
		n.Compute(float64(lines) * fftFlops(l))
		stage("a.5 fftz")

		// a.6: all-gather replicates the full transform everywhere.
		gathered := n.AllGather("gather", yslab, l*myNy*l*bytesPerComplex)
		full := volume.NewCGrid(l)
		pool.RunIndexedLabeled("parfft.a6.assemble", p, workers, func(_, src int) {
			sl := gathered[src].([]complex128)
			y0 := zs[src]
			ny := zs[src+1] - y0
			for x := 0; x < l; x++ {
				for yy := 0; yy < ny; yy++ {
					copy(full.Data[(x*l+y0+yy)*l:(x*l+y0+yy)*l+l], sl[(x*ny+yy)*l:(x*ny+yy)*l+l])
				}
			}
		})
		results[rank] = full
		stage("a.6 allgather")
	})

	// Convert rank 0's replica to the centred convention used by the
	// rest of the pipeline.
	dft := results[0]
	centred := &fourier.VolumeDFT{L: l, SrcL: l, Data: dft.Data}
	applyRamp(centred)
	return Result{DFT: centred, Stats: stats, Elapsed: cluster.MaxElapsed(stats)}
}

// applyRamp converts an origin-at-0 spectrum to the centred
// convention (multiply coefficient f by exp(+2πi·Σf·(l/2)/l)).
func applyRamp(v *fourier.VolumeDFT) {
	l := v.L
	ramp := make([]complex128, l)
	c := float64(l / 2)
	for i := 0; i < l; i++ {
		f := float64(fft.FreqIndex(i, l))
		angle := 2 * math.Pi * f * c / float64(l)
		ramp[i] = complex(math.Cos(angle), math.Sin(angle))
	}
	pool.RunIndexed(l, 0, func(_, x int) {
		for y := 0; y < l; y++ {
			base := (x*l + y) * l
			rxy := ramp[x] * ramp[y]
			for z := 0; z < l; z++ {
				v.Data[base+z] *= rxy * ramp[z]
			}
		}
	})
}

// ModelTime predicts the simulated seconds for Transform3D on a map of
// size l over p nodes with the given cost model, without running it.
// It mirrors the step costs: scatter of l³/p complex words per node,
// per-node 2-D and 1-D FFT flops, the all-to-all exchange, and the
// final all-gather of l³/p words from each of p−1 peers.
func ModelTime(model cluster.CostModel, l, p int, readSecs float64) float64 {
	n3 := float64(l) * float64(l) * float64(l)
	slabWords := n3 / float64(p)
	t := readSecs
	// Scatter: master sends p−1 slabs sequentially.
	t += float64(p-1) * model.MessageTime(int(slabWords)*bytesPerComplex)
	// 2-D FFTs on l/p planes of l² points: 2·l·fftFlops(l) each.
	t += (float64(l) / float64(p)) * 2 * float64(l) * fftFlops(l) / model.FlopsPerSec
	// Exchange: p−1 messages of slabWords/p words.
	t += float64(p-1) * model.MessageTime(int(slabWords/float64(p))*bytesPerComplex)
	// 1-D FFTs along z: l·(l/p) lines.
	t += float64(l) * (float64(l) / float64(p)) * fftFlops(l) / model.FlopsPerSec
	// All-gather: p−1 messages of slabWords words.
	t += float64(p-1) * model.MessageTime(int(slabWords)*bytesPerComplex)
	return t
}
