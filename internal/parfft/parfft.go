// Package parfft prices the paper's parallel 3-D Discrete Fourier
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
// Nothing is transformed here: Price charges each stage's messages and
// FLOPs to a cluster ledger, and ModelTime is the same cost in closed
// form. The spectrum the pipeline matches against comes from
// fourier.NewVolumeDFTPadded; Tables 1 and 2 need only what computing
// it on 16 SP2 nodes would have cost.
package parfft

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/obs"
)

const bytesPerComplex = 16

// partition splits n items into p contiguous ranges as evenly as
// possible; range i is [starts[i], starts[i+1]).
func partition(n, p int) []int {
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

// Price charges step a for an l³ map to the ledger c, stage by stage
// in rank order, and returns the ledger's makespan in simulated seconds
// (the "3D DFT" rows of Tables 1 and 2). Rank 0 is the master;
// readSecs models the time it spends reading the map from disk (a.1)
// and may be zero. The map is cut into z-slabs of partition(l, P), so
// when P does not divide l the slabs are uneven; the a.2 and a.4
// messages are then still sized by rank 0's slab, the smallest one
// (DESIGN §8 says why that stays).
//
// Each rank's six stage spans (category "parfft") tile its clock: a
// span starts where the previous one ended and ends at the clock after
// the stage, so the last end is the rank's Stats.Elapsed.
func Price(c *cluster.Cluster, l int, readSecs float64) float64 {
	p := c.P
	zs := partition(l, p) // z-slab (and, after a.4, y-slab) boundaries
	slab := func(r int) int { return zs[r+1] - zs[r] }
	mark := make([]float64, p)
	for r := range mark {
		mark[r] = c.Clock(r)
	}
	stage := func(name string) {
		for r := range mark {
			now := c.Clock(r)
			obs.Span(r, 0, name, "parfft", mark[r], now)
			mark[r] = now
		}
	}

	// a.1–a.2: master reads the map and scatters z-slabs.
	c.Sleep(0, readSecs)
	stage("a.1 read")
	slabBytes := slab(0) * l * l * bytesPerComplex
	c.Scatter(0, func(int) int { return slabBytes })
	stage("a.2 scatter")

	// a.3: 2-D FFT along x and y on every owned z-plane.
	for r := 0; r < p; r++ {
		c.Compute(r, float64(slab(r))*2*float64(l)*fftFlops(l))
	}
	stage("a.3 fft2d")

	// a.4: global exchange z-slabs -> y-slabs.
	partBytes := slab(0) * l * slab(0) * bytesPerComplex
	c.AllToAll(func(int) int { return partBytes })
	stage("a.4 exchange")

	// a.5: 1-D FFT along z on the l·ny lines of each y-slab.
	for r := 0; r < p; r++ {
		c.Compute(r, float64(l*slab(r))*fftFlops(l))
	}
	stage("a.5 fftz")

	// a.6: all-gather replicates the full transform everywhere.
	c.AllGather(func(r int) int { return l * slab(r) * l * bytesPerComplex })
	stage("a.6 allgather")
	return c.MaxElapsed()
}

// ModelTime is Price in closed form for a map of size l over p nodes
// with the given cost model: the scatter of l³/p complex words per
// node, per-node 2-D and 1-D FFT flops, the all-to-all exchange, and
// the final all-gather of l³/p words from each of p−1 peers. When p
// divides l it equals Price's makespan on a fresh ledger exactly;
// otherwise it prices even slabs of l/p planes.
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
