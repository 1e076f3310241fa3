// Package cluster prices programs on the distributed-memory parallel
// machine the paper ran on (a 64-node IBM SP2 programmed with MPI). It
// is a ledger, not an executor: a Cluster holds one simulated clock per
// rank, and a caller charges it the computation and communication its
// algorithm would perform, phase by phase in rank order, through an
// analytic LogP-style cost model. Nothing runs on the simulated nodes
// and no data moves; the ledger only adds up what the moves would cost.
//
// The simulated clock is what reproduces the *shape* of the paper's
// Tables 1 and 2 on modern hardware: wall-clock time of the host
// machine is irrelevant; the reported seconds come from the cost
// model. Because every charge is a sequential float operation in a
// fixed order, a priced program reports the same bits on every run and
// every host.
package cluster

import "fmt"

// CostModel describes the communication and computation speed of the
// simulated machine.
type CostModel struct {
	// LatencySec is the fixed per-message cost in seconds.
	LatencySec float64
	// BytesPerSec is the link bandwidth.
	BytesPerSec float64
	// FlopsPerSec is the per-node computation rate used by
	// Cluster.Compute.
	FlopsPerSec float64
}

// SP2 approximates one processor of a late-1990s IBM SP2 node: ~40 µs
// MPI latency, ~100 MB/s link bandwidth, ~200 Mflop/s sustained.
var SP2 = CostModel{LatencySec: 40e-6, BytesPerSec: 100e6, FlopsPerSec: 200e6}

// MessageTime returns the modeled time to move n bytes point-to-point.
func (m CostModel) MessageTime(bytes int) float64 {
	return m.LatencySec + float64(bytes)/m.BytesPerSec
}

// Cluster is the ledger of P simulated nodes: per-rank clocks, the
// share of each clock spent communicating, and the traffic each rank
// sent. Create one with New; every clock starts at zero.
type Cluster struct {
	P     int
	Model CostModel

	clock []float64 // simulated seconds since New
	comm  []float64 // portion of clock spent communicating
	sent  []int64   // bytes sent
	msgs  []int64   // messages sent
}

// New creates a ledger of p nodes with the given cost model.
func New(p int, model CostModel) *Cluster {
	if p < 1 {
		panic(fmt.Sprintf("cluster: invalid node count %d", p))
	}
	return &Cluster{
		P: p, Model: model,
		clock: make([]float64, p), comm: make([]float64, p),
		sent: make([]int64, p), msgs: make([]int64, p),
	}
}

// Stats summarizes one node's simulated execution.
type Stats struct {
	Rank        int
	Elapsed     float64 // total simulated seconds
	CommTime    float64 // simulated seconds in communication
	ComputeTime float64 // Elapsed − CommTime
	BytesSent   int64
	Messages    int64
}

// Stats returns every rank's summary, indexed by rank.
func (c *Cluster) Stats() []Stats {
	stats := make([]Stats, c.P)
	for r := range stats {
		stats[r] = Stats{
			Rank:        r,
			Elapsed:     c.clock[r],
			CommTime:    c.comm[r],
			ComputeTime: c.clock[r] - c.comm[r],
			BytesSent:   c.sent[r],
			Messages:    c.msgs[r],
		}
	}
	return stats
}

// MaxElapsed returns the simulated makespan: the latest rank clock.
func (c *Cluster) MaxElapsed() float64 {
	m := 0.0
	for _, t := range c.clock {
		m = max(m, t)
	}
	return m
}

// Clock returns the rank's current simulated time in seconds.
func (c *Cluster) Clock(rank int) float64 { return c.clock[rank] }

// Compute advances the rank's clock by the time the modeled CPU needs
// for the given number of floating-point operations.
func (c *Cluster) Compute(rank int, flops float64) {
	c.clock[rank] += flops / c.Model.FlopsPerSec
}

// Sleep advances the rank's clock by the given simulated seconds
// (e.g. modeled disk I/O time).
func (c *Cluster) Sleep(rank int, sec float64) { c.clock[rank] += sec }
