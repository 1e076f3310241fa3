package cluster

import "math"

// Collectives. A collective involves every rank: each rank enters it
// at its own clock, and leaves at the latest entry clock plus the
// algorithm's cost, the wait counted as communication. Each takes the
// per-rank message size, bytes(r) for rank r, as an MPI program's ranks
// would each pass their own count. Timing follows standard algorithm
// models: a binomial tree for the barrier (⌈log₂P⌉ rounds), a ring for
// all-gather and all-to-all (P−1 rounds), and sequential root service
// for scatter/gather — consistent with the master-node I/O
// distribution scheme of §3 of the paper ("a master node typically
// reads an entire data file and distributes data segments to the nodes
// as needed").

func logRounds(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p)))
}

// syncTo raises the rank's clock to at least t, attributing the wait
// to communication.
func (c *Cluster) syncTo(rank int, t float64) {
	if t > c.clock[rank] {
		c.comm[rank] += t - c.clock[rank]
		c.clock[rank] = t
	}
}

// send records n messages of the given size sent by the rank.
func (c *Cluster) send(rank, n, bytes int) {
	c.sent[rank] += int64(bytes) * int64(n)
	c.msgs[rank] += int64(n)
}

// Barrier synchronizes every clock to the latest arrival plus a
// ⌈log₂P⌉-round latency cost.
func (c *Cluster) Barrier() {
	t := c.MaxElapsed() + logRounds(c.P)*c.Model.LatencySec
	for r := range c.clock {
		c.syncTo(r, t)
	}
}

// AllGather replicates one contribution from every rank on every rank.
// The ring algorithm costs each rank P−1 messages of its own
// contribution size bytes(r).
func (c *Cluster) AllGather(bytes func(rank int) int) {
	t := c.MaxElapsed()
	for r := range c.clock {
		b := bytes(r)
		c.syncTo(r, t+float64(c.P-1)*c.Model.MessageTime(b))
		c.send(r, c.P-1, b)
	}
}

// AllToAll exchanges a distinct part with every rank, bytes(r) being
// the size of one of rank r's parts. This is the "global exchange" of
// the slab-decomposed 3-D DFT (paper step a.4); its ring costs what
// AllGather's does.
func (c *Cluster) AllToAll(bytes func(rank int) int) { c.AllGather(bytes) }

// Scatter hands one part from the root to every rank. The root serves
// receivers sequentially, so the rank at distance i from the root pays
// i message times of its own part size bytes(r), and the root pays P−1
// of bytes(root) — the master-reads-and-distributes pattern of the
// paper.
func (c *Cluster) Scatter(root int, bytes func(rank int) int) {
	t := c.MaxElapsed()
	for r := range c.clock {
		b := bytes(r)
		pos := (r - root + c.P) % c.P
		if pos == 0 {
			c.syncTo(r, t+float64(c.P-1)*c.Model.MessageTime(b))
			c.send(r, c.P-1, b)
		} else {
			c.syncTo(r, t+float64(pos)*c.Model.MessageTime(b))
		}
	}
}

// Gather collects one contribution from every rank onto the root,
// which receives them sequentially: the root pays P−1 message times of
// bytes(root) after the latest entry, every other rank one message of
// its own bytes(r) from its own clock.
func (c *Cluster) Gather(root int, bytes func(rank int) int) {
	t := c.MaxElapsed()
	for r := range c.clock {
		b := bytes(r)
		if r == root {
			c.syncTo(r, t+float64(c.P-1)*c.Model.MessageTime(b))
			continue
		}
		cost := c.Model.MessageTime(b)
		c.clock[r] += cost
		c.comm[r] += cost
		c.send(r, 1, b)
	}
}
