package cluster

import (
	"testing"
)

// partition mirrors the slab partition of package parfft (kept local to
// avoid an import cycle): n items into p contiguous ranges, range i =
// [zs[i], zs[i+1]).
func partition(n, p int) []int {
	zs := make([]int, p+1)
	for i := 0; i <= p; i++ {
		zs[i] = i * n / p
	}
	return zs
}

// TestAllToAllUnevenPartitions prices the slab DFT's global exchange
// (step a.4) when l is not divisible by P: ranks own slabs of different
// sizes, so each leaves the ring at the latest entry plus P−1 messages
// of its own part size, and bigger slabs leave later.
func TestAllToAllUnevenPartitions(t *testing.T) {
	const l, p = 10, 4 // slabs of 2 or 3 planes
	zs := partition(l, p)
	m := testModel()
	c := New(p, m)
	bytes := make([]int, p)
	for r := range bytes {
		c.Sleep(r, float64(p-r)) // rank 0 enters last, at 4 s
		bytes[r] = 16 * (zs[r+1] - zs[r])
	}
	c.AllToAll(sizes(bytes))
	for _, s := range c.Stats() {
		if want := 4 + float64(p-1)*m.MessageTime(bytes[s.Rank]); s.Elapsed != want {
			t.Errorf("rank %d clock %.17g, want %.17g", s.Rank, s.Elapsed, want)
		}
		if s.BytesSent != int64((p-1)*bytes[s.Rank]) {
			t.Errorf("rank %d sent %d bytes, want %d", s.Rank, s.BytesSent, (p-1)*bytes[s.Rank])
		}
	}
	if c.Clock(0) >= c.Clock(3) {
		t.Fatalf("2-plane rank 0 (%g) does not finish before 3-plane rank 3 (%g)", c.Clock(0), c.Clock(3))
	}
}

// TestAllToAllMorePartsThanItems is the P > l degenerate case: some
// ranks own zero planes and exchange zero-length parts. They still pay
// the ring's P−1 latencies.
func TestAllToAllMorePartsThanItems(t *testing.T) {
	const l, p = 3, 5
	zs := partition(l, p)
	m := testModel()
	c := New(p, m)
	bytes := make([]int, p)
	for r := range bytes {
		bytes[r] = 8 * (zs[r+1] - zs[r])
	}
	c.AllToAll(sizes(bytes))
	for _, s := range c.Stats() {
		if want := float64(p-1) * m.MessageTime(bytes[s.Rank]); s.Elapsed != want {
			t.Errorf("rank %d clock %.17g, want %.17g", s.Rank, s.Elapsed, want)
		}
		if bytes[s.Rank] == 0 && (s.Elapsed != float64(p-1)*m.LatencySec || s.BytesSent != 0 || s.Messages != p-1) {
			t.Errorf("empty rank %d: %+v", s.Rank, s)
		}
	}
}

// TestAllGatherUnevenContributions prices the step a.6 replication
// under uneven slabs: the bytes the ranks send add up to P−1 copies of
// the whole array, and each rank's clock follows its own slice.
func TestAllGatherUnevenContributions(t *testing.T) {
	const l, p = 11, 3
	zs := partition(l, p)
	m := testModel()
	c := New(p, m)
	bytes := make([]int, p)
	for r := range bytes {
		bytes[r] = 8 * (zs[r+1] - zs[r])
	}
	c.AllGather(sizes(bytes))
	var total int64
	for _, s := range c.Stats() {
		total += s.BytesSent
		if want := float64(p-1) * m.MessageTime(bytes[s.Rank]); s.Elapsed != want {
			t.Errorf("rank %d clock %.17g, want %.17g", s.Rank, s.Elapsed, want)
		}
	}
	if total != int64((p-1)*8*l) {
		t.Fatalf("ranks sent %d bytes, want %d", total, (p-1)*8*l)
	}
}

// TestAllToAllAllGatherSingleNode: P = 1 collectives are pure
// self-delivery with no communication rounds charged.
func TestAllToAllAllGatherSingleNode(t *testing.T) {
	c := New(1, testModel())
	c.Sleep(0, 1)
	c.AllToAll(size(8))
	c.AllGather(size(8))
	// Ring algorithms cost P−1 = 0 rounds: no time, no messages.
	if s := c.Stats()[0]; s.Elapsed != 1 || s.CommTime != 0 || s.Messages != 0 || s.BytesSent != 0 {
		t.Fatalf("single-node collectives charged communication: %+v", s)
	}
}

// TestCollectiveTimingSynchronized: after an all-to-all of equal parts,
// every rank's clock is the same analytic value — max entry time plus
// P−1 ring messages.
func TestCollectiveTimingSynchronized(t *testing.T) {
	const p = 4
	m := testModel()
	c := New(p, m)
	for r := 0; r < p; r++ {
		c.Sleep(r, float64(r)) // stagger entry: rank r arrives at r s
	}
	c.AllToAll(size(100))
	want := float64(p-1) + float64(p-1)*m.MessageTime(100)
	for r := 0; r < p; r++ {
		if got := c.Clock(r); got != want {
			t.Fatalf("rank %d clock %.17g, want %.17g", r, got, want)
		}
	}
}

// TestScatterNonZeroRoot: the sequential root-service cost must follow
// rank distance from the root, wrapping modulo P.
func TestScatterNonZeroRoot(t *testing.T) {
	const p, root = 4, 2
	m := testModel()
	c := New(p, m)
	c.Scatter(root, size(64))
	msg := m.MessageTime(64)
	for r := 0; r < p; r++ {
		pos := (r - root + p) % p
		want := float64(pos) * msg
		if pos == 0 {
			want = float64(p-1) * msg // root pays for serving everyone
		}
		if got := c.Clock(r); got != want {
			t.Fatalf("rank %d clock %.17g, want %.17g", r, got, want)
		}
	}
}

// TestAllToAllStatsAccounting: each rank sends P−1 messages of the
// declared size, and the exchanged byte count lands in Stats.
func TestAllToAllStatsAccounting(t *testing.T) {
	const p, bytesEach = 3, 128
	c := New(p, testModel())
	c.AllToAll(size(bytesEach))
	for _, s := range c.Stats() {
		if s.Messages != p-1 {
			t.Errorf("rank %d sent %d messages, want %d", s.Rank, s.Messages, p-1)
		}
		if s.BytesSent != int64(bytesEach)*(p-1) {
			t.Errorf("rank %d sent %d bytes, want %d", s.Rank, s.BytesSent, int64(bytesEach)*(p-1))
		}
		if s.CommTime <= 0 || s.CommTime != s.Elapsed {
			t.Errorf("rank %d comm time %g of %g", s.Rank, s.CommTime, s.Elapsed)
		}
	}
}
