package cluster

import (
	"math"
	"testing"
)

func testModel() CostModel {
	return CostModel{LatencySec: 1e-5, BytesPerSec: 1e8, FlopsPerSec: 1e8}
}

// size gives every rank the same message size.
func size(bytes int) func(int) int { return func(int) int { return bytes } }

// sizes gives rank r the message size bytes[r].
func sizes(bytes []int) func(int) int { return func(r int) int { return bytes[r] } }

func TestComputeAdvancesClock(t *testing.T) {
	c := New(1, testModel())
	c.Compute(0, 1e8) // exactly one second at 1e8 flop/s
	stats := c.Stats()
	if math.Abs(stats[0].Elapsed-1) > 1e-12 {
		t.Fatalf("elapsed %g, want 1", stats[0].Elapsed)
	}
	if stats[0].ComputeTime != stats[0].Elapsed {
		t.Fatal("compute time not attributed")
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	c := New(4, testModel())
	for r := 0; r < c.P; r++ {
		c.Compute(r, float64(r)*1e8) // rank r works r seconds
	}
	// All clocks meet past the slowest rank (3 s) by two tree rounds.
	want := c.Clock(3) + 2*testModel().LatencySec
	c.Barrier()
	stats := c.Stats()
	for _, s := range stats {
		if s.Elapsed != want {
			t.Fatalf("rank %d elapsed %.17g, want %.17g", s.Rank, s.Elapsed, want)
		}
	}
	// The slow rank's wait is attributed to comm on fast ranks.
	if stats[0].CommTime < 3-1e-9 {
		t.Errorf("rank 0 comm time %g, want ≈3", stats[0].CommTime)
	}
}

// TestAllGather: each rank leaves at the latest entry plus P−1 ring
// messages of its own contribution size, and sends that many bytes.
func TestAllGather(t *testing.T) {
	m := testModel()
	c := New(4, m)
	for r := 0; r < c.P; r++ {
		c.Sleep(r, float64(r))
	}
	bytes := []int{8, 16, 24, 32}
	c.AllGather(sizes(bytes))
	for _, s := range c.Stats() {
		if want := 3 + 3*m.MessageTime(bytes[s.Rank]); s.Elapsed != want {
			t.Errorf("rank %d clock %.17g, want %.17g", s.Rank, s.Elapsed, want)
		}
		if s.BytesSent != int64(3*bytes[s.Rank]) || s.Messages != 3 {
			t.Errorf("rank %d sent %d bytes in %d messages", s.Rank, s.BytesSent, s.Messages)
		}
	}
}

// TestAllToAll: from equal entry clocks, every rank pays the same P−1
// messages, all of it communication.
func TestAllToAll(t *testing.T) {
	m := testModel()
	c := New(3, m)
	c.AllToAll(size(8))
	for _, s := range c.Stats() {
		if want := 2 * m.MessageTime(8); s.Elapsed != want || s.CommTime != want {
			t.Errorf("rank %d: elapsed %g comm %g, want %g", s.Rank, s.Elapsed, s.CommTime, want)
		}
	}
}

// TestScatterGather: the root serves the scatter sequentially, then
// receives the gather sequentially after the latest entry; every other
// rank pays one gather message from its own clock.
func TestScatterGather(t *testing.T) {
	m := testModel()
	c := New(4, m)
	c.Scatter(0, size(8))
	c.Gather(0, size(8))
	msg := m.MessageTime(8)
	for _, s := range c.Stats() {
		want := float64(s.Rank)*msg + msg
		wantMsgs := int64(1)
		if s.Rank == 0 {
			want = 3*msg + 3*msg
			wantMsgs = 3
		}
		if s.Elapsed != want {
			t.Errorf("rank %d clock %.17g, want %.17g", s.Rank, s.Elapsed, want)
		}
		if s.Messages != wantMsgs || s.BytesSent != 8*wantMsgs {
			t.Errorf("rank %d sent %d bytes in %d messages", s.Rank, s.BytesSent, s.Messages)
		}
	}
}

// TestCollectivesInLoop: repeated collectives keep accumulating on the
// same clocks — fifty barriers on three ranks cost fifty two-round
// latencies, all of it communication.
func TestCollectivesInLoop(t *testing.T) {
	m := testModel()
	c := New(3, m)
	want := 0.0
	for i := 0; i < 50; i++ {
		c.Barrier()
		want += 2 * m.LatencySec
		for r := 0; r < c.P; r++ {
			if got := c.Clock(r); got != want {
				t.Fatalf("iteration %d rank %d: clock %.17g, want %.17g", i, r, got, want)
			}
		}
	}
	for _, s := range c.Stats() {
		if s.CommTime != s.Elapsed {
			t.Fatalf("rank %d comm %g of %g", s.Rank, s.CommTime, s.Elapsed)
		}
	}
}

// TestAllRanksRun: the ledger keeps one clock per rank, charges land
// only on the rank named, and Stats reports every rank in rank order.
func TestAllRanksRun(t *testing.T) {
	c := New(8, testModel())
	for r := 0; r < c.P; r++ {
		c.Sleep(r, float64(r+1))
	}
	stats := c.Stats()
	if len(stats) != 8 {
		t.Fatalf("%d ranks reported, want 8", len(stats))
	}
	for r, s := range stats {
		if s.Rank != r || s.Elapsed != float64(r+1) || s.CommTime != 0 {
			t.Fatalf("rank %d stats %+v", r, s)
		}
	}
}

func TestScatterTimingMonotoneInRank(t *testing.T) {
	// The master-distributes model serves ranks sequentially: later
	// ranks wait longer.
	c := New(4, testModel())
	c.Scatter(0, size(1000))
	stats := c.Stats()
	if !(stats[1].Elapsed < stats[2].Elapsed && stats[2].Elapsed < stats[3].Elapsed) {
		t.Fatalf("scatter service times not monotone: %v %v %v",
			stats[1].Elapsed, stats[2].Elapsed, stats[3].Elapsed)
	}
}

func TestMessageTimeModel(t *testing.T) {
	m := CostModel{LatencySec: 2, BytesPerSec: 10}
	if got := m.MessageTime(30); math.Abs(got-5) > 1e-12 {
		t.Fatalf("MessageTime = %g, want 5", got)
	}
}

func TestMaxElapsed(t *testing.T) {
	c := New(3, testModel())
	for r, s := range []float64{1, 7, 3} {
		c.Sleep(r, s)
	}
	if c.MaxElapsed() != 7 {
		t.Fatal("MaxElapsed wrong")
	}
}

// TestSingleNodeCollectives: on one node every collective is free.
func TestSingleNodeCollectives(t *testing.T) {
	c := New(1, testModel())
	c.Barrier()
	c.Scatter(0, size(8))
	c.Gather(0, size(8))
	c.AllToAll(size(8))
	c.AllGather(size(8))
	if s := c.Stats()[0]; s != (Stats{}) {
		t.Fatalf("single-node collectives charged: %+v", s)
	}
}
