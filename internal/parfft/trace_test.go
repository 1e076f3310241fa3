package parfft

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// TestStageSpansTileNodeClock: the six stage spans of every node must
// tile [0, Stats.Elapsed] on the simulated clock — contiguous,
// in-order, and ending exactly (same float64) at the node's reported
// elapsed time. The stage marks telescope (each span starts at the
// previous span's end and reads the rank's clock for its own end), so
// this is an exact identity, not a tolerance check.
func TestStageSpansTileNodeClock(t *testing.T) {
	c := cluster.New(4, cluster.SP2)

	tr := obs.StartTrace()
	defer obs.EndTrace()
	Price(c, 16, 0.25)
	obs.EndTrace()

	wantStages := []string{"a.1 read", "a.2 scatter", "a.3 fft2d", "a.4 exchange", "a.5 fftz", "a.6 allgather"}
	perNode := map[int][]obs.Event{}
	for _, e := range tr.Events() {
		if e.Cat != "parfft" {
			t.Fatalf("unexpected event category %q", e.Cat)
		}
		perNode[e.Pid] = append(perNode[e.Pid], e)
	}
	if len(perNode) != c.P {
		t.Fatalf("spans cover %d nodes, want %d", len(perNode), c.P)
	}
	for _, st := range c.Stats() {
		ev := perNode[st.Rank]
		if len(ev) != len(wantStages) {
			t.Fatalf("rank %d: %d spans, want %d", st.Rank, len(ev), len(wantStages))
		}
		cursor := 0.0
		var sum float64
		for i, e := range ev {
			if e.Name != wantStages[i] {
				t.Fatalf("rank %d span %d = %q, want %q", st.Rank, i, e.Name, wantStages[i])
			}
			if e.Start != cursor {
				t.Fatalf("rank %d %q starts at %.17g, previous ended at %.17g (gap/overlap)",
					st.Rank, e.Name, e.Start, cursor)
			}
			if e.End < e.Start {
				t.Fatalf("rank %d %q runs backwards: [%g, %g]", st.Rank, e.Name, e.Start, e.End)
			}
			cursor = e.End
			sum += e.End - e.Start
		}
		if cursor != st.Elapsed {
			t.Fatalf("rank %d spans end at %.17g, cluster reports Elapsed %.17g",
				st.Rank, cursor, st.Elapsed)
		}
		// The telescoping sum equals Elapsed up to float addition order.
		if math.Abs(sum-st.Elapsed) > 1e-12*math.Max(1, st.Elapsed) {
			t.Fatalf("rank %d span durations sum to %.17g, want %.17g", st.Rank, sum, st.Elapsed)
		}
	}
	// Rank 0 pays the modeled read; its a.1 span must say so.
	if got := perNode[0][0].End - perNode[0][0].Start; got != 0.25 {
		t.Fatalf("rank 0 read span = %g s, want 0.25", got)
	}
}

// TestTracingLeavesTimingsIdentical: recording a trace must not change
// the simulated timings — spans only *read* the clock.
func TestTracingLeavesTimingsIdentical(t *testing.T) {
	base := cluster.New(4, cluster.SP2)
	Price(base, 16, 0.1)
	traced := cluster.New(4, cluster.SP2)
	obs.StartTrace()
	Price(traced, 16, 0.1)
	obs.EndTrace()

	bs, ts := base.Stats(), traced.Stats()
	for i := range bs {
		if bs[i] != ts[i] {
			t.Fatalf("rank %d stats changed under tracing:\n  base   %+v\n  traced %+v",
				i, bs[i], ts[i])
		}
	}
}
