package parfft

import (
	"bufio"
	"fmt"
	"os"
	"testing"

	"repro/internal/cluster"
)

func testModel() cluster.CostModel {
	return cluster.CostModel{LatencySec: 1e-5, BytesPerSec: 1e8, FlopsPerSec: 1e8}
}

func TestPartition(t *testing.T) {
	zs := partition(10, 4)
	if zs[0] != 0 || zs[4] != 10 {
		t.Fatalf("partition endpoints wrong: %v", zs)
	}
	for i := 0; i < 4; i++ {
		n := zs[i+1] - zs[i]
		if n < 2 || n > 3 {
			t.Fatalf("uneven partition: %v", zs)
		}
	}
	// More parts than items: all sizes 0 or 1.
	zs = partition(3, 5)
	for i := 0; i < 5; i++ {
		if n := zs[i+1] - zs[i]; n < 0 || n > 1 {
			t.Fatalf("partition %v has bad part size", zs)
		}
	}
}

// TestPriceMatchesExecutor pins Price to the slab-decomposed 3-D FFT
// that step a used to execute on goroutine nodes (Transform3D,
// recorded at commit ad57687 on the SP2 model and removed after it):
// testdata/executor_stats.txt holds that executor's per-rank Stats as
// "l P read rank Elapsed CommTime BytesSent Messages", over l ∈ {8, 16,
// 18, 56} × P ∈ {1, 3, 7, 16} × read ∈ {0, 0.25} — uneven slabs and
// P > l included. Every value must match to the last bit.
func TestPriceMatchesExecutor(t *testing.T) {
	f, err := os.Open("testdata/executor_stats.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type run struct {
		l, p int
		read float64
	}
	want := map[run][]cluster.Stats{}
	var order []run
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var k run
		var s cluster.Stats
		if _, err := fmt.Sscan(sc.Text(), &k.l, &k.p, &k.read, &s.Rank, &s.Elapsed, &s.CommTime, &s.BytesSent, &s.Messages); err != nil {
			t.Fatalf("parsing %q: %v", sc.Text(), err)
		}
		if _, seen := want[k]; !seen {
			order = append(order, k)
		}
		want[k] = append(want[k], s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 32 {
		t.Fatalf("%d recorded runs, want 32", len(order))
	}
	for _, k := range order {
		c := cluster.New(k.p, cluster.SP2)
		makespan := Price(c, k.l, k.read)
		got := c.Stats()
		if len(got) != len(want[k]) {
			t.Fatalf("%+v: %d ranks, recorded %d", k, len(got), len(want[k]))
		}
		var wantSpan float64
		for r, w := range want[k] {
			g := got[r]
			if g.Rank != w.Rank || g.Elapsed != w.Elapsed || g.CommTime != w.CommTime ||
				g.BytesSent != w.BytesSent || g.Messages != w.Messages {
				t.Errorf("%+v rank %d:\n  got  %+v\n  want %+v", k, r, g, w)
			}
			wantSpan = max(wantSpan, w.Elapsed)
		}
		if makespan != wantSpan {
			t.Errorf("%+v: makespan %.17g, recorded %.17g", k, makespan, wantSpan)
		}
	}
}

// TestPriceEqualsModelTimeWhenPDividesL: with even slabs the closed
// form and the ledger make the same float operations in the same order,
// so they agree exactly, not to a tolerance.
func TestPriceEqualsModelTimeWhenPDividesL(t *testing.T) {
	for _, tc := range []struct{ l, p int }{
		{8, 1}, {8, 4}, {16, 16}, {18, 3}, {48, 16}, {56, 7}, {64, 8}, {128, 16}, {221, 13}, {511, 7},
	} {
		for _, model := range []cluster.CostModel{cluster.SP2, testModel()} {
			for _, read := range []float64{0, 0.25} {
				got := Price(cluster.New(tc.p, model), tc.l, read)
				if want := ModelTime(model, tc.l, tc.p, read); got != want {
					t.Errorf("l=%d P=%d read=%g %+v: Price %.17g, ModelTime %.17g",
						tc.l, tc.p, read, model, got, want)
				}
			}
		}
	}
}

func TestTransform3DElapsedPositive(t *testing.T) {
	c := cluster.New(4, testModel())
	elapsed := Price(c, 8, 0.5)
	if elapsed <= 0.5 {
		t.Fatalf("elapsed %g must exceed the modeled read time", elapsed)
	}
	stats := c.Stats()
	if len(stats) != 4 {
		t.Fatalf("stats for %d ranks, want 4", len(stats))
	}
	// Every node must have communicated (scatter + exchange + gather).
	for _, s := range stats {
		if s.CommTime <= 0 {
			t.Errorf("rank %d has zero comm time", s.Rank)
		}
	}
}

func TestModelTimeScaling(t *testing.T) {
	m := cluster.SP2
	// Compute-dominated sizes: more nodes must reduce modeled time.
	t1 := ModelTime(m, 128, 1, 0)
	t4 := ModelTime(m, 128, 4, 0)
	t16 := ModelTime(m, 128, 16, 0)
	if !(t1 > t4 && t4 > t16) {
		t.Fatalf("model time not decreasing with nodes: %g %g %g", t1, t4, t16)
	}
	// Larger maps must cost more.
	if ModelTime(m, 64, 4, 0) >= ModelTime(m, 128, 4, 0) {
		t.Fatal("model time not increasing with map size")
	}
	// Read time passes straight through.
	if d := ModelTime(m, 64, 4, 10) - ModelTime(m, 64, 4, 0); d < 10-1e-9 {
		t.Fatalf("read time not accounted: delta %g", d)
	}
}

// TestTransform3DDeterministic: pricing the same transform on two fresh
// ledgers gives the same per-rank Stats.
func TestTransform3DDeterministic(t *testing.T) {
	a, b := cluster.New(3, testModel()), cluster.New(3, testModel())
	if Price(a, 8, 0) != Price(b, 8, 0) {
		t.Fatal("simulated time not deterministic")
	}
	sa, sb := a.Stats(), b.Stats()
	for r := range sa {
		if sa[r] != sb[r] {
			t.Fatalf("rank %d stats differ: %+v vs %+v", r, sa[r], sb[r])
		}
	}
}
