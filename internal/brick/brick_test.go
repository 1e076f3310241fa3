package brick

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/phantom"
)

func testStore(t testing.TB, l, edge int) (*Store, *fourier.VolumeDFT) {
	t.Helper()
	g := phantom.Asymmetric(l, 6, 1)
	dft := fourier.NewVolumeDFTPadded(g, 2)
	s, err := NewStore(dft, edge)
	if err != nil {
		t.Fatal(err)
	}
	return s, dft
}

func TestClientSampleMatchesDirect(t *testing.T) {
	s, dft := testStore(t, 16, 8)
	c, err := NewClient(s, cluster.SP2, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []geom.Vec3{
		{}, {X: 1.5, Y: -2.25, Z: 0.75}, {X: -7, Y: 7, Z: -7}, {X: 3.1, Y: 0.2, Z: -1.9},
	} {
		want := dft.Sample(f, fourier.Trilinear)
		got := c.Sample(f, fourier.Trilinear)
		if cmplx.Abs(got-want) > 1e-12 {
			t.Fatalf("Sample(%v) = %v, want %v", f, got, want)
		}
		wantN := dft.Sample(f, fourier.Nearest)
		gotN := c.Sample(f, fourier.Nearest)
		if cmplx.Abs(gotN-wantN) > 1e-12 {
			t.Fatalf("Nearest Sample(%v) mismatch", f)
		}
	}
}

func TestClientSliceMatchesDirect(t *testing.T) {
	s, dft := testStore(t, 16, 8)
	c, _ := NewClient(s, cluster.SP2, 128)
	o := geom.Euler{Theta: 40, Phi: 120, Omega: 30}
	want := dft.ExtractSlice(o, 6, fourier.Trilinear)
	got := c.ExtractSlice(o, 6, fourier.Trilinear)
	for i := range want.Data {
		if cmplx.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("slice element %d differs", i)
		}
	}
}

func TestCacheHitsAndEviction(t *testing.T) {
	s, _ := testStore(t, 16, 8)
	c, _ := NewClient(s, cluster.SP2, 2)
	f := geom.Vec3{X: 1, Y: 1, Z: 1}
	c.Sample(f, fourier.Nearest)
	missesAfterFirst := c.Misses
	c.Sample(f, fourier.Nearest)
	if c.Misses != missesAfterFirst {
		t.Fatal("second identical sample missed the cache")
	}
	if c.Hits == 0 {
		t.Fatal("no hits recorded")
	}
	// Touch many distinct bricks to force eviction, then the original
	// must miss again.
	for x := -14; x <= 14; x += 7 {
		for y := -14; y <= 14; y += 7 {
			c.Sample(geom.Vec3{X: float64(x) / 2, Y: float64(y) / 2, Z: 3}, fourier.Nearest)
		}
	}
	before := c.Misses
	c.Sample(f, fourier.Nearest)
	if c.Misses == before {
		t.Fatal("LRU eviction did not happen with capacity 2")
	}
	if hr := c.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("hit rate %g out of (0,1)", hr)
	}
}

func TestMissChargesSimulatedTime(t *testing.T) {
	s, _ := testStore(t, 16, 8)
	c, _ := NewClient(s, cluster.SP2, 64)
	// Two slices at the same orientation: the second is all hits.
	c.ExtractSlice(geom.Euler{Theta: 30}, 6, fourier.Trilinear)
	afterFirst := c.CommSecs
	c.ExtractSlice(geom.Euler{Theta: 30}, 6, fourier.Trilinear)
	if c.CommSecs != afterFirst {
		t.Error("cached slice charged communication time")
	}
	if c.CommSecs <= 0 {
		t.Fatal("brick misses charged no simulated time")
	}
	if want := float64(c.Misses) * cluster.SP2.MessageTime(s.BrickBytes()); math.Abs(c.CommSecs-want) > 1e-12*want {
		t.Fatalf("%d misses charged %g s, want %g", c.Misses, c.CommSecs, want)
	}
	if hr := c.HitRate(); hr < 0.5 {
		t.Fatalf("hit rate %.2f unexpectedly low for repeated slices", hr)
	}
}

func TestReplicatedVsOnDemandTiming(t *testing.T) {
	// The paper's §6 design choice, measured: many windowed matchings
	// against a replicated spectrum (one all-gather up front) versus
	// demand-paged bricks with a small cache. Replication must win for
	// realistic matching workloads.
	s, dft := testStore(t, 24, 8)
	orients := []geom.Euler{}
	for i := 0; i < 30; i++ {
		orients = append(orients, geom.Euler{Theta: float64(i), Phi: float64(2 * i), Omega: float64(3 * i)})
	}
	model := cluster.SP2

	// Replicated: pay the all-gather of the full spectrum once.
	repl := float64(1) * model.MessageTime(len(dft.Data)*16)

	// On demand with a cache far smaller than the spectrum.
	c, _ := NewClient(s, model, 4)
	for _, o := range orients {
		c.ExtractSlice(o, 9, fourier.Trilinear)
	}
	if c.CommSecs <= repl {
		t.Fatalf("on-demand bricks (%.4gs) beat replication (%.4gs) — cost model inverted?", c.CommSecs, repl)
	}
}

func TestStoreValidation(t *testing.T) {
	_, dft := testStore(t, 16, 8)
	if _, err := NewStore(dft, 1); err == nil {
		t.Fatal("edge 1 accepted")
	}
	s, err := NewStore(dft, 1000) // clamps to lattice size
	if err != nil {
		t.Fatal(err)
	}
	if s.Edge != dft.L {
		t.Fatalf("oversized edge not clamped: %d", s.Edge)
	}
	if _, err := NewClient(s, cluster.SP2, 0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
}
