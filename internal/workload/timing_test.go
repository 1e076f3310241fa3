package workload

import (
	"context"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/phantom"
)

// timedPass refines a small dataset through one exhaustive 1° level on
// RefineStream, exactly as RunTiming does for a table column, and
// returns what priceOnCluster reads.
func timedPass(t *testing.T) (int, core.Config, []core.Result) {
	t.Helper()
	spec := AsymmetricSpec().Scaled(2.5)
	ds := spec.Build()
	cfg := core.DefaultConfig(spec.L)
	cfg.Schedule = core.DefaultSchedule()[:1]
	cfg.Search = core.SearchExhaustive
	r, err := core.NewRefiner(fourier.NewVolumeDFTPadded(ds.Truth, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inits := ds.PerturbedOrientations(spec.InitError, spec.Seed+2)
	res, err := r.RefineStream(context.Background(), len(ds.Views),
		core.SliceSource(ds.Images(), nil, inits), core.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return spec.L, cfg, res
}

// TestPriceOnClusterTimingsBitIdenticalUnderObs: the simulated step
// times must not move when the full instrumentation — counters, spans,
// the event log — records the pricing run, and the trace must carry the
// refinement phases.
func TestPriceOnClusterTimingsBitIdenticalUnderObs(t *testing.T) {
	l, cfg, res := timedPass(t)
	price := func() [3]float64 {
		read, fft, refine := priceOnCluster(cluster.New(3, cluster.SP2), l, cfg, res)
		return [3]float64{read, fft, refine}
	}

	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)
	plain := price()

	obs.SetEnabled(true)
	tr := obs.StartTrace()
	obs.StartEvents(1024)
	inst := price()
	obs.EndTrace()
	obs.StopEvents()

	if plain != inst {
		t.Fatalf("simulated step times differ under instrumentation:\n  plain        %v\n  instrumented %v", plain, inst)
	}
	cats := map[string]int{}
	for _, e := range tr.Events() {
		cats[e.Cat]++
	}
	if cats["refine"] == 0 {
		t.Fatal("trace recorded no refine-phase events")
	}
}

// TestPriceOnClusterMoreNodesFaster: the same pass priced on four nodes
// refines in less simulated time than on one, and — the paper's headline
// observation — matching dominates the FFT analysis.
func TestPriceOnClusterMoreNodesFaster(t *testing.T) {
	l, cfg, res := timedPass(t)
	_, fft1, refine1 := priceOnCluster(cluster.New(1, cluster.SP2), l, cfg, res)
	_, _, refine4 := priceOnCluster(cluster.New(4, cluster.SP2), l, cfg, res)
	if refine4 >= refine1 {
		t.Fatalf("4 nodes (%gs) not faster than 1 (%gs)", refine4, refine1)
	}
	if refine1 < fft1 {
		t.Errorf("refinement (%.3gs) should dominate FFT analysis (%.3gs)", refine1, fft1)
	}
}

// ablationOrients are the 40 orientations BenchmarkAblationReplication
// pages through.
func ablationOrients() []geom.Euler {
	var orients []geom.Euler
	for i := 0; i < 40; i++ {
		orients = append(orients, geom.Euler{Theta: float64(3 * i), Phi: float64(5 * i), Omega: float64(7 * i)})
	}
	return orients
}

// pagingSpectrum is a 2× padded spectrum of a small asymmetric phantom.
func pagingSpectrum(l, blobs int) *fourier.VolumeDFT {
	return fourier.NewVolumeDFTPadded(phantom.Asymmetric(l, blobs, 1), 2)
}

// TestPriceBrickPagingPinned holds the §6 ablation's brick model (l =
// 24, pad 2, edge 8, rmax 9, the benchmark's 40 orientations) to the
// counts and seconds the demand-paged brick client of commit 76c5b70
// produced, bit for bit.
func TestPriceBrickPagingPinned(t *testing.T) {
	dft := pagingSpectrum(24, 8)
	for _, tc := range []struct {
		capacity     int
		hits, misses int
		secsBits     uint64
	}{
		{1, 60918, 17950, 0x400181f969e3cc0e},
		{4, 73823, 5045, 0x3fe3aec9ac86dbc1},
		{8, 76268, 2600, 0x3fd44998d045fdad},
		{64, 78734, 134, 0x3f90bab84d38edd5},
	} {
		secs, hits, misses, err := PriceBrickPaging(dft, ablationOrients(), 9, 8, tc.capacity, cluster.SP2)
		if err != nil {
			t.Fatal(err)
		}
		if hits != tc.hits || misses != tc.misses || math.Float64bits(secs) != tc.secsBits {
			t.Errorf("capacity %d: %d hits, %d misses, %v s; want %d, %d, %v s", tc.capacity,
				hits, misses, secs, tc.hits, tc.misses, math.Float64frombits(tc.secsBits))
		}
	}
}

// TestPriceBrickPagingLRU: a cache that holds every brick serves a
// repeated cut from cache, and a cache of two bricks has evicted the
// cut's first bricks by the time it repeats.
func TestPriceBrickPagingLRU(t *testing.T) {
	dft := pagingSpectrum(16, 6) // 4³ bricks of edge 8
	o := geom.Euler{Theta: 40, Phi: 120, Omega: 30}
	price := func(capacity int, orients ...geom.Euler) (int, int) {
		_, hits, misses, err := PriceBrickPaging(dft, orients, 6, 8, capacity, cluster.SP2)
		if err != nil {
			t.Fatal(err)
		}
		return hits, misses
	}
	hits1, misses1 := price(64, o)
	hits2, misses2 := price(64, o, o)
	if misses2 != misses1 || hits2 != 2*hits1+misses1 {
		t.Fatalf("repeated cut with every brick cached: %d hits, %d misses; want %d, %d",
			hits2, misses2, 2*hits1+misses1, misses1)
	}
	hits1, misses1 = price(2, o)
	hits2, misses2 = price(2, o, o)
	if misses2 <= misses1 {
		t.Fatalf("capacity 2: repeated cut missed %d times, a single cut %d; no eviction", misses2, misses1)
	}
	if hits1 == 0 || hits2 == 0 {
		t.Fatal("capacity 2 recorded no hits")
	}
}

// TestPriceBrickPagingChargesMisses: every miss costs one modeled
// message of a whole brick, so the repeated cut of a full cache adds
// no seconds.
func TestPriceBrickPagingChargesMisses(t *testing.T) {
	dft := pagingSpectrum(16, 6)
	o := geom.Euler{Theta: 30}
	once, _, misses, err := PriceBrickPaging(dft, []geom.Euler{o}, 6, 8, 64, cluster.SP2)
	if err != nil {
		t.Fatal(err)
	}
	twice, _, _, err := PriceBrickPaging(dft, []geom.Euler{o, o}, 6, 8, 64, cluster.SP2)
	if err != nil {
		t.Fatal(err)
	}
	if once <= 0 {
		t.Fatal("brick misses charged no simulated time")
	}
	if twice != once {
		t.Errorf("cached cut charged communication time: %g s then %g s", once, twice)
	}
	if want := float64(misses) * cluster.SP2.MessageTime(8*8*8*16); math.Abs(once-want) > 1e-12*want {
		t.Fatalf("%d misses charged %g s, want %g", misses, once, want)
	}
}

// TestPriceBrickPagingReplicationWins is the paper's §6 design choice,
// priced: many windowed matchings against a replicated spectrum (one
// all-gather up front) beat demand-paged bricks with a small cache.
func TestPriceBrickPagingReplicationWins(t *testing.T) {
	dft := pagingSpectrum(24, 6)
	var orients []geom.Euler
	for i := 0; i < 30; i++ {
		orients = append(orients, geom.Euler{Theta: float64(i), Phi: float64(2 * i), Omega: float64(3 * i)})
	}
	// Replicated: the all-gather of the full L³ spectrum, as the paper's
	// nodes hold it (this process stores only its half).
	repl := cluster.SP2.MessageTime(dft.L * dft.L * dft.L * 16)
	onDemand, _, _, err := PriceBrickPaging(dft, orients, 9, 8, 4, cluster.SP2)
	if err != nil {
		t.Fatal(err)
	}
	if onDemand <= repl {
		t.Fatalf("on-demand bricks (%.4gs) beat replication (%.4gs) — cost model inverted?", onDemand, repl)
	}
}

// TestPriceBrickPagingValidation: an edge below 2 and an empty cache
// are errors; an edge beyond the lattice is clamped to one brick of the
// whole lattice, fetched once.
func TestPriceBrickPagingValidation(t *testing.T) {
	dft := pagingSpectrum(16, 6)
	orients := []geom.Euler{{Theta: 30}}
	if _, _, _, err := PriceBrickPaging(dft, orients, 6, 1, 4, cluster.SP2); err == nil {
		t.Fatal("edge 1 accepted")
	}
	if _, _, _, err := PriceBrickPaging(dft, orients, 6, 8, 0, cluster.SP2); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	secs, _, misses, err := PriceBrickPaging(dft, orients, 6, 1000, 1, cluster.SP2)
	if err != nil {
		t.Fatal(err)
	}
	if want := cluster.SP2.MessageTime(dft.L * dft.L * dft.L * 16); misses != 1 || secs != want {
		t.Fatalf("oversized edge: %d misses, %g s; want 1 miss of the whole lattice, %g s", misses, secs, want)
	}
}
