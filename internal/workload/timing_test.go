package workload

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fourier"
	"repro/internal/obs"
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
