package core

import (
	"math/bits"
	"testing"

	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/obs"
)

// TestRefineLevelAllocs holds the matching loop to its allocation
// budget at run time, through its whole call tree. Once a refiner's
// worker scratch is warm, one refineLevel call — either orientation
// search, the centre box, the lattice scoring and batched kernels, and
// every helper below them — allocates only the growth of the Shifts it
// records. It runs every DefaultSchedule level of two views in both
// search modes, with instrumentation on so every counter fires, and
// replays each call from the same view state, so the warm-up call
// reaches every scratch capacity the counted calls need. The two
// per-candidate kernels, distance and centerDistance, are held at 0.
//
// The kernels are called with explicit scratch rather than through the
// refiner's pool: under the race detector sync.Pool drops returned
// items at random, and the pool would allocate fresh scratch.
func TestRefineLevelAllocs(t *testing.T) {
	const l = 24
	dft, ds := testSetup(t, l, 2, micrograph.GenParams{Seed: 5, CenterJitter: 1})
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	for _, mode := range []SearchMode{SearchAdaptive, SearchExhaustive} {
		cfg := DefaultConfig(l)
		cfg.Search = mode
		r, err := NewRefiner(dft, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc := r.m.newScratch()
		var calls, shifts int
		var allocs float64
		for i, v := range ds.Views {
			pv, err := r.PrepareView(v.Image, v.CTF)
			if err != nil {
				t.Fatal(err)
			}
			vd := pv.vd
			vals := append([]complex128(nil), vd.vals...)
			prefixE := append([]float64(nil), vd.prefixE...)
			start := Result{Orient: v.TrueOrient.Add(geom.Euler{Theta: 1.5, Phi: -1, Omega: 0.7})}
			for li, lv := range cfg.Schedule {
				var res Result
				var st LevelStats
				level := func() {
					copy(vd.vals, vals)
					copy(vd.prefixE, prefixE)
					res = start
					rng := newSearchRNG(cfg.SearchSeed, li, start.Orient)
					st = r.refineLevel(vd, &res, lv, sc, &rng, mode)
				}
				got := testing.AllocsPerRun(2, level)
				calls, shifts, allocs = calls+1, shifts+len(st.Shifts), allocs+got
				if want := shiftAllocs(len(st.Shifts)); got != want {
					t.Errorf("%s view %d level %d: refineLevel allocates %v times per call, want %v (the growth of %d recorded shifts)",
						mode, i, li, got, want, len(st.Shifts))
				}
				// The next level starts where this one ended, as in
				// refineViewRange.
				copy(vals, vd.vals)
				copy(prefixE, vd.prefixE)
				start = res
			}

			n := len(r.m.band)
			if a := testing.AllocsPerRun(100, func() { r.m.distance(vd, start.Orient, n, sc) }); a != 0 {
				t.Errorf("%s view %d: distance allocates %v times per call, want 0", mode, i, a)
			}
			r.m.sampleCut(sc.cut[:n], vd.refW, start.Orient)
			g := sc.cross[:n]
			ec := r.m.crossSpectrum(vd, sc.cut[:n], g)
			if a := testing.AllocsPerRun(100, func() { r.m.centerDistance(vd, g, ec, 0.01, -0.01, &sc.ramp) }); a != 0 {
				t.Errorf("%s view %d: centerDistance allocates %v times per call, want 0", mode, i, a)
			}
		}
		t.Logf("%s: %d refineLevel calls recorded %d shifts and allocated %v times", mode, calls, shifts, allocs)
	}
}

// shiftAllocs is what recording n centre shifts costs refineLevel:
// appends into a nil slice allocate at capacities 1, 2 and 4, so 1, 2,
// 3 and 3 times for n = 1…4 (one entry per round, at most
// maxLevelIters rounds).
func shiftAllocs(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(bits.Len(uint(n-1)) + 1)
}
