package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/geom"
	"repro/internal/micrograph"
	"repro/internal/phantom"
)

// TestAdaptiveMatchesExhaustiveOracleSingleLevel: within one level the
// seeded descent must land within RAngular/2 of the exhaustive window
// argmin on converged views, while spending well under half the
// distance evaluations. The starts are snapped onto the level's
// lattice so both searches see the same candidate grid: the descent
// walks the global RAngular lattice while the exhaustive window is
// anchored at its (otherwise off-lattice) entry orientation.
func TestAdaptiveMatchesExhaustiveOracleSingleLevel(t *testing.T) {
	l := 24
	dft, ds := testSetup(t, l, 5, micrograph.GenParams{Seed: 11})
	cfg := quickConfig(l)
	cfg.Schedule = []Level{{RAngular: 0.5, WindowHalf: 2, CenterDelta: 0.5, CenterHalf: 1}}
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := cfg.Schedule[0].RAngular
	inits := ds.PerturbedOrientations(0.5, 12)
	for i := range inits {
		inits[i] = eulerOfKey(keyOf(inits[i], step), step)
	}
	var adaptiveEvals, exhaustiveEvals int
	for i, v := range ds.Views {
		pv, _ := r.PrepareView(v.Image, v.CTF)
		res := r.RefineView(pv, inits[i])
		ov, _ := r.PrepareView(v.Image, v.CTF)
		oracle := r.ExhaustiveRefine(ov, inits[i])
		if d := geom.AngularDistance(res.Orient, oracle.Orient); d > step/2 {
			t.Errorf("view %d: adaptive %.4g° from exhaustive argmin (> RAngular/2 = %.4g°)",
				i, d, step/2)
		}
		adaptiveEvals += res.TotalMatchings()
		exhaustiveEvals += oracle.TotalMatchings()
	}
	if adaptiveEvals*2 > exhaustiveEvals {
		t.Errorf("adaptive search used %d evals vs exhaustive %d — saved less than half",
			adaptiveEvals, exhaustiveEvals)
	}
}

// smokeFixture is the clean single-view fixture of the trajectory
// tests: an asymmetric phantom, one noise-free centred view, and the
// production configuration over the given schedule.
func smokeFixture(t *testing.T, schedule []Level) (*Refiner, *micrograph.View) {
	t.Helper()
	const l = 32
	truth := phantom.Asymmetric(l, 8, 1)
	truth.SphericalMask(13)
	v := micrograph.Generate(truth, micrograph.GenParams{NumViews: 1, PixelA: 2.5, Seed: 2}).Views[0]
	cfg := DefaultConfig(l)
	cfg.Schedule = schedule
	r, err := NewRefiner(fourier.NewVolumeDFTPadded(truth, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, v
}

// TestAdaptiveSmokePin pins one whole refinement across commits: on
// this fixture the adaptive search spends 664 distance evaluations
// where the exhaustive scan spends 6 861, and ends 0.07511500290980702°
// from the truth. A changed value means the search trajectory changed,
// not noise; a seeded rerun must be identical in every field. (664 was
// derived in PR 22 on parent c861f40; it was 635 before the descent's
// pattern move — a clean converging view pays one failed extension per
// move — with the same end point.)
func TestAdaptiveSmokePin(t *testing.T) {
	r, v := smokeFixture(t, DefaultSchedule())
	init := v.TrueOrient.Add(geom.Euler{Theta: 1.5, Phi: -1, Omega: 0.7})
	refine := func(search func(*View, geom.Euler) Result) Result {
		// Fresh view state per run: refinement bakes centre shifts
		// into the band.
		pv, err := r.PrepareView(v.Image, v.CTF)
		if err != nil {
			t.Fatal(err)
		}
		return search(pv, init)
	}
	res := refine(r.RefineView)
	if again := refine(r.RefineView); !reflect.DeepEqual(res, again) {
		t.Error("seeded adaptive rerun is not identical")
	}
	if got, want := res.TotalMatchings(), 664; got != want {
		t.Errorf("adaptive search: %d distance evaluations, want %d", got, want)
	}
	oracle := refine(r.ExhaustiveRefine)
	if got, want := oracle.TotalMatchings(), 6861; got != want {
		t.Errorf("exhaustive scan: %d distance evaluations, want %d", got, want)
	}
	if got, want := geom.AngularDistance(res.Orient, v.TrueOrient), 0.07511500290980702; got != want {
		t.Errorf("final error %.17g°, want %.17g°", got, want)
	}
	t.Logf("adaptive %d vs exhaustive %d evaluations, final error %.17g°",
		res.TotalMatchings(), oracle.TotalMatchings(), geom.AngularDistance(res.Orient, v.TrueOrient))
}

// TestAdaptiveMatchesExhaustiveOracleSchedule: across the full
// multi-level schedule the two searches may settle in different
// near-equal fine-scale minima (their candidate grids differ once the
// level windows recenter), so the invariant is quality parity, not
// argmin identity: per view, the adaptive result must either be within
// one final-level cell of the exhaustive argmin or match it on final
// error against ground truth — and must spend under half the evals.
func TestAdaptiveMatchesExhaustiveOracleSchedule(t *testing.T) {
	l := 24
	dft, ds := testSetup(t, l, 5, micrograph.GenParams{Seed: 11})
	cfg := quickConfig(l)
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	finalStep := cfg.Schedule[len(cfg.Schedule)-1].RAngular
	inits := ds.PerturbedOrientations(0.5, 12)
	var adaptiveEvals, exhaustiveEvals int
	for i, v := range ds.Views {
		pv, _ := r.PrepareView(v.Image, v.CTF)
		res := r.RefineView(pv, inits[i])
		ov, _ := r.PrepareView(v.Image, v.CTF)
		oracle := r.ExhaustiveRefine(ov, inits[i])
		gap := geom.AngularDistance(res.Orient, oracle.Orient)
		errA := geom.AngularDistance(res.Orient, v.TrueOrient)
		errE := geom.AngularDistance(oracle.Orient, v.TrueOrient)
		if gap > finalStep && errA > 1.10*errE+0.05 {
			t.Errorf("view %d: adaptive %.4g° from exhaustive argmin with final error %.4g° vs %.4g°",
				i, gap, errA, errE)
		}
		adaptiveEvals += res.TotalMatchings()
		exhaustiveEvals += oracle.TotalMatchings()
	}
	if adaptiveEvals*2 > exhaustiveEvals {
		t.Errorf("adaptive search used %d evals vs exhaustive %d — saved less than half",
			adaptiveEvals, exhaustiveEvals)
	}
}

// TestAdaptiveDeterministicAcrossWorkers: the adaptive path must be
// bit-identical between the serial entry point and batch runs at any
// worker count — the probe streams depend only on (seed, level, entry
// orientation), never on scheduling.
func TestAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	l := 20
	dft, ds := testSetup(t, l, 6, micrograph.GenParams{Seed: 21})
	cfg := quickConfig(l)
	cfg.SearchSeed = 77
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inits := ds.PerturbedOrientations(2, 22)

	var serial []Result
	for i, v := range ds.Views {
		pv, _ := r.PrepareView(v.Image, v.CTF)
		serial = append(serial, r.RefineView(pv, inits[i]))
	}
	src := SliceSource(ds.Images(), ds.CTFs(), inits)
	for _, workers := range []int{1, 2, 8} {
		res, err := r.RefineStream(context.Background(), len(inits), src, StreamOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, res) {
			t.Fatalf("workers=%d: stream results differ from serial RefineView", workers)
		}
	}
}

// TestAdaptiveSeedChangesProbes: different SearchSeeds must actually
// produce different probe streams (the descent is genuinely seeded,
// not ignoring the seed), while each seed remains self-consistent.
func TestAdaptiveSeedChangesProbes(t *testing.T) {
	rngA := newSearchRNG(1, 0, geom.Euler{Theta: 10, Phi: 20, Omega: 30})
	rngB := newSearchRNG(2, 0, geom.Euler{Theta: 10, Phi: 20, Omega: 30})
	rngC := newSearchRNG(1, 0, geom.Euler{Theta: 10, Phi: 20, Omega: 30})
	differ := false
	for i := 0; i < 16; i++ {
		a, b, c := rngA.offset(4), rngB.offset(4), rngC.offset(4)
		if a != b {
			differ = true
		}
		if a != c {
			t.Fatal("identical seeds produced different streams")
		}
		if a < -4 || a > 4 {
			t.Fatalf("offset %d outside [-4, 4]", a)
		}
	}
	if !differ {
		t.Error("seeds 1 and 2 produced identical 16-draw streams")
	}
}

// TestAdaptiveResumeFromJournaledCheckpoint: an adaptive refinement
// interrupted mid-schedule and resumed from a JSON round-trip of its
// checkpoint (exactly what the serve journal stores) must finish
// bit-identically to the uninterrupted run. The probe streams reseed
// per level from the journaled entry orientation, so the resumed
// levels replay the identical descents.
func TestAdaptiveResumeFromJournaledCheckpoint(t *testing.T) {
	l := 20
	dft, ds := testSetup(t, l, 4, micrograph.GenParams{Seed: 31, CenterJitter: 1})
	cfg := quickConfig(l)
	cfg.SearchSeed = 5
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perturb := geom.Euler{Theta: 1.2, Phi: -0.8, Omega: 0.5}
	n, src := datasetSource(ds, perturb)
	ctx := context.Background()
	opt := StreamOptions{Workers: 2}

	want, err := r.RefineStream(ctx, n, src, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint after level 0, round-trip through JSON (the journal's
	// storage format), resume the rest of the schedule.
	priors := make([]Result, n)
	for i := 0; i < n; i++ {
		it, _ := src(i)
		priors[i] = Result{Orient: it.Init}
	}
	priors, err = r.RefineStreamLevels(ctx, n, src, priors, 0, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(priors)
	if err != nil {
		t.Fatal(err)
	}
	var restored []Result
	if err := json.Unmarshal(blob, &restored); err != nil {
		t.Fatal(err)
	}
	got, err := r.RefineStreamLevels(ctx, n, src, restored, 1, len(cfg.Schedule), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("view %d: uninterrupted %+v vs resumed %+v", i, want[i], got[i])
			}
		}
		t.Fatal("journaled resume diverged from uninterrupted adaptive run")
	}
}

// TestAdaptiveVirtualWindowSlides: a start far outside the level
// window must still be recovered via virtual-window slides, and the
// slides must be recorded just like the flat scan's.
func TestAdaptiveVirtualWindowSlides(t *testing.T) {
	l := 24
	dft, ds := testSetup(t, l, 1, micrograph.GenParams{Seed: 41})
	cfg := quickConfig(l)
	cfg.Schedule = []Level{{RAngular: 1, WindowHalf: 3, CenterDelta: 1, CenterHalf: 1}}
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := ds.Views[0]
	pv, _ := r.PrepareView(v.Image, v.CTF)
	init := v.TrueOrient.Add(geom.Euler{Theta: 5, Phi: -6, Omega: 5})
	res := r.RefineView(pv, init)
	if res.PerLevel[0].Slides == 0 {
		t.Error("expected virtual-window slides from a far-off start")
	}
	after := geom.AngularDistance(res.Orient, v.TrueOrient)
	if after > 1.5 {
		t.Errorf("far-off start not recovered: %.3g° residual", after)
	}
}

// TestDescentPatternMoveReachesDistantMinimum: at the 0.01° level alone,
// from starts 0.47–1.0° off (12–25 window half-widths), the descent
// must arrive — all three starts on the same converged lattice cell —
// because its neighbourhood ran dry, not because the slide budget ran
// out. One cell per round cannot: without the pattern move the three
// starts spend 672 / 616 / 665 evaluations, two of them end at the
// slide cap, and they stop 0.131° / 0.038° / 0.450° from the truth.
func TestDescentPatternMoveReachesDistantMinimum(t *testing.T) {
	r, v := smokeFixture(t, []Level{{RAngular: 0.01, WindowHalf: 0.04}})
	var cells []orientKey
	for _, off := range []geom.Euler{
		{Theta: 0.6},
		{Theta: 0.3, Phi: -0.3, Omega: 0.2},
		{Omega: 1.0},
	} {
		pv, err := r.PrepareView(v.Image, v.CTF)
		if err != nil {
			t.Fatal(err)
		}
		res := r.RefineView(pv, v.TrueOrient.Add(off))
		st := res.PerLevel[0]
		t.Logf("start +%v: %d evaluations, %d slides, %d moves, %.4g° from truth",
			off, st.Matchings, st.Slides, st.DescentMoves, geom.AngularDistance(res.Orient, v.TrueOrient))
		if st.Slides >= r.cfg.MaxSlides {
			t.Errorf("start +%v: level ended at the slide cap (%d slides)", off, st.Slides)
		}
		if st.Matchings > 450 {
			t.Errorf("start +%v: %d evaluations, want ≤ 450", off, st.Matchings)
		}
		cells = append(cells, keyOf(res.Orient, 0.01))
	}
	if cells[0] != cells[1] || cells[0] != cells[2] {
		t.Errorf("starts converged to different lattice cells: %v", cells)
	}
}

// TestSearchConfigValidate: unknown search modes are rejected up front.
func TestSearchConfigValidate(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.Search = "simulated-annealing"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown search mode accepted")
	}
	for _, mode := range []SearchMode{"", SearchExhaustive, SearchAdaptive} {
		cfg = DefaultConfig(16)
		cfg.Search = mode
		if err := cfg.Validate(); err != nil {
			t.Errorf("mode %q rejected: %v", mode, err)
		}
	}
}

// adaptiveRunHash streams the adaptive refinement of m distinct views
// one schedule level at a time (the serving layer's shape) and hashes
// the float64 bits of everything a journal or a map depends on:
// orientation, centre, distance, and per level the matchings, slides,
// descent moves and shift increments.
func adaptiveRunHash(t *testing.T, m int, withCTF bool) string {
	t.Helper()
	l := 20
	dft, ds := testSetup(t, l, m, micrograph.GenParams{Seed: 61, CenterJitter: 1, ApplyCTF: withCTF, DefocusGroups: 2})
	cfg := quickConfig(l)
	cfg.SearchSeed = 15
	if withCTF {
		cfg.CorrectCTF = true
		cfg.CTFMode = ctf.PhaseFlip
		cfg.CTFWeightCuts = true
	}
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, src := datasetSource(ds, geom.Euler{Theta: 1.2, Phi: -0.8, Omega: 0.5})
	res := make([]Result, n)
	for i := range res {
		it, _ := src(i)
		res[i] = Result{Orient: it.Init}
	}
	opt := StreamOptions{Workers: 2}
	for li := range cfg.Schedule {
		if res, err = r.RefineStreamLevels(context.Background(), n, src, res, li, li+1, opt); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	var b [8]byte
	f := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, rs := range res {
		f(rs.Orient.Theta, rs.Orient.Phi, rs.Orient.Omega, rs.Center[0], rs.Center[1], rs.Distance)
		for _, st := range rs.PerLevel {
			f(float64(st.Matchings), float64(st.Slides), float64(st.DescentMoves))
			for _, s := range st.Shifts {
				f(s[0], s[1])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAdaptiveBitIdenticalToParent pins the adaptive search's whole
// output on 8 views, once unweighted and once with CTF-weighted cuts,
// so a change that means to leave the trajectory alone can show it did.
// The hashes were last re-derived on parent 6bc0b2e, when centre
// distances moved to the cross-spectrum and separable phase-ramp tables:
// every centre distance and baked shift rounds differently (≤ 1e-13
// relative), so the hashed float64 bits move while the search counts
// do not. Before that they were a75f2b8c…c8f4 and e883ed85…0699, from
// the descent's pattern move (derived on c861f40), and before that
// 9f43b51a…5d44 and 1bdd3ccf…9659, recorded at 62135f7.
func TestAdaptiveBitIdenticalToParent(t *testing.T) {
	for _, c := range []struct {
		name    string
		withCTF bool
		golden  string
	}{
		{"unweighted", false, "c488e04a5432fa2f608c2d5d217c544605216049b483a956f8eb456e696bdf4e"},
		{"ctf-weighted", true, "b522d3314efd28878ad3b203b3435036b9e9d32ad83a1c12c08314946947e45a"},
	} {
		if got := adaptiveRunHash(t, 8, c.withCTF); got != c.golden {
			t.Errorf("%s: adaptive run hash %s, want %s", c.name, got, c.golden)
		}
	}
}

// TestAdaptiveStreamAllocsPerView: one streamed adaptive level over
// distinct views allocates per view only what a view owns (its band
// state and result) — cuts are sampled into worker scratch, not
// allocated per candidate.
func TestAdaptiveStreamAllocsPerView(t *testing.T) {
	l := 20
	const m = 16
	dft, ds := testSetup(t, l, m, micrograph.GenParams{Seed: 71})
	cfg := quickConfig(l)
	r, err := NewRefiner(dft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, src := datasetSource(ds, geom.Euler{Theta: 1.2, Phi: -0.8, Omega: 0.5})
	priors := make([]Result, n)
	for i := range priors {
		it, _ := src(i)
		priors[i] = Result{Orient: it.Init}
	}
	opt := StreamOptions{Workers: 1}
	// One cold call on a fresh refiner, counted directly: a repeated run
	// over the same views would measure a warm replay, not distinct views.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = r.RefineStreamLevels(context.Background(), n, src, priors, 0, 1, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if perView := float64(after.Mallocs-before.Mallocs) / m; perView > 16 {
		t.Errorf("streamed adaptive level allocates %.1f objects per view, want ≤ 16", perView)
	}
}
