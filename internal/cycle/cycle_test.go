package cycle

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ctf"
	"repro/internal/fourier"
	"repro/internal/fsc"
	"repro/internal/micrograph"
	"repro/internal/phantom"
	"repro/internal/reconstruct"
	"repro/internal/volume"
)

// tinyRun is a dataset + config small enough to run a full multi-cycle
// job in test time.
func tinyRun(t testing.TB, ctfOn bool) (Dataset, Config) {
	t.Helper()
	l := 16
	truth := phantom.Asymmetric(l, 8, 1)
	truth.SphericalMask(0.4 * float64(l))
	gen := micrograph.GenParams{NumViews: 6, PixelA: 2, SNR: 2, CenterJitter: 0.5, Seed: 7}
	if ctfOn {
		gen.ApplyCTF = true
		gen.DefocusGroups = 2
	}
	mds := micrograph.Generate(truth, gen)
	ds := Dataset{Views: mds.Images(), Inits: mds.PerturbedOrientations(3, 8)}
	if ctfOn {
		ds.CTFs = make([]ctf.Params, len(mds.Views))
		for i, v := range mds.Views {
			ds.CTFs[i] = v.CTF
		}
	}
	cfg := Config{
		L: l, PixelA: gen.PixelA, Levels: 2, MaxCycles: 2, CTF: ctfOn,
		Stream: core.StreamOptions{Workers: 2},
	}
	return ds, cfg
}

// fingerprint condenses an outcome for bit-identity comparison.
func fingerprint(t *testing.T, out *Outcome) string {
	t.Helper()
	if out.Map == nil || out.Curve == nil {
		t.Fatal("outcome missing map or curve")
	}
	s := reconstruct.MapDigest(out.Map)
	for _, p := range out.Curve.Points {
		s += fmt.Sprintf("|%x", p.CC)
	}
	for _, rec := range out.History {
		s += fmt.Sprintf("|%d:%x:%x:%v:%d", rec.Cycle, rec.ResolutionA, rec.MeanCC, rec.Improved, rec.Plateau)
	}
	for _, res := range out.Results {
		s += fmt.Sprintf("|%x,%x,%x,%x,%x", res.Orient.Theta, res.Orient.Phi, res.Orient.Omega, res.Center[0], res.Center[1])
	}
	return s
}

// TestRunDeterministic: two identical runs produce bit-identical maps,
// curves, histories, and per-view results.
func TestRunDeterministic(t *testing.T) {
	ds, cfg := tinyRun(t, false)
	a, err := Run(context.Background(), ds, cfg, State{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), ds, cfg, State{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, a) != fingerprint(t, b) {
		t.Fatal("identical runs diverged")
	}
	if a.Stopped != StopPlateau && a.Stopped != StopMaxCycles {
		t.Fatalf("unexpected stop reason %q", a.Stopped)
	}
	if len(a.History) == 0 || len(a.History) > cfg.MaxCycles {
		t.Fatalf("history length %d outside 1..%d", len(a.History), cfg.MaxCycles)
	}
	// The refinement accumulated one PerLevel entry per global level.
	wantLevels := len(a.History) * cfg.Levels
	for i, res := range a.Results {
		if len(res.PerLevel) != wantLevels {
			t.Fatalf("view %d has %d PerLevel entries, want %d", i, len(res.PerLevel), wantLevels)
		}
	}
}

// TestRunHookOrder pins the hook sequence and the global level indices
// the serving layer journals.
func TestRunHookOrder(t *testing.T) {
	ds, cfg := tinyRun(t, false)
	var (
		trace []string
		sums  []core.LevelSummary
	)
	h := Hooks{
		OnCycleStart: func(c int) error { trace = append(trace, fmt.Sprintf("start%d", c)); return nil },
		OnLevelStart: func(c, g int) error { trace = append(trace, fmt.Sprintf("lstart%d.%d", c, g)); return nil },
		OnLevel: func(c, g int, results []core.Result, sum core.LevelSummary) error {
			trace = append(trace, fmt.Sprintf("level%d.%d", c, g))
			sums = append(sums, sum)
			return nil
		},
		OnMap: func(c int, m *volume.Grid) error { trace = append(trace, fmt.Sprintf("map%d", c)); return nil },
		OnCycleEnd: func(rec CycleFSC, curve *fsc.Curve, stopped string) error {
			trace = append(trace, fmt.Sprintf("end%d.%s", rec.Cycle, stopped))
			return nil
		},
	}
	out, err := Run(context.Background(), ds, cfg, State{}, h)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for c := 0; c < len(out.History); c++ {
		want = append(want, fmt.Sprintf("start%d", c))
		for k := 0; k < cfg.Levels; k++ {
			g := c*cfg.Levels + k
			want = append(want, fmt.Sprintf("lstart%d.%d", c, g), fmt.Sprintf("level%d.%d", c, g))
		}
		stopped := ""
		if c == len(out.History)-1 {
			stopped = out.Stopped
		}
		want = append(want, fmt.Sprintf("map%d", c), fmt.Sprintf("end%d.%s", c, stopped))
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("hook trace:\n got %v\nwant %v", trace, want)
	}
	// Every level's summary covers every view.
	for g, sum := range sums {
		if sum.Views != len(ds.Views) || sum.Matchings == 0 {
			t.Errorf("level %d summary %+v over %d views", g, sum, len(ds.Views))
		}
	}

	// The exported pass on its own — what a refine job runs: the same
	// two level hooks with the job-global index and none of the cycle
	// hooks; a drain poll turning true parks it before the next level
	// with the results so far.
	ncfg, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRefiner(out.Map, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	src := core.SliceSource(ds.Views, ds.CTFs, ds.Inits)
	for _, row := range []struct {
		parkAt int // drain poll that turns true (0 = never)
		want   []string
	}{
		{0, []string{"lstart1.2", "level1.2", "lstart1.3", "level1.3"}},
		{2, []string{"lstart1.2", "level1.2"}},
		{1, nil},
	} {
		trace = nil
		polls := 0
		h.Drain = func() bool { polls++; return polls == row.parkAt }
		res, parked, err := RefinePass(context.Background(), r, src, InitialResults(ds.Inits), 1, 0, cfg.Levels, cfg.Stream, h)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(trace, row.want) || parked != (row.parkAt > 0) {
			t.Errorf("pass parked at poll %d: trace %v parked %v, want %v", row.parkAt, trace, parked, row.want)
		}
		if got := len(res[0].PerLevel); got != len(row.want)/2 {
			t.Errorf("pass parked at poll %d: %d levels in the results, want %d", row.parkAt, got, len(row.want)/2)
		}
	}
}

// TestRunResumeEveryCheckpoint is the tentpole resume pin: park the run
// at every drain-poll boundary (each refinement level of each cycle and
// each pre-reconstruction point), rebuild State exactly as a journal
// replay would (results, history, and the previous cycle's map — never
// the in-flight cycle's), resume, and demand a bit-identical final
// outcome.
func TestRunResumeEveryCheckpoint(t *testing.T) {
	ds, cfg := tinyRun(t, true) // CTF on: exercise the full path
	ref, err := Run(context.Background(), ds, cfg, State{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	refFP := fingerprint(t, ref)

	for park := 1; ; park++ {
		// Phase 1: run until the park-th drain poll, capturing what a
		// journal would hold.
		var (
			polls      int
			levelsDone int
			results    []core.Result
			history    []CycleFSC
			maps       = map[int]*volume.Grid{}
		)
		h := Hooks{
			Drain: func() bool { polls++; return polls >= park },
			OnLevel: func(c, g int, res []core.Result, _ core.LevelSummary) error {
				levelsDone = g + 1
				results = append([]core.Result(nil), res...)
				return nil
			},
			OnMap: func(c int, m *volume.Grid) error { maps[c] = m.Clone(); return nil },
			OnCycleEnd: func(rec CycleFSC, curve *fsc.Curve, stopped string) error {
				history = append(history, rec)
				return nil
			},
		}
		out, err := Run(context.Background(), ds, cfg, State{}, h)
		if err != nil {
			t.Fatalf("park %d: %v", park, err)
		}
		if !out.Parked {
			// The run finished before the park point — drain polls are
			// exhausted; the sweep is complete.
			if fingerprint(t, out) != refFP {
				t.Fatalf("park %d: unparked run diverged from reference", park)
			}
			break
		}

		// Phase 2: resume from the captured state.
		st := State{LevelsDone: levelsDone, Results: results, History: append([]CycleFSC(nil), history...)}
		if c := len(history); c > 0 {
			m, ok := maps[c-1]
			if !ok {
				t.Fatalf("park %d: no map for completed cycle %d", park, c-1)
			}
			st.Ref = m
		}
		res, err := Run(context.Background(), ds, cfg, st, Hooks{})
		if err != nil {
			t.Fatalf("park %d resume: %v", park, err)
		}
		if got := fingerprint(t, res); got != refFP {
			t.Fatalf("park %d: resumed run diverged from uninterrupted reference", park)
		}
	}
}

// TestRunStateValidation: inconsistent resume states are rejected.
func TestRunStateValidation(t *testing.T) {
	ds, cfg := tinyRun(t, false)
	ctx := context.Background()
	cases := []struct {
		name string
		st   State
	}{
		{"levels without results", State{LevelsDone: 1}},
		{"results length mismatch", State{LevelsDone: 1, Results: make([]core.Result, 1)}},
		{"levels behind history", State{History: []CycleFSC{{Cycle: 0}}, LevelsDone: 1,
			Results: make([]core.Result, len(ds.Views))}},
		{"cycle 1 without reference", State{History: []CycleFSC{{Cycle: 0}}, LevelsDone: cfg.Levels,
			Results: make([]core.Result, len(ds.Views))}},
		{"past max cycles", State{History: []CycleFSC{{Cycle: 0}, {Cycle: 1}}, LevelsDone: 2 * cfg.Levels,
			Results: make([]core.Result, len(ds.Views))}},
	}
	for _, tc := range cases {
		if _, err := Run(ctx, ds, cfg, tc.st, Hooks{}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestRunConfigValidation: malformed configs and datasets are rejected
// before any work starts.
func TestRunConfigValidation(t *testing.T) {
	ds, cfg := tinyRun(t, false)
	ctx := context.Background()
	bad := []Config{}
	for _, mut := range []func(*Config){
		func(c *Config) { c.L = 0 },
		func(c *Config) { c.PixelA = 0 },
		func(c *Config) { c.Levels = 0 },
		func(c *Config) { c.Levels = len(core.DefaultSchedule()) + 1 },
		func(c *Config) { c.Pad = 9 },
		func(c *Config) { c.MaxCycles = 0 },
		func(c *Config) { c.PlateauEps = -1 },
	} {
		c := cfg
		mut(&c)
		bad = append(bad, c)
	}
	for i, c := range bad {
		if _, err := Run(ctx, ds, c, State{}, Hooks{}); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Run(ctx, Dataset{Views: ds.Views[:1], Inits: ds.Inits[:1]}, cfg, State{}, Hooks{}); err == nil {
		t.Error("single-view dataset accepted")
	}
	if _, err := Run(ctx, Dataset{Views: ds.Views, Inits: ds.Inits[:2]}, cfg, State{}, Hooks{}); err == nil {
		t.Error("mismatched inits accepted")
	}
	// CTF params are indexed per view whenever present, CTF on or off.
	if _, err := Run(ctx, Dataset{Views: ds.Views, Inits: ds.Inits, CTFs: make([]ctf.Params, 2)}, cfg, State{}, Hooks{}); err == nil {
		t.Error("short CTF params accepted with CTF off")
	}
}

// TestGridCenters: the one switch the experiments' "old method" adds.
// Unset, a run's results equal a pass on the refiner core.DefaultConfig
// builds (sub-grid centre interpolation on, as before the field
// existed); set, every centre of a 1 px level stays on the 1 px grid.
func TestGridCenters(t *testing.T) {
	ds, cfg := tinyRun(t, false)
	cfg.Levels, cfg.MaxCycles = 1, 1
	ctx := context.Background()
	out, err := Run(ctx, ds, cfg, State{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}

	ncfg, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fullMap(ds, InitialResults(ds.Inits), ncfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.SphericalMask(maskFrac * float64(cfg.L))
	ccfg := core.DefaultConfig(cfg.L)
	ccfg.Schedule = core.DefaultSchedule()[:1]
	r, err := core.NewRefiner(fourier.NewVolumeDFTPadded(ref, ncfg.Pad), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.RefineStream(ctx, len(ds.Views), core.SliceSource(ds.Views, nil, ds.Inits), cfg.Stream)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Results, want) {
		t.Fatalf("zero GridCenters changed the results:\n got %+v\nwant %+v", out.Results, want)
	}

	cfg.GridCenters = true
	grid, err := Run(ctx, ds, cfg, State{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	offGrid := func(res core.Result) bool {
		return res.Center[0] != math.Round(res.Center[0]) || res.Center[1] != math.Round(res.Center[1])
	}
	interpolated := 0
	for i := range grid.Results {
		if offGrid(grid.Results[i]) {
			t.Errorf("GridCenters: view %d centre %v is off the 1 px grid", i, grid.Results[i].Center)
		}
		if offGrid(out.Results[i]) {
			interpolated++
		}
	}
	if interpolated == 0 {
		t.Error("no centre left the grid with GridCenters unset; the field changes nothing here")
	}
}

// TestRunContextCancel: a cancelled context aborts with its error.
func TestRunContextCancel(t *testing.T) {
	ds, cfg := tinyRun(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, ds, cfg, State{}, Hooks{}); err == nil {
		t.Fatal("cancelled run returned no error")
	}
}

// TestRunHookErrorAborts: a hook error surfaces as the run error.
func TestRunHookErrorAborts(t *testing.T) {
	ds, cfg := tinyRun(t, false)
	boom := fmt.Errorf("journal full")
	_, err := Run(context.Background(), ds, cfg, State{}, Hooks{
		OnLevel: func(c, g int, results []core.Result, _ core.LevelSummary) error { return boom },
	})
	if err == nil || err.Error() != boom.Error() {
		t.Fatalf("got %v, want %v", err, boom)
	}
}
