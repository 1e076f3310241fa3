package serve

import (
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/cycle"
	"repro/internal/fsc"
	"repro/internal/obs"
	"repro/internal/reconstruct"
	"repro/internal/volume"
	"repro/internal/workload"
)

// runCycleJob executes one cycle job through the internal/cycle driver,
// wiring its hooks onto the manager's journal, event stream, gauges,
// and artifact store. The journal discipline mirrors runJob's: every
// acknowledged record is fsynced before the hook returns, and replay
// rebuilds exactly the cycle.State the driver resumes from —
// including reloading the previous cycle's map artifact (digest-
// verified) when the kill landed inside a cycle's refinement pass.
func (m *Manager) runCycleJob(worker int, jb *job) {
	ds := jb.wspec.Build()
	inits := ds.PerturbedOrientations(jb.spec.InitError, jb.spec.InitSeed)
	cds, cfg := workload.CycleInputs(ds, inits, cycle.Config{
		Levels:        jb.spec.Levels,
		Pad:           jb.spec.Pad,
		MaxCycles:     jb.spec.MaxCycles,
		PlateauEps:    jb.spec.PlateauEps,
		PlateauWindow: jb.spec.PlateauWindow,
		Search:        core.SearchMode(jb.spec.Search),
		SearchSeed:    jb.spec.SearchSeed,
		Stream:        m.opt.Stream,
	})

	m.mu.Lock()
	d := jb.durable
	m.mu.Unlock()
	st := cycle.State{
		LevelsDone: d.LevelsDone,
		Results:    d.Results,
		History:    append([]cycle.CycleFSC(nil), d.History...),
	}

	// A journaled stop reason means the outer loop already finished; the
	// kill landed between the final cycle_end and the terminal record.
	// Everything (results, history, map artifact) is replayed — only the
	// terminal record is missing.
	if d.Stopped != "" {
		m.conclude(jb, ds, st.Results, false, nil)
		return
	}

	// Resuming inside cycle c's refinement needs cycle c−1's map as the
	// reference; reload it from the journaled artifact and verify its
	// content digest before trusting it.
	if c := len(st.History); c > 0 && st.LevelsDone < (c+1)*jb.spec.Levels {
		if d.LastMapCycle != c-1 {
			m.conclude(jb, ds, nil, false, fmt.Errorf("resume: journal has map for cycle %d, need %d", d.LastMapCycle, c-1))
			return
		}
		ref, err := loadMapArtifact(d.LastMapPath, d.LastMapDigest)
		if err != nil {
			m.conclude(jb, ds, nil, false, fmt.Errorf("resume: %w", err))
			return
		}
		st.Ref = ref
	}

	// The level loop's hooks are the refine job's; the cycle's own three
	// follow.
	lv := m.levelHooks(worker, jb)
	h := cycle.Hooks{
		Drain:        lv.Drain,
		OnLevelStart: lv.OnLevelStart,
		OnLevel:      lv.OnLevel,
		OnCycleStart: func(c int) error {
			ts := m.clock()
			gaugeCycleNow.Set(int64(c))
			obs.Emit(evCycleStart, jb.id, noLevel, ts, [obs.EventFieldsMax]obs.EventField{
				{Key: "cycle", Value: int64(c)},
				{Key: "max_cycles", Value: int64(jb.spec.MaxCycles)},
				{Key: "levels", Value: int64(jb.spec.Levels)},
			})
			m.mu.Lock()
			defer m.mu.Unlock()
			// Already journaled iff this cycle started before a restart.
			if c < jb.durable.CyclesStarted {
				return nil
			}
			return m.commitLocked(jb, journalRecord{Kind: "cycle_start", ID: jb.id, Cycle: c})
		},
		OnMap: func(c int, g *volume.Grid) error {
			ts := m.clock()
			digest := reconstruct.MapDigest(g)
			if m.opt.Journal != nil {
				m.mu.Lock()
				d := jb.durable
				m.mu.Unlock()
				if d.LastMapCycle == c {
					// The kill landed between this cycle's map journal
					// and its cycle_end; the recomputed map must match
					// the journaled digest bit for bit.
					if digest != d.LastMapDigest {
						return fmt.Errorf("cycle %d map digest %.12s does not match journaled %.12s", c, digest, d.LastMapDigest)
					}
				} else {
					path := filepath.Join(m.artifactDir(), fmt.Sprintf("%s.cycle-%d.map", jb.id, c))
					if err := volume.WriteGridFile(path, g); err != nil {
						return err
					}
					m.mu.Lock()
					err := m.commitLocked(jb, journalRecord{Kind: "cycle_map", ID: jb.id, Cycle: c, MapPath: path, MapDigest: digest})
					if err == nil {
						obs.Emit(evCheckpoint, jb.id, noLevel, ts, [obs.EventFieldsMax]obs.EventField{
							{Key: "cycle", Value: int64(c)},
							{Key: "journal_bytes", Value: m.opt.Journal.Size()},
						})
					}
					m.mu.Unlock()
					if err != nil {
						return err
					}
				}
			}
			if m.opt.OnCycleMap != nil {
				m.opt.OnCycleMap(jb.id, c)
			}
			return nil
		},
		OnCycleEnd: func(rec cycle.CycleFSC, curve *fsc.Curve, stopped string) error {
			ts := m.clock()
			cyclesCompleted.Inc()
			gaugeCycleRes.Set(milliA(rec.ResolutionA))
			obs.Emit(evFSC, jb.id, noLevel, ts, [obs.EventFieldsMax]obs.EventField{
				{Key: "cycle", Value: int64(rec.Cycle)},
				{Key: "resolution_ma", Value: milliA(rec.ResolutionA)},
				{Key: "mean_cc_ppm", Value: int64(rec.MeanCC * 1e6)},
				{Key: "plateau", Value: int64(rec.Plateau)},
			})
			improved := int64(0)
			if rec.Improved {
				improved = 1
			}
			obs.Emit(evCycleEnd, jb.id, noLevel, ts, [obs.EventFieldsMax]obs.EventField{
				{Key: "cycle", Value: int64(rec.Cycle)},
				{Key: "plateau", Value: int64(rec.Plateau)},
				{Key: "improved", Value: improved},
				{Key: "stopped", Value: stopCode(stopped)},
			})
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.commitLocked(jb, journalRecord{Kind: "cycle_end", ID: jb.id, Cycle: rec.Cycle, FSC: &rec, Stopped: stopped})
		},
	}

	out, err := cycle.Run(jb.ctx, cds, cfg, st, h)
	if err != nil {
		out = &cycle.Outcome{}
	}
	m.conclude(jb, ds, out.Results, out.Parked, err)
}

// artifactDir resolves where cycle map artifacts land.
func (m *Manager) artifactDir() string {
	if m.opt.ArtifactDir != "" {
		return m.opt.ArtifactDir
	}
	if m.opt.Journal != nil {
		return filepath.Dir(m.opt.Journal.Path())
	}
	return "."
}

// loadMapArtifact reloads a journaled map artifact and verifies its
// content digest against the journaled one.
func loadMapArtifact(path, digest string) (*volume.Grid, error) {
	g, err := volume.ReadGridFile(path)
	if err != nil {
		return nil, fmt.Errorf("reloading map artifact: %w", err)
	}
	if got := reconstruct.MapDigest(g); got != digest {
		return nil, fmt.Errorf("map artifact %s digest %.12s does not match journaled %.12s", path, got, digest)
	}
	return g, nil
}

// milliA converts Å to integer milli-Å for int64 event fields; non-
// finite resolutions (no FSC crossing on an empty curve) encode as -1.
func milliA(resA float64) int64 {
	if resA != resA || resA > 1e15 || resA < -1e15 {
		return -1
	}
	return int64(resA * 1000)
}

// stopCode maps a cycle stop reason to its event-field code.
func stopCode(stopped string) int64 {
	switch stopped {
	case cycle.StopPlateau:
		return stopCodePlateau
	case cycle.StopMaxCycles:
		return stopCodeMaxCycles
	default:
		return stopCodeNone
	}
}
