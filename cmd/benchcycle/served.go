package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cycle"
	"repro/internal/geom"
	"repro/internal/reconstruct"
	"repro/internal/serve"
	"repro/internal/volume"
)

// A run sets up at least minSetups times and then until setupBudget is
// spent or maxSetups are done, so a set-up of a few milliseconds is
// sampled often enough to find its floor; setup_s is the fastest, and
// the last set-up is the one the measured region uses.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// moreSetups reports whether a run that has set up done times since
// began should set up again.
func moreSetups(done int, began time.Time) bool {
	return done < minSetups || (done < maxSetups && time.Since(began) < setupBudget)
}

// pollEvery is how often a client polls a job's status.
const pollEvery = 250 * time.Microsecond

// service is an in-process job service over a journal in its own
// scratch directory, which also receives the map artifacts.
type service struct {
	dir     string
	journal *serve.Journal
	manager *serve.Manager
}

// newRunDir makes a scratch directory whose name has a fixed length:
// map-artifact paths land in the journal, and serve.journal_bytes must
// repeat exactly for a seed.
func newRunDir(base string) (string, error) {
	for {
		dir := filepath.Join(base, fmt.Sprintf("run-%08x", rand.Uint32()))
		err := os.Mkdir(dir, 0o755)
		if err == nil {
			return dir, nil
		}
		if !os.IsExist(err) {
			return "", err
		}
	}
}

// openService opens a fresh journal and starts a manager on it.
func openService(base string, runWorkers int) (*service, error) {
	dir, err := newRunDir(base)
	if err != nil {
		return nil, err
	}
	j, err := serve.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	m, err := serve.NewManager(serve.Options{Journal: j, RunWorkers: runWorkers})
	if err != nil {
		return nil, err
	}
	m.Start()
	return &service{dir: dir, journal: j, manager: m}, nil
}

// stop drains the manager and closes the journal, leaving the files.
func (s *service) stop() error {
	s.manager.Drain()
	return s.journal.Close()
}

// discard stops the service and removes its directory.
func (s *service) discard() error {
	err := s.stop()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// replayJournal reopens a stopped service's journal and rebuilds a
// manager from it — the restart path — returning how long that took
// and the jobs it lists.
func (s *service) replayJournal() (time.Duration, []serve.JobStatus, error) {
	t0 := time.Now()
	j, err := serve.OpenJournal(s.journal.Path())
	if err != nil {
		return 0, nil, err
	}
	m, err := serve.NewManager(serve.Options{Journal: j})
	took := time.Since(t0)
	if err != nil {
		return 0, nil, err
	}
	jobs := m.List()
	return took, jobs, j.Close()
}

// servedJob is what a client observed of one job.
type servedJob struct {
	start      time.Time       // just before Submit
	submit     time.Duration   // the Submit call
	wall       time.Duration   // Submit → terminal state
	cycleWalls []time.Duration // per completed cycle, boundaries seen by polling
	status     serve.JobStatus
}

// runJob submits spec and polls it to a terminal state.
func runJob(m *serve.Manager, spec serve.JobSpec) (servedJob, error) {
	t0 := time.Now()
	jb := servedJob{start: t0}
	st, err := m.Submit(spec)
	if err != nil {
		return jb, err
	}
	jb.submit = time.Since(t0)
	last, done := t0, 0
	for {
		st, err = m.Get(st.ID)
		if err != nil {
			return jb, err
		}
		now := time.Now()
		for st.Cycle != nil && done < st.Cycle.Done {
			jb.cycleWalls = append(jb.cycleWalls, now.Sub(last))
			last = now
			done++
		}
		if st.State.Terminal() {
			jb.wall = now.Sub(t0)
			jb.status = st
			return jb, nil
		}
		time.Sleep(pollEvery)
	}
}

// meanAngularError scores orientations against the truth.
func meanAngularError(orients, truth []geom.Euler) float64 {
	var sum float64
	for i := range orients {
		sum += geom.AngularDistance(orients[i], truth[i])
	}
	return sum / float64(len(orients))
}

// runCycleWorkload is the body of the three cycle_* workloads: njobs
// served jobs back to back, every job checked; a traced run serves one
// job and then replays its stages under spans, and with scalePoint also
// replays cycle 0 at one thread.
func runCycleWorkload(e *env, njobs int, spec serve.JobSpec, scalePoint bool) error {
	// Set-up: the reference inputs for the checks, a scratch directory,
	// the journal, and a started manager.
	var (
		svc     *service
		initErr float64 // mean angular error of the perturbed inits, degrees
		setups  []float64
	)
	for began := time.Now(); moreSetups(len(setups), began); {
		if svc != nil {
			if err := svc.discard(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		ws, err := datasetOf(spec)
		if err != nil {
			return err
		}
		ds := ws.Build()
		inits := ds.PerturbedOrientations(ws.InitError, spec.InitSeed)
		initErr = meanAngularError(inits, ds.TrueOrientations())
		if svc, err = openService(e.base, 1); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(svc.dir)
	e.res.set("setup_s", fastest(setups))

	// Measured region. A traced run serves one job: its budget comes
	// from the replay, not from repetition.
	if e.traced {
		njobs = 1
	}
	var (
		jobs       []servedJob
		cycleWalls []float64
		jobWalls   []float64
	)
	for len(jobs) < njobs {
		// Every job starts from a collected heap: where the previous
		// job's garbage left the GC pacer otherwise decides whether the
		// heap takes one more arena, a tenth of peak_rss_mb on the
		// smaller workloads.
		runtime.GC()
		jb, err := runJob(svc.manager, spec)
		if err != nil {
			return err
		}
		jobs = append(jobs, jb)
		jobWalls = append(jobWalls, jb.wall.Seconds())
		for _, w := range jb.cycleWalls {
			cycleWalls = append(cycleWalls, w.Seconds())
		}
	}
	shape := svc.manager.Shape()
	journalBytes := svc.journal.Size()
	if err := svc.stop(); err != nil {
		return err
	}

	first := jobs[0].status
	for _, jb := range jobs {
		st := jb.status
		if st.State != serve.StateDone || st.Cycle == nil || st.Summary == nil {
			return fmt.Errorf("%s ended %s (%s) without a cycle status and summary", st.ID, st.State, st.Error)
		}
		checkCycleJob(e.res, st, initErr, svc.dir, !e.smoke)
		e.res.check(st.Cycle.MapDigest == first.Cycle.MapDigest, "%s: map digest differs from %s's for the same spec", st.ID, first.ID)
	}
	replayTook, replayed, err := svc.replayJournal()
	if err != nil {
		return err
	}
	e.res.check(len(replayed) == len(jobs), "journal replay lists %d jobs, submitted %d", len(replayed), len(jobs))
	for _, st := range replayed {
		e.res.check(st.State == serve.StateDone && !st.Resumed, "journal replay: %s is %s (resumed=%v), want done and not re-queued", st.ID, st.State, st.Resumed)
	}

	e.res.set("cycle_s", fastest(cycleWalls))
	e.res.set("views_per_s", float64(first.Views*first.Spec.MaxCycles)/fastest(jobWalls))
	e.res.meta["jobs"] = len(jobs)
	e.res.meta["job_wall_s"] = jobWalls
	e.res.meta["cycle_wall_s"] = cycleWalls
	e.res.meta["job_spec"] = first.Spec
	e.res.meta["init_ang_err_deg"] = initErr
	e.res.meta["ang_err_deg"] = first.Summary.MeanAngularError
	e.res.meta["stream_shape"] = shape
	e.res.meta["map_digest"] = first.Cycle.MapDigest
	e.res.meta["fsc_history"] = first.Cycle.History
	// Cycle 1's map is the latest one cycle_adaptive and its
	// single-threaded twin both produce; the suite compares the two.
	if d, err := artifactDigest(svc.dir, first.ID, 1); err == nil {
		e.res.meta["map_digest_cycle1"] = d
	}
	if !e.traced {
		return nil
	}

	e.res.set("serve.submit_ms", jobs[0].submit.Seconds()*1e3)
	e.res.set("serve.job_wall_s", jobs[0].wall.Seconds())
	e.res.set("serve.journal_bytes", float64(journalBytes))
	e.res.set("serve.replay_s", replayTook.Seconds())
	e.res.set("quality.ang_err_deg", first.Summary.MeanAngularError)
	e.res.set("quality.fsc05_A", first.Cycle.ResolutionA)
	return replayAndReport(e, jobs[0], scalePoint)
}

// artifactDigest digests the map artifact the service wrote for cycle c
// of job id.
func artifactDigest(dir, id string, c int) (string, error) {
	g, err := volume.ReadGridFile(filepath.Join(dir, fmt.Sprintf("%s.cycle-%d.map", id, c)))
	if err != nil {
		return "", err
	}
	return reconstruct.MapDigest(g), nil
}

// divergedBy is how far above the initial mean angular error a job's
// final error may end before the job counts as diverged. Against a
// reference the job reconstructs from its own rough orientations, the
// error against the synthetic truth ends between 0.75 and 1.05 of the
// initial one depending on the seed (the map's gauge drifts with the
// orientations), so "below the initial" is not a property every seed
// has; a broken search ends many times above it. Finer movements are
// quality.ang_err_deg's business, which -compare bounds per seed.
const divergedBy = 1.25

// checkCycleJob applies the per-job correctness checks to a done cycle
// job. The two quality checks need a dataset on which refinement
// converges; the smoke sizes are too small for that and skip them.
func checkCycleJob(res *result, st serve.JobStatus, initErr float64, dir string, quality bool) {
	cs := st.Cycle
	res.check(cs.Stopped == cycle.StopMaxCycles, "%s: stopped %q, want %q", st.ID, cs.Stopped, cycle.StopMaxCycles)
	res.check(cs.Done == st.Spec.MaxCycles && len(cs.History) == cs.Done, "%s: %d cycles done with %d FSC records, want %d", st.ID, cs.Done, len(cs.History), st.Spec.MaxCycles)
	got, err := artifactDigest(dir, st.ID, cs.Done-1)
	res.check(err == nil && got == cs.MapDigest, "%s: final map artifact digests to %.12s (err %v), status says %.12s", st.ID, got, err, cs.MapDigest)
	if !quality || len(cs.History) == 0 {
		return
	}
	res.check(st.Summary.MeanAngularError <= divergedBy*initErr, "%s: final mean angular error %.4f° against the initial %.4f°: refinement diverged", st.ID, st.Summary.MeanAngularError, initErr)
	last := cs.History[len(cs.History)-1].ResolutionA
	res.check(last <= cs.History[0].ResolutionA+0.01, "%s: final FSC 0.5 crossing %.3f Å worse than cycle 0's %.3f Å", st.ID, last, cs.History[0].ResolutionA)
}
