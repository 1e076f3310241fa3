package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// runJobsWorkload is the closed loop of njobs small refine jobs: one
// client per core, each submitting its next job only once the previous
// one is terminal, against a manager with one executor per core and the
// journal on; then the restart path over the journal the loop wrote.
func runJobsWorkload(e *env, njobs int) error {
	clients := runtime.GOMAXPROCS(0)
	probe := smallJobSpec(e.seed, 0)
	ws, err := datasetOf(probe)
	if err != nil {
		return err
	}

	// Set-up: the service and one warm-up job, so plan caches and lazy
	// set-up are out of the measured region. The warm-up is the same job
	// every time: its result must repeat exactly.
	var (
		svc    *service
		warmup *serve.Summary
		setups []float64
	)
	for began := time.Now(); moreSetups(len(setups), began); {
		if svc != nil {
			if err := svc.discard(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if svc, err = openService(e.base, clients); err != nil {
			return err
		}
		warm, err := runJob(svc.manager, probe)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sum := warm.status.Summary
		e.res.check(warm.status.State == serve.StateDone && sum != nil, "warm-up job: state %s (%s)", warm.status.State, warm.status.Error)
		e.res.check(warmup == nil || (sum != nil && *sum == *warmup), "warm-up job's summary %+v differs from the previous set-up's %+v", sum, warmup)
		warmup = sum
	}
	defer os.RemoveAll(svc.dir)
	e.res.set("setup_s", fastest(setups))

	// Measured region.
	var (
		next    atomic.Int64
		mu      sync.Mutex
		jobs    []servedJob
		loopErr error
		wg      sync.WaitGroup
		start   = time.Now()
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := -1
			if e.traced {
				root = e.tr.begin("client", "bench", -1, c, -1)
				defer e.tr.end(root)
			}
			for {
				i := int(next.Add(1))
				if i > njobs {
					return
				}
				jb, err := runJob(svc.manager, smallJobSpec(e.seed, i))
				if e.traced {
					job := e.tr.record("serve.job", "serve", c, root, jb.start, jb.start.Add(jb.wall))
					e.tr.record("serve.submit", "serve", c, job, jb.start, jb.start.Add(jb.submit))
				}
				mu.Lock()
				if err != nil && loopErr == nil {
					loopErr = err
				}
				jobs = append(jobs, jb)
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if loopErr != nil {
		return loopErr
	}
	journalBytes := svc.journal.Size()
	if err := svc.stop(); err != nil {
		return err
	}

	var walls, submits []float64
	var angErr float64
	for _, jb := range jobs {
		st := jb.status
		e.res.check(st.State == serve.StateDone && st.Summary != nil && st.LevelsDone == probe.Levels,
			"%s: state %s (%s) after %d levels, want done after %d", st.ID, st.State, st.Error, st.LevelsDone, probe.Levels)
		if st.Summary != nil {
			angErr += st.Summary.MeanAngularError
		}
		walls = append(walls, jb.wall.Seconds())
		submits = append(submits, jb.submit.Seconds())
	}
	replayTook, replayed, err := svc.replayJournal()
	if err != nil {
		return err
	}
	served := len(jobs) + setupWarmups
	e.res.check(len(replayed) == served, "journal replay lists %d jobs, served %d", len(replayed), served)
	for _, st := range replayed {
		e.res.check(st.State == serve.StateDone && !st.Resumed, "journal replay: %s is %s (resumed=%v), want done and not re-queued", st.ID, st.State, st.Resumed)
	}

	e.res.set("cycle_s", fastest(walls))
	e.res.set("views_per_s", float64(probe.Views)/fastest(walls))
	e.res.meta["jobs"] = len(jobs)
	e.res.meta["clients"] = clients
	e.res.meta["run_workers"] = clients
	e.res.meta["job_spec"] = probe
	e.res.meta["stream_shape"] = svc.manager.Shape()
	if !e.traced {
		return nil
	}

	e.res.set("serve.submit_ms", median(submits)*1e3)
	e.res.set("serve.job_wall_s", median(walls))
	e.res.set("serve.job_p95_ms", quantile(walls, 0.95)*1e3)
	e.res.set("serve.jobs_per_s", float64(len(jobs))/wall)
	e.res.set("serve.journal_bytes", float64(journalBytes))
	e.res.set("serve.replay_s", replayTook.Seconds())
	e.res.set("quality.ang_err_deg", angErr/float64(len(jobs)))
	var own, total time.Duration
	for i, s := range e.tr.spans {
		if s.Parent == -1 {
			b := e.tr.budgetUnder(i)
			own, total = own+b.rootOwn, total+b.wall
		}
	}
	e.res.setCoverage(1 - float64(own)/float64(total))

	// Kernel loops: what one job's dataset build and one journal record
	// cost, the two things a small job pays besides its refinement.
	const rounds = 8
	var builds []float64
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		ws.Build()
		builds = append(builds, time.Since(t0).Seconds())
	}
	e.res.set("workload.build_s", median(builds))
	appendMs, err := journalAppendLoop(e.base, probe, 8*rounds)
	if err != nil {
		return err
	}
	e.res.set("serve.journal_append_ms", appendMs)
	return nil
}

// setupWarmups is how many warm-up jobs the journal of the last
// set-up holds besides the measured ones.
const setupWarmups = 1

// journalAppendLoop appends n submit records to a scratch journal and
// returns the median milliseconds per fsynced record.
func journalAppendLoop(base string, spec serve.JobSpec, n int) (float64, error) {
	dir, err := newRunDir(base)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, err := serve.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return 0, err
	}
	defer j.Close()
	var ms []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := j.Submit(fmt.Sprintf("job-%06d", i+1), spec); err != nil {
			return 0, err
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	return median(ms), nil
}
