package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cycle"
	"repro/internal/fourier"
	"repro/internal/micrograph"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/workload"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull means the admission queue is at capacity; the
	// request is retriable (HTTP 429).
	ErrQueueFull = errors.New("serve: admission queue full, retry later")
	// ErrDraining means the manager is shutting down (HTTP 503).
	ErrDraining = errors.New("serve: draining, not accepting jobs")
	// ErrNotFound means no job has the given ID (HTTP 404).
	ErrNotFound = errors.New("serve: no such job")
	// ErrTerminal means the operation needs a live job but the job
	// already finished (HTTP 409).
	ErrTerminal = errors.New("serve: job already in a terminal state")
)

// Options configures a Manager.
type Options struct {
	// QueueDepth bounds how many accepted-but-not-started jobs the
	// manager holds; a submit beyond it fails with ErrQueueFull.
	// 0 selects 16.
	QueueDepth int
	// RunWorkers is the number of concurrent job executors; each runs
	// one job's refinement passes at a time. 0 selects 1 — jobs usually
	// want the cores inside the pass, not across jobs.
	RunWorkers int
	// Stream shapes each job's refinement pass (see core.StreamOptions).
	Stream core.StreamOptions
	// Journal, when non-nil, persists every accepted job and every
	// completed level so a restarted manager resumes mid-schedule.
	// The caller owns the journal and closes it after Drain.
	Journal *Journal
	// OnLevel, when non-nil, is called after each level checkpoint
	// (journal written, status updated). It runs on the executor
	// goroutine: it may call RequestDrain to stop the schedule at
	// this checkpoint, but must not block on Drain itself. Cycle jobs
	// pass the global level index (cycle·Levels + level).
	OnLevel func(jobID string, level int)
	// OnCycleMap, when non-nil, is called after a cycle job's map
	// artifact has been written and journaled, before the cycle's FSC
	// runs — the mid-reconstruction kill window the CI smoke targets.
	// Same goroutine discipline as OnLevel.
	OnCycleMap func(jobID string, c int)
	// ArtifactDir is where cycle jobs serialize per-cycle map
	// artifacts. Empty selects the journal's directory; artifacts are
	// only written when Journal is set.
	ArtifactDir string
	// Logf, when non-nil, receives one line per job state change.
	Logf func(format string, args ...any)
}

// job is the manager-internal state of one refinement job: its
// durable state, which only commitLocked changes, and what this process
// derives or keeps beside it. Mutable fields are guarded by Manager.mu.
type job struct {
	id          string
	spec        JobSpec // normalized
	wspec       workload.DatasetSpec
	submittedAt float64
	resumed     bool
	ctx         context.Context
	cancel      context.CancelFunc

	// durable is the fold of every record journaled for the job.
	durable JobReplay
	// running is set while an executor runs the job.
	running bool
	// levels holds the latest summary of each schedule level (a cycle
	// job overwrites cycle c−1's with cycle c's).
	levels []core.LevelSummary
}

// Manager owns the job table, the bounded admission queue, and the
// executor pool that schedules queued jobs onto the streaming
// refiner's pool passes.
type Manager struct {
	opt   Options
	logf  func(string, ...any)
	shape Shape
	// tick backs clock, the logical time stamped onto job events and
	// trace spans.
	tick atomic.Int64

	queue chan *job
	quit  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	queued   int // jobs accepted but not yet picked up by an executor
	nextID   int
	started  bool
	draining bool
}

// NewManager builds a manager. If opt.Journal is set, its replayed
// state is loaded: terminal jobs reappear in the table for GET, and
// interrupted jobs re-enter the queue to resume from their last
// checkpointed level. Call Start to begin executing.
func NewManager(opt Options) (*Manager, error) {
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 16
	}
	if opt.RunWorkers <= 0 {
		opt.RunWorkers = 1
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	m := &Manager{
		opt:   opt,
		logf:  logf,
		shape: Shape{Workers: pool.Workers(math.MaxInt, opt.Stream.Workers)},
		quit:  make(chan struct{}),
		jobs:  map[string]*job{},
	}
	var resumable []*job
	if opt.Journal != nil {
		for _, rp := range opt.Journal.Replay() {
			jb, err := m.reviveJob(rp)
			if err != nil {
				return nil, err
			}
			m.jobs[jb.id] = jb
			m.order = append(m.order, jb.id)
			if !jb.durable.State.Terminal() {
				resumable = append(resumable, jb)
			}
			var n int
			if _, err := fmt.Sscanf(jb.id, "job-%d", &n); err == nil && n > m.nextID {
				m.nextID = n
			}
		}
	}
	// The channel is oversized by the resumable backlog so replayed
	// jobs re-enter without blocking; admission control is the queued
	// counter against QueueDepth, not the channel capacity.
	m.queue = make(chan *job, opt.QueueDepth+len(resumable))
	for _, jb := range resumable {
		m.queued++
		m.queue <- jb
		jobsResumed.Inc()
		obs.Emit(evResume, jb.id, jb.durable.LevelsDone, jb.submittedAt, [obs.EventFieldsMax]obs.EventField{
			{Key: "levels_done", Value: int64(jb.durable.LevelsDone)},
			{Key: "levels_total", Value: int64(jb.spec.levelsTotal())},
		})
		m.logf("serve: resuming %s at level %d/%d", jb.id, jb.durable.LevelsDone, jb.spec.levelsTotal())
	}
	gaugeQueueDepth.Set(int64(len(resumable)))
	if opt.Journal != nil {
		gaugeJournalBytes.Set(opt.Journal.Size())
	}
	return m, nil
}

// clock is the manager's logical clock: a process-local monotonic tick
// counter. serve is a simclock package, so wall time never enters it.
func (m *Manager) clock() float64 { return float64(m.tick.Add(1)) }

// reviveJob rebuilds a job around its journal replay: the normalized
// spec and what is not journaled.
func (m *Manager) reviveJob(rp JobReplay) (*job, error) {
	spec, wspec, err := rp.Spec.normalize()
	if err != nil {
		return nil, fmt.Errorf("serve: journaled job %s: %w", rp.ID, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	jb := &job{
		id:          rp.ID,
		spec:        spec,
		wspec:       wspec,
		submittedAt: m.clock(),
		resumed:     !rp.State.Terminal(),
		ctx:         ctx,
		cancel:      cancel,
		durable:     rp,
	}
	// The summaries are not journaled: refold them from the results
	// with the MaxSlides both job types' refiners are built with.
	maxSlides := core.DefaultConfig(wspec.L).MaxSlides
	for g := 0; g < rp.LevelsDone; g++ {
		jb.noteLevel(g, core.Summarize(rp.Results, g, maxSlides))
	}
	return jb, nil
}

// noteLevel records the summary of job-global level g as its schedule
// level's latest. Levels arrive in order, so a level either extends
// the record or overwrites a previous cycle's entry.
func (jb *job) noteLevel(g int, sum core.LevelSummary) {
	if k := g % jb.spec.Levels; k < len(jb.levels) {
		jb.levels[k] = sum
	} else {
		jb.levels = append(jb.levels, sum)
	}
}

// Shape returns the resolved refinement-pass shape jobs run with.
func (m *Manager) Shape() Shape { return m.shape }

// Start launches the executor pool. It may be called once.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	for w := 0; w < m.opt.RunWorkers; w++ {
		m.wg.Add(1)
		go m.executor(w)
	}
}

// Submit validates and enqueues a job, returning its initial status.
// Fails with ErrQueueFull when the admission queue is at capacity and
// ErrDraining during shutdown.
func (m *Manager) Submit(spec JobSpec) (JobStatus, error) {
	spec, wspec, err := spec.normalize()
	if err != nil {
		jobsRejected.Inc()
		return JobStatus{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		jobsRejected.Inc()
		return JobStatus{}, ErrDraining
	}
	if m.queued >= m.opt.QueueDepth {
		jobsRejected.Inc()
		return JobStatus{}, ErrQueueFull
	}
	m.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	jb := &job{
		id:          fmt.Sprintf("job-%06d", m.nextID),
		spec:        spec,
		wspec:       wspec,
		submittedAt: m.clock(),
		ctx:         ctx,
		cancel:      cancel,
	}
	if err := m.commitLocked(jb, journalRecord{Kind: "submit", ID: jb.id, Spec: &spec}); err != nil {
		cancel()
		jobsRejected.Inc()
		return JobStatus{}, err
	}
	m.jobs[jb.id] = jb
	m.order = append(m.order, jb.id)
	m.queued++
	// Guaranteed non-blocking: only Submit (under mu) adds, executors
	// only remove, and the capacity covers QueueDepth plus the replay
	// backlog.
	m.queue <- jb
	jobsSubmitted.Inc()
	queueDepth.Observe(int64(m.queued))
	gaugeQueueDepth.Set(int64(m.queued))
	obs.Emit(evAdmit, jb.id, noLevel, jb.submittedAt, [obs.EventFieldsMax]obs.EventField{
		{Key: "queue_depth", Value: int64(m.queued)},
		{Key: "views", Value: int64(jb.spec.Views)},
		{Key: "levels", Value: int64(jb.spec.Levels)},
	})
	m.logf("serve: accepted %s (%s, %d views, %d levels)", jb.id, jb.spec.Dataset, jb.spec.Views, jb.spec.Levels)
	return m.statusLocked(jb), nil
}

// Get returns the status of one job.
func (m *Manager) Get(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jb := m.jobs[id]
	if jb == nil {
		return JobStatus{}, ErrNotFound
	}
	return m.statusLocked(jb), nil
}

// List returns every known job in first-submission order.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.statusLocked(m.jobs[id]))
	}
	return out
}

// Results returns a copy of the job's per-view refined results after
// its last completed level.
func (m *Manager) Results(id string) ([]core.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jb := m.jobs[id]
	if jb == nil {
		return nil, ErrNotFound
	}
	return append([]core.Result(nil), jb.durable.Results...), nil
}

// Cancel stops a job: a pending job goes terminal immediately, a
// running job is cancelled through its context and goes terminal when
// the refinement pass unwinds. Cancelling a terminal job fails with
// ErrTerminal.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	jb := m.jobs[id]
	if jb == nil {
		m.mu.Unlock()
		return JobStatus{}, ErrNotFound
	}
	if jb.durable.State.Terminal() {
		st := m.statusLocked(jb)
		m.mu.Unlock()
		return st, ErrTerminal
	}
	if !jb.running {
		m.terminalLocked(jb, StateCancelled, "cancelled before start", nil)
		st := m.statusLocked(jb)
		m.mu.Unlock()
		return st, nil
	}
	cancel := jb.cancel
	st := m.statusLocked(jb)
	m.mu.Unlock()
	cancel()
	return st, nil
}

// RequestDrain flips the manager into draining mode without waiting:
// submits start failing with ErrDraining, idle executors exit, and
// running jobs stop at their next level checkpoint, parking as
// pending for a future restart to resume. Safe to call more than
// once, and from OnLevel.
func (m *Manager) RequestDrain() {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	m.mu.Unlock()
	if !already {
		close(m.quit)
	}
}

// Drain requests a drain and waits for every executor to stop. The
// journal (if any) is left to the caller to close afterwards.
func (m *Manager) Drain() {
	m.RequestDrain()
	m.wg.Wait()
}

// drainRequested reports whether a drain is in progress.
func (m *Manager) drainRequested() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// executor pulls queued jobs and runs them to a terminal state (or to
// a drain checkpoint).
func (m *Manager) executor(worker int) {
	defer m.wg.Done()
	for {
		select {
		case <-m.quit:
			return
		case jb := <-m.queue:
			// The clock is read unconditionally (not only when
			// instrumentation is on) so the logical tick sequence — and
			// with it every later timestamp — is identical whether or
			// not events and metrics record, preserving the
			// bit-identical-on-or-off contract.
			started := m.clock()
			m.mu.Lock()
			m.queued--
			gaugeQueueDepth.Set(int64(m.queued))
			skip := jb.durable.State.Terminal() // cancelled while queued
			jb.running = !skip
			m.mu.Unlock()
			if !skip {
				admitToStartTicks.Observe(int64(started - jb.submittedAt))
				obs.Emit(evDequeue, jb.id, noLevel, started, [obs.EventFieldsMax]obs.EventField{
					{Key: "worker", Value: int64(worker)},
					{Key: "wait_ticks", Value: int64(started - jb.submittedAt)},
				})
				gaugeRunningJobs.Inc()
				if jb.spec.Type == TypeCycle {
					m.runCycleJob(worker, jb)
				} else {
					m.runJob(worker, jb)
				}
				gaugeRunningJobs.Dec()
			}
		}
	}
}

// runJob executes one refine job: the one level loop, cycle.RefinePass,
// on a refiner over the dataset's truth map. The dataset, refiner and
// initial orientations are rebuilt from the spec's seeds on every
// (re)start; recorded shift increments replayed by RefineStreamLevels
// restore mid-schedule state bit-identically.
func (m *Manager) runJob(worker int, jb *job) {
	ds := jb.wspec.Build()
	inits := ds.PerturbedOrientations(jb.spec.InitError, jb.spec.InitSeed)
	dft := fourier.NewVolumeDFTPadded(ds.Truth, jb.spec.Pad)
	cfg := core.DefaultConfig(jb.wspec.L)
	cfg.Schedule = core.DefaultSchedule()[:jb.spec.Levels]
	// Search mode and seed come from the journaled spec, so a resumed
	// job replays the identical (adaptive or exhaustive) search path.
	cfg.Search = core.SearchMode(jb.spec.Search)
	cfg.SearchSeed = jb.spec.SearchSeed
	r, err := core.NewRefiner(dft, cfg)
	if err != nil {
		m.conclude(jb, ds, nil, false, fmt.Errorf("building refiner: %w", err))
		return
	}

	m.mu.Lock()
	start := jb.durable.LevelsDone
	priors := jb.durable.Results
	m.mu.Unlock()
	if priors == nil {
		priors = cycle.InitialResults(inits)
	}
	src := core.SliceSource(ds.Images(), ds.CTFs(), inits)
	results, parked, err := cycle.RefinePass(jb.ctx, r, src, priors, 0, start, jb.spec.Levels, m.opt.Stream, m.levelHooks(worker, jb))
	m.conclude(jb, ds, results, parked, err)
}

// levelHooks supplies the level loop's three hooks for either job type:
// the drain poll, the level_start event, and the level checkpoint. A
// cycle job's events carry the cycle index and its spans are named per
// cycle; nothing else differs.
func (m *Manager) levelHooks(worker int, jb *job) cycle.Hooks {
	cyc := jb.spec.Type == TypeCycle
	// t0 carries the level's start tick from OnLevelStart to OnLevel;
	// hooks run sequentially on the executor goroutine.
	var t0 float64
	return cycle.Hooks{
		Drain: m.drainRequested,
		OnLevelStart: func(c, global int) error {
			t0 = m.clock()
			fields := [obs.EventFieldsMax]obs.EventField{{Key: "views", Value: int64(jb.spec.Views)}}
			if cyc {
				fields[1] = obs.EventField{Key: "cycle", Value: int64(c)}
			}
			obs.Emit(evLevelStart, jb.id, global, t0, fields)
			return nil
		},
		OnLevel: func(c, global int, results []core.Result, sum core.LevelSummary) error {
			span := fmt.Sprintf("%s L%d", jb.id, global)
			if cyc {
				span = fmt.Sprintf("%s C%d L%d", jb.id, c, global%jb.spec.Levels)
			}
			return m.checkpointLevel(worker, jb, span, global, t0, results, sum)
		},
	}
}

// conclude maps how a job's run ended — a pass's or a cycle run's
// (results, parked, err) — to its next state: cancelled, failed, parked
// for a restart, or done with a summary against the dataset's truth.
func (m *Manager) conclude(jb *job, ds *micrograph.Dataset, results []core.Result, parked bool, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		m.finish(jb, StateCancelled, "cancelled while running", nil)
	case err != nil:
		m.finish(jb, StateFailed, err.Error(), nil)
	case parked:
		m.park(jb)
	default:
		m.finish(jb, StateDone, "", summarize(results, ds.TrueOrientations()))
	}
}

// checkpointLevel closes out one completed schedule level of a refine
// or cycle job (level is the job-global index, t0 its start tick): the
// span and level_end event, the job's resumable state, the fsynced
// journal record with its checkpoint event, and last the OnLevel
// callback. A journal error is returned before OnLevel runs.
func (m *Manager) checkpointLevel(worker int, jb *job, span string, level int, t0 float64, results []core.Result, sum core.LevelSummary) error {
	t1 := m.clock()
	obs.Span(0, worker, span, "serve.level", t0, t1)
	levelTicks.Observe(int64(t1 - t0))
	// level_end's totals: distance evaluations and re-centres, window
	// and centre together, and centre-shift increments applied.
	obs.Emit(evLevelEnd, jb.id, level, t1, [obs.EventFieldsMax]obs.EventField{
		{Key: "evals", Value: int64(sum.Matchings + sum.CenterEvals)},
		{Key: "slides", Value: int64(sum.Slides + sum.CenterSlides)},
		{Key: "shifts", Value: int64(sum.Shifts)},
		{Key: "ticks", Value: int64(t1 - t0)},
	})
	levelsDone.Inc()
	m.mu.Lock()
	jb.noteLevel(level, sum)
	err := m.commitLocked(jb, journalRecord{Kind: "level", ID: jb.id, Level: level, Results: results})
	if err == nil && m.opt.Journal != nil {
		obs.Emit(evCheckpoint, jb.id, level, t1, [obs.EventFieldsMax]obs.EventField{
			{Key: "journal_bytes", Value: m.opt.Journal.Size()},
		})
	}
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if m.opt.OnLevel != nil {
		m.opt.OnLevel(jb.id, level)
	}
	return nil
}

// park returns a running job to pending at a drain checkpoint; the
// journal already holds everything a restart needs.
func (m *Manager) park(jb *job) {
	m.mu.Lock()
	jb.running = false
	obs.Emit(evPark, jb.id, jb.durable.LevelsDone, m.clock(), [obs.EventFieldsMax]obs.EventField{
		{Key: "levels_done", Value: int64(jb.durable.LevelsDone)},
	})
	m.mu.Unlock()
	m.logf("serve: parked %s at level %d/%d for drain", jb.id, jb.durable.LevelsDone, jb.spec.levelsTotal())
}

// finish moves a job to a terminal state and journals it.
func (m *Manager) finish(jb *job, state State, errMsg string, sum *Summary) {
	m.mu.Lock()
	m.terminalLocked(jb, state, errMsg, sum)
	m.mu.Unlock()
}

// terminalLocked is finish with Manager.mu held.
func (m *Manager) terminalLocked(jb *job, state State, errMsg string, sum *Summary) {
	jb.cancel()
	switch state {
	case StateDone:
		jobsDone.Inc()
	case StateFailed:
		jobsFailed.Inc()
	case StateCancelled:
		jobsCancelled.Inc()
	}
	// The terminal event's kind is the state string itself
	// ("done"/"failed"/"cancelled") so emission never concatenates.
	obs.Emit(string(state), jb.id, jb.durable.LevelsDone, m.clock(), [obs.EventFieldsMax]obs.EventField{
		{Key: "levels_done", Value: int64(jb.durable.LevelsDone)},
	})
	rec := journalRecord{Kind: "terminal", ID: jb.id, State: state, Error: errMsg, Summary: sum}
	if err := m.commitLocked(jb, rec); err != nil {
		// The run is over in this process whatever the journal holds;
		// a restart resumes the job from its last checkpoint.
		m.logf("serve: journaling terminal state of %s: %v", jb.id, err)
		if err := jb.durable.apply(rec); err != nil {
			m.logf("serve: %s: %v", jb.id, err)
		}
	}
	m.logf("serve: %s → %s %s", jb.id, state, errMsg)
}

// commitLocked is the live path's one way to change a job's durable
// state, with Manager.mu held: it checks rec against the fold, journals
// it (fsynced), and only then folds it in. A record the fold rejects
// is never journaled.
func (m *Manager) commitLocked(jb *job, rec journalRecord) error {
	next := jb.durable
	if err := next.apply(rec); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if j := m.opt.Journal; j != nil {
		if err := j.append(rec); err != nil {
			return err
		}
		gaugeJournalBytes.Set(j.Size())
	}
	jb.durable = next
	return nil
}

// statusLocked snapshots a job's status with Manager.mu held.
func (m *Manager) statusLocked(jb *job) JobStatus {
	d := &jb.durable
	st := JobStatus{
		ID:          jb.id,
		State:       d.State,
		Spec:        jb.spec,
		Views:       jb.spec.Views,
		LevelsDone:  d.LevelsDone,
		LevelsTotal: jb.spec.levelsTotal(),
		Shape:       m.shape,
		SubmittedAt: jb.submittedAt,
		Resumed:     jb.resumed,
		Error:       d.Error,
		Summary:     d.Summary,
		Levels:      append([]core.LevelSummary(nil), jb.levels...),
	}
	if jb.running && !d.State.Terminal() {
		st.State = StateRunning
	}
	if jb.spec.Type == TypeCycle {
		cs := &CycleStatus{
			Done:      len(d.History),
			Max:       jb.spec.MaxCycles,
			Stopped:   d.Stopped,
			MapPath:   d.LastMapPath,
			MapDigest: d.LastMapDigest,
			History:   append([]cycle.CycleFSC(nil), d.History...),
		}
		if n := len(d.History); n > 0 {
			cs.ResolutionA = d.History[n-1].ResolutionA
			cs.Plateau = d.History[n-1].Plateau
		}
		st.Cycle = cs
	}
	return st
}
