package progressest

import (
	"fmt"
	"sync"
	"time"

	"progressest/internal/exec"
	"progressest/internal/feedback"
	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/progress"
	"progressest/internal/selection"
	"progressest/internal/storage"
)

// MonitorOptions configures live monitoring of one query.
type MonitorOptions struct {
	// Selector, when non-nil, picks the estimator per pipeline and revises
	// the choice as dynamic features accrue (re-selecting each time a
	// driver-input marker is crossed, up to the paper's 20% cutoff).
	// Without it the Learning registry's current version serves, else DNE.
	Selector *Selector
	// UpdateEvery delivers a ProgressUpdate every n-th counter snapshot
	// (default 8). The final update on completion is always delivered.
	UpdateEvery int
	// Pace, when positive, sleeps this long after each delivered update.
	// The synthetic substrate executes in-memory queries in milliseconds;
	// pacing slows a monitored query to the human-observable speed of the
	// production queries progress estimation exists for (useful for demos
	// and load tests; zero disables).
	Pace time.Duration
	// Learning, when non-nil, closes the training loop around the query:
	// its finished trace is harvested into the on-disk corpus, and — when
	// Selector is nil — the pipeline estimators are picked by the current
	// hot-swapped selector version, from v0 (always DNE) on
	// (Monitor.ModelVersion reports which).
	Learning *Learning
}

func (o MonitorOptions) withDefaults() MonitorOptions {
	if o.UpdateEvery <= 0 {
		o.UpdateEvery = 8
	}
	return o
}

// PipelineProgress is the live state of one pipeline inside a
// ProgressUpdate.
type PipelineProgress struct {
	// Pipeline is the pipeline index in the plan's decomposition.
	Pipeline int `json:"pipeline"`
	// Started and Done delimit the pipeline's activity.
	Started bool `json:"started"`
	Done    bool `json:"done"`
	// Estimator is the estimator currently chosen for this pipeline.
	Estimator Estimator `json:"-"`
	// EstimatorName is Estimator's name (for the JSON wire format).
	EstimatorName string `json:"estimator"`
	// Estimate is that estimator's current progress estimate in [0,1].
	Estimate float64 `json:"estimate"`
	// DriverFraction is the consumed fraction of the driver inputs.
	DriverFraction float64 `json:"driver_fraction"`
}

// ProgressUpdate is one live observation of a running query.
type ProgressUpdate struct {
	// Seq increases with every delivered update.
	Seq int `json:"seq"`
	// Time is the virtual clock of the underlying counter snapshot.
	Time float64 `json:"time"`
	// Query is the whole-query progress estimate: the eq. 5 weighted
	// combination of the per-pipeline estimates.
	Query float64 `json:"query"`
	// Pipelines is the per-pipeline state, indexed by pipeline.
	Pipelines []PipelineProgress `json:"pipelines"`
	// Done is true exactly once, on the final update.
	Done bool `json:"done"`
	// TrueProgress is the true (virtual-time) progress of the query: -1
	// while the query runs (the truth is unknowable before termination)
	// and 1 on the final update. The QueryRun Wait returns holds the full
	// true series.
	TrueProgress float64 `json:"true_progress"`
}

// Monitor is a handle on a query executing on its own goroutine. Updates
// delivers live ProgressUpdates while the query runs; it is conflated (a
// slow consumer sees the freshest update, not a backlog) and closed after
// the final Done update. Wait blocks until execution finishes and returns
// the completed QueryRun, read from the view that served the updates.
type Monitor struct {
	// Updates delivers live progress. The channel is closed when the query
	// completes; the last value delivered has Done == true.
	Updates <-chan ProgressUpdate

	// served is the registry version pinned at start (nil without
	// Learning or with an explicit Selector).
	served *feedback.Version
	family string
	shard  int
	class  string
	// obs assembles the updates; finish drops it, keeping only its view.
	obs *monitorObserver
	// release gives the admission slot back at the run's end (nil for a
	// run started directly on a Workload).
	release func()
	done    chan struct{}
	// view and err are the run's outcome, written by finish before done
	// closes: the finished view, or nil for an aborted run. run is read
	// off view by the first Wait.
	view    *progress.OnlineView
	err     error
	runOnce sync.Once
	run     *QueryRun
	// hist and lent are the snapshot history and the view a server-owned
	// run borrowed (nil for a library run, whose trace and view Wait
	// reads); handBack returns them.
	hist *exec.History
	lent *progress.OnlineView
}

// Wait blocks until the query completes and returns its QueryRun — the
// same one to every caller, read off the streaming view that served the
// run's updates. The run is built here, on the first waiter's
// goroutine: the serving paths never wait, and the executing goroutine
// has a slot to give back.
func (m *Monitor) Wait() (*QueryRun, error) {
	<-m.done
	if m.view != nil {
		m.runOnce.Do(func() { m.run = newQueryRun(m.view) })
	}
	return m.run, m.err
}

// ModelVersion returns the id of the hot-swapped selector version that
// serves this query — 0 for v0, the fixed DNE estimator — or 0 when no
// registry version applies (no Learning, or an explicit Selector). It is
// pinned at Start, so a swap mid-query never mixes models in one run.
func (m *Monitor) ModelVersion() int {
	if m.served == nil {
		return 0
	}
	return m.served.ID
}

// Family returns the workload family of the monitored query (see
// Workload.QueryFamily): its admission class and corpus tag.
func (m *Monitor) Family() string { return m.family }

// Shard returns the engine shard whose admission slot the query holds, or
// -1 when the query was started directly on a Workload rather than
// through an Engine.
func (m *Monitor) Shard() int { return m.shard }

// Class returns the admission class the query was admitted under — its
// workload family, suffixed "|client" for a client-tagged submission —
// or "" when the query was started directly on a Workload rather than
// through an Engine.
func (m *Monitor) Class() string { return m.class }

// monitorObserver adapts the exec event stream into conflated
// ProgressUpdates: it maintains the streaming OnlineView under the pick
// policy, and emits an update every n-th snapshot. The engine hands it
// whole segments of snapshots at once, so the per-snapshot work between
// two update marks collapses into one OnlineView advance plus one
// selector sweep — producing exactly the updates batches of one would.
type monitorObserver struct {
	view  *progress.OnlineView
	pick  selection.Policy
	every int
	pace  time.Duration
	// harvest, when non-nil, subscribes the learning harvester to the
	// completion event: the finished run is labelled from view and
	// appended to the corpus before the final update goes out.
	harvest func(view *progress.OnlineView, tr *exec.Trace)

	seq       int
	sinceSend int
	lastTime  float64
	ch        chan ProgressUpdate

	// deliver, when non-nil, replaces the channel send — a test hook that
	// captures the exact update stream without conflation.
	deliver func(ProgressUpdate)

	spare []PipelineProgress // recycled update buffer (see send)
}

func (m *monitorObserver) OnPipelineStart(st exec.PipelineStart) { m.pick.Start(m.view, st) }

func (m *monitorObserver) OnPipelineEnd(pipe int, end float64) { m.view.OnPipelineEnd(pipe, end) }
func (m *monitorObserver) OnThin(retained []exec.Snapshot)     { m.view.OnThin(retained) }

func (m *monitorObserver) OnDone(tr *exec.Trace) {
	m.view.OnDone(tr)
	if m.harvest != nil {
		m.harvest(m.view, tr)
	}
}

// OnSnapshots implements exec.Observer: the batch is consumed in
// segments bounded by the UpdateEvery mark, each segment advancing the
// view and re-picking estimators in one policy call, and emitting at most
// one update — the same updates whatever the batch size.
func (m *monitorObserver) OnSnapshots(batch []exec.Snapshot) {
	for len(batch) > 0 {
		n := m.every - m.sinceSend
		if n > len(batch) {
			n = len(batch)
		}
		seg := batch[:n]
		batch = batch[n:]
		m.pick.Advance(m.view, seg)
		m.lastTime = seg[n-1].Time
		m.sinceSend += n
		if m.sinceSend >= m.every {
			m.sinceSend = 0
			m.emit(false)
		}
	}
}

// emit assembles and delivers one update.
func (m *monitorObserver) emit(done bool) {
	u := m.update(done)
	if m.deliver != nil {
		m.deliver(u)
		return
	}
	m.send(u)
	if !done && m.pace > 0 {
		time.Sleep(m.pace)
	}
}

// update assembles the current ProgressUpdate.
func (m *monitorObserver) update(done bool) ProgressUpdate {
	u := ProgressUpdate{
		Seq:          m.seq,
		Time:         m.lastTime,
		Done:         done,
		TrueProgress: -1,
	}
	m.seq++
	u.Query = m.view.QueryEstimate(m.pick.Choice)
	buf := m.spare
	m.spare = nil
	if cap(buf) < len(m.view.Pipelines) {
		buf = make([]PipelineProgress, 0, len(m.view.Pipelines))
	} else {
		buf = buf[:0]
	}
	for pi, p := range m.view.Pipelines {
		kind := m.pick.Choice(pi)
		pp := PipelineProgress{
			Pipeline:      pi,
			Started:       p.Started,
			Done:          p.Ended || (done && !p.Started),
			Estimator:     kind,
			EstimatorName: kind.String(),
		}
		if p.Started && p.NumObs() > 0 {
			pp.DriverFraction = p.CurrentDriverFraction()
		}
		// A done pipeline shows 1; reading its estimate would build the
		// finished view's table.
		switch {
		case pp.Done:
			pp.Estimate = 1
		case p.Started && p.NumObs() > 0:
			pp.Estimate = p.Estimate(kind)
		}
		buf = append(buf, pp)
	}
	u.Pipelines = buf
	if done {
		u.TrueProgress = 1
	}
	return u
}

// send delivers conflated: if the consumer has not drained the previous
// update, it is replaced by the fresh one. This goroutine is the only
// sender, so after the drain the buffered send always succeeds. A drained
// stale update was never received by anyone, so its Pipelines buffer is
// exclusively ours again and backs the next assembly — at steady state
// with a slow (or absent) consumer, updates allocate nothing.
func (m *monitorObserver) send(u ProgressUpdate) {
	select {
	case stale := <-m.ch:
		m.spare = stale.Pipelines
	default:
	}
	m.ch <- u
}

// newMonitor is the one monitor set-up, shared by native queries
// (Workload.Start attaches exec.RunDecomposed as the counter source) and
// external sessions (an ingest.Runner synthesizes the same exec.Observer
// events from ingested counters, so the estimates are bit-identical):
// served-model resolution and validation, the streaming OnlineView and
// the harvest subscription. starts is the plan entry's cache of pipeline
// start contexts for a workload query, nil for a session (its plan is
// its own). queryIndex is -1 for a run that is not one of the bundled
// workload's queries — it harvests under its own workload and family
// tags, joining drift, retraining and canary serving exactly as native
// queries do. Whoever feeds the observer ends the run with
// Monitor.finish. A run the server owns, which never waits for its
// QueryRun, borrows (borrow true) its snapshot history and its view's
// memory from their free lists; whoever ends it hands them back with
// Monitor.handBack.
func newMonitor(pl *plan.Plan, pipes *pipeline.Decomposition, starts *progress.PlanCache, workloadName, family string, queryIndex int, opts MonitorOptions, borrow bool) (*Monitor, error) {
	// Resolve the selector: an explicit one wins; otherwise the run is
	// pinned to the learning registry's current version for its lifetime;
	// without either, DNE serves.
	sel := selection.Fixed(progress.DNE)
	var served *feedback.Version
	switch {
	case opts.Selector != nil:
		sel = opts.Selector.inner
	case opts.Learning != nil:
		served = opts.Learning.reg.Current()
		sel = served.Selector
	}
	for _, k := range sel.Kinds {
		if k < 0 || k >= progress.NumKinds {
			return nil, fmt.Errorf("progressest: selector candidate %v is not computable online", k)
		}
	}
	opts = opts.withDefaults()
	m := &Monitor{
		served: served,
		family: family,
		shard:  -1,
		done:   make(chan struct{}),
	}
	var view *progress.OnlineView
	if borrow {
		m.hist = exec.BorrowHistory()
		view = progress.BorrowOnlineView(pl, pipes, starts)
		m.lent = view
	} else {
		view = progress.NewCachedOnlineView(pl, pipes, starts)
	}
	obs := &monitorObserver{
		view:  view,
		pick:  selection.PolicyOn(sel, view),
		every: opts.UpdateEvery,
		pace:  opts.Pace,
		ch:    make(chan ProgressUpdate, 1),
	}
	if opts.Learning != nil {
		// The pinned served version rides along so the harvester can join
		// the run's eventual estimator errors back to the version that
		// served it — the drift monitor's signal.
		// Append errors land in the harvester's stats; the query must not
		// fail because the corpus is unavailable.
		harv := opts.Learning.harv
		obs.harvest = func(view *progress.OnlineView, tr *exec.Trace) {
			_, _ = harv.HarvestView(view, tr, workloadName, family, queryIndex, served)
		}
	}
	m.Updates, m.obs = obs.ch, obs
	return m, nil
}

// finish is the one end of a monitored run. With the completed trace
// (the observer has seen the full event stream, OnDone included) Wait
// yields its QueryRun and the final Done update goes out; with a nil
// trace the run was aborted and Wait yields err. Either way the admission
// slot comes back first — before the final update or Wait can tell
// anyone the run is over — then the update stream closes.
func (m *Monitor) finish(tr *exec.Trace, err error) {
	obs := m.obs
	m.obs = nil
	if tr != nil {
		m.view = obs.view
	}
	m.err = err
	if m.release != nil {
		m.release()
	}
	if tr != nil {
		// The final update replaces any stale value.
		obs.emit(true)
	}
	close(obs.ch)
	close(m.done)
}

// handBack gives a served run's borrowed memory — its snapshot history
// and its view's — back to their free lists, once nothing reads the run:
// after finish, and for a session after the mirror took the final
// update. tr is the finished trace, or nil for a run that ended without
// one. The view loses its pipelines and its trace with them, so a stray
// finished read panics instead of reading a later run's state.
func (m *Monitor) handBack(tr *exec.Trace) {
	m.lent.Release()
	m.lent = nil
	m.hist.Release(tr)
	m.hist = nil
}

// execute runs the plan to completion, feeding and finishing m. A served
// run records its snapshot history on the History it borrowed and hands
// it back, with its view's memory, on this goroutine once finished.
func (m *Monitor) execute(db *storage.Database, p *plan.Plan, pipes *pipeline.Decomposition, opts exec.Options) {
	if m.hist == nil {
		m.finish(exec.RunDecomposed(db, p, pipes, opts), nil)
		return
	}
	tr := m.hist.Run(db, p, pipes, opts)
	m.finish(tr, nil)
	m.handBack(tr)
}

// Start plans query i and executes it on its own goroutine, streaming
// live ProgressUpdates through the returned Monitor while the query runs.
func (w *Workload) Start(i int, opts MonitorOptions) (*Monitor, error) {
	m, run, err := w.prepare(i, opts, false)
	if err != nil {
		return nil, err
	}
	go run()
	return m, nil
}

// prepare plans query i and sets its monitor up; the returned function
// executes the query to completion, feeding and finishing the monitor.
// The split lets the Engine stamp placement on the monitor and attach the
// slot release before execution can reach them. served is newMonitor's
// borrow: the run is the server's.
func (w *Workload) prepare(i int, opts MonitorOptions, served bool) (*Monitor, func(), error) {
	if i < 0 || i >= len(w.inner.Queries) {
		return nil, nil, fmt.Errorf("progressest: query index %d out of range [0,%d)", i, len(w.inner.Queries))
	}
	pq, err := w.planned(i)
	if err != nil {
		return nil, nil, err
	}
	m, err := newMonitor(pq.plan, pq.pipes, pq.starts, w.inner.Spec.Name, w.inner.QueryFamily(i), i, opts, served)
	if err != nil {
		return nil, nil, err
	}
	// One snapshot batch per update tick: the engine conflates delivery
	// to the granularity updates are emitted at anyway.
	execOpts := exec.Options{Observer: m.obs, SnapshotBatch: m.obs.every}
	return m, func() { m.execute(w.inner.DB, pq.plan, pq.pipes, execOpts) }, nil
}
