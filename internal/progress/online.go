package progress

import (
	"sync"

	"progressest/internal/exec"
	"progressest/internal/pipeline"
	"progressest/internal/plan"
)

// OnlineView is the one implementation of the estimators: it implements
// exec.Observer, consumes counter snapshots as the query runs, and
// maintains every candidate estimator's estimate incrementally —
// O(pipeline nodes + estimators) work per snapshot. Once the run
// completes the view is its record: the finished-run reads
// (AppendSeries, AppendTrueSeries, Errors, Context, and the whole-query
// AppendQuerySeries, QueryErrors, QueryWeight) answer from a table of
// every pipeline's observations, one row per snapshot it was fed, plus
// the trace's true totals. A finished trace is read the same way:
// Replay builds the view from it.
//
// The trace is the only history. While the run is live a pipeline keeps
// no table: its latest row, and the rows at which its driver fraction
// first reached each marker level (MarkerRow) — what a pick reads. The
// first finished read builds the table from the trace, once, with the
// row function the live feed runs, so a run nobody reads after
// completion never pays for it.
//
// A view owns its memory, unless it is a served run's: BorrowOnlineView
// lends that view everything it allocates from a free list, and Release
// hands it back once the run is over.
type OnlineView struct {
	exec.BaseObserver

	Plan      *plan.Plan
	Pipes     *pipeline.Decomposition
	Pipelines []*OnlinePipeline

	// Trace is the finished trace, set by OnDone.
	Trace *exec.Trace

	// Reserve is a capacity hint for the finished table, in observations
	// per pipeline. The table is built once, at the first finished read,
	// when the trace already holds every row count, so each pipeline's
	// rows are sized exactly and the hint changes neither a result nor
	// an allocation.
	Reserve int

	snapCount int // retained snapshots seen so far (mirrors the trace sink)
	done      bool

	wbuf  []float64   // QueryEstimate weight scratch, reused across calls
	feat  []float64   // the one feature vector (OnlinePipeline.FeatureBuffer)
	cache *PlanCache  // shared start contexts of a cached plan, or nil
	mem   *viewMemory // the borrowed memory everything above is carved from, or nil

	// filled builds the finished table on the first finished read (see
	// materialize).
	filled sync.Once
}

// NewOnlineView prepares a streaming view for one execution of the plan,
// building every pipeline's start context privately. Pass it as
// exec.Options.Observer.
func NewOnlineView(p *plan.Plan, pipes *pipeline.Decomposition) *OnlineView {
	return NewCachedOnlineView(p, pipes, nil)
}

// NewCachedOnlineView is NewOnlineView for one run of a cached plan: a
// pipeline start takes its PipeContext and static feature prefix from
// cache (see PlanCache). A nil cache builds every context privately.
//
// The pipelines and their lastSig rows are carved from one slab each.
func NewCachedOnlineView(p *plan.Plan, pipes *pipeline.Decomposition, cache *PlanCache) *OnlineView {
	return newOnlineView(p, pipes, cache, nil)
}

// newOnlineView builds the view on memory carved from m, or allocated
// when m is nil.
func newOnlineView(p *plan.Plan, pipes *pipeline.Decomposition, cache *PlanCache, m *viewMemory) *OnlineView {
	n := len(pipes.Pipelines)
	o := &OnlineView{
		Plan:      p,
		Pipes:     pipes,
		Pipelines: lend(m, (*viewMemory).ptrSlab, n),
		wbuf:      lend(m, (*viewMemory).floatSlab, n),
		cache:     cache,
		mem:       m,
	}
	sigs := 0
	for _, pl := range pipes.Pipelines {
		sigs += 3 * len(pl.Nodes)
	}
	slab := lend(m, (*viewMemory).pipeSlab, n)
	sig := lend(m, (*viewMemory).sigSlab, sigs)
	for i, pl := range pipes.Pipelines {
		k := 3 * len(pl.Nodes)
		slab[i] = OnlinePipeline{pipe: pl, plan: p, view: o, lastSig: sig[:k:k]}
		sig = sig[k:]
		o.Pipelines[i] = &slab[i]
	}
	return o
}

// Replay returns the completed view of a finished trace. Its table is
// built from the trace on the first finished read, like any finished
// view's, and the trace's snapshots are not fed to it first: each row is
// computed once.
func Replay(tr *exec.Trace) *OnlineView {
	view := NewOnlineView(tr.Plan, tr.Pipes)
	exec.Replay(tr, replayed{view}, len(tr.Snapshots))
	return view
}

// replayed is a view as Replay drives it: it counts the snapshots
// instead of feeding them.
type replayed struct{ *OnlineView }

func (r replayed) OnSnapshots(batch []exec.Snapshot) { r.snapCount += len(batch) }

// Done reports whether the observed execution has completed.
func (o *OnlineView) Done() bool { return o.done }

// OnPipelineStart implements exec.Observer: it freezes the pipeline's
// static context from the driver totals known at start.
func (o *OnlineView) OnPipelineStart(st exec.PipelineStart) {
	p := o.Pipelines[st.Pipe]
	p.shared, p.PipeContext = o.cache.start(o.Plan, p.pipe, &st)
	p.Started = true
	p.StartTime = st.Time
	p.g0 = o.snapCount
	p.worst = newWorstState()
}

// OnSnapshots implements exec.Observer: for each snapshot of the batch,
// every started, still-active pipeline appends its current estimates —
// observation by observation, so the accumulated series do not depend on
// how the stream was cut into batches.
func (o *OnlineView) OnSnapshots(batch []exec.Snapshot) {
	for i := range batch {
		o.snapCount++
		for _, p := range o.Pipelines {
			if p.Started && !p.Ended {
				p.feed(&batch[i])
			}
		}
	}
}

// OnThin implements exec.Observer: the engine dropped the even 0-based
// ordinals of the retained snapshots, so every pipeline drops the same
// ones and re-derives what it keeps — its latest row, and before it
// settles its marker rows and the worst-case estimators' state — from
// the retained snapshots.
func (o *OnlineView) OnThin(retained []exec.Snapshot) {
	o.snapCount = len(retained)
	for _, p := range o.Pipelines {
		if p.Started {
			p.thin(retained)
		}
	}
}

// OnPipelineEnd implements exec.Observer. The engine reports ends only
// at completion, just before OnDone, which drops the observations past
// the span's end from the pipeline's series.
func (o *OnlineView) OnPipelineEnd(pi int, end float64) {
	p := o.Pipelines[pi]
	p.Ended = true
	p.EndTime = end
}

// OnDone implements exec.Observer: every ended pipeline keeps exactly the
// observations the finished trace attributes to it (Trace.ObsRange) —
// the rows it was fed up to its span's end; the table holds the rows
// after too, for the whole-query reads. The latest driver fraction, and
// a settled pipeline's served estimate, move back to the last in-span
// observation, read off the trace row.
func (o *OnlineView) OnDone(tr *exec.Trace) {
	o.Trace = tr
	o.done = true
	for pi, p := range o.Pipelines {
		if !p.Ended {
			continue
		}
		_, hi := tr.ObsRange(pi)
		p.n = max(0, hi-p.g0)
		if p.n > 0 {
			p.advance(&tr.Snapshots[p.g0+p.n-1])
		}
	}
}

// materialize builds every started pipeline's table — the post-span
// tail included — and its marker rows over its observations, from the
// finished trace, once: the first finished read runs it, and every later
// one, on any goroutine, reads what it built. The tables are carved from
// one slab.
func (o *OnlineView) materialize() {
	o.filled.Do(func() {
		o.carveMarks()
		rows := 0
		for _, p := range o.Pipelines {
			if p.Started {
				rows += o.snapCount - p.g0
			}
		}
		slab := lend(o.mem, (*viewMemory).rowSlab, rows)
		for _, p := range o.Pipelines {
			if p.Started {
				k := o.snapCount - p.g0
				p.fill(o.Trace.Snapshots[p.g0:o.snapCount], slab[:k:k])
				slab = slab[k:]
			}
		}
	})
}

// carveMarks gives every pipeline its marker rows, from one slab, the
// first time one is needed: a view whose picks all settle at pipeline
// start never allocates them until a finished read.
func (o *OnlineView) carveMarks() {
	if len(o.Pipelines) == 0 || o.Pipelines[0].marks != nil {
		return
	}
	k := len(markerLevels)
	slab := lend(o.mem, (*viewMemory).markSlab, k*len(o.Pipelines))
	for i, p := range o.Pipelines {
		p.marks = slab[i*k : (i+1)*k : (i+1)*k]
	}
}

// QueryEstimate is the whole-query estimate a monitor serves after the
// latest snapshot: eq. 5 (combine) at that snapshot, with estimator
// choose(p) for pipeline p — or 1 once the run is done, the value of the
// final update.
//
// QueryEstimate is not safe for concurrent calls on one view (the weight
// scratch is reused across calls); the monitor invokes it only from the
// executing goroutine.
func (o *OnlineView) QueryEstimate(choose func(p int) Kind) float64 {
	if o.done {
		return 1
	}
	// A started pipeline's estimate at the latest snapshot is its latest
	// one: it is fed every snapshot until the run ends.
	return o.combine(o.snapCount-1, o.wbuf, func(p, _ int) float64 {
		return o.Pipelines[p].Estimate(choose(p))
	})
}

// combine is eq. 5 of the paper at retained snapshot g, the one rule the
// live QueryEstimate and the finished AppendQuerySeries share: the
// weighted sum of the per-pipeline estimates, each pipeline weighted by
// its share of the estimated total work (weight). A pipeline started by
// g contributes est(p, g−g0), its estimate at the snapshot — a started
// pipeline is fed every snapshot until the run ends, so that row exists
// even past its span's end. A pipeline not yet started contributes zero.
// weights is scratch with one slot per pipeline.
func (o *OnlineView) combine(g int, weights []float64, est func(p, i int) float64) float64 {
	var total, sum float64
	for i, p := range o.Pipelines {
		weights[i] = o.weight(p, g)
		total += weights[i]
	}
	if total <= 0 {
		return 0
	}
	for i, p := range o.Pipelines {
		if p.startedBy(g) {
			sum += weights[i] / total * est(i, g-p.g0)
		}
	}
	return clamp01(sum)
}

// weight is pipeline p's unnormalised eq. 5 weight at retained snapshot
// g, its estimated total GetNext calls: ΣE0 over its nodes from its start
// context once it has started by g, the plan-time ΣEstRows before. (The
// paper weights by driver-node E_i; the total GetNext count reduces to
// the same weights for single-driver pipelines and is well-defined for
// every estimator kind.)
func (o *OnlineView) weight(p *OnlinePipeline, g int) float64 {
	started := p.startedBy(g)
	var w float64
	for _, id := range p.pipe.Nodes {
		if started {
			w += p.E0[id]
		} else {
			w += o.Plan.Node(id).EstRows
		}
	}
	return w
}

// The finished-run reads below need the completed view (OnDone has
// fired). Past the one materialization they write nothing, so any number
// of goroutines may call them.

// Context returns pipeline p's static context: the one frozen at its
// start, or — for a pipeline that never started — the one the trace's
// driver totals determine.
func (o *OnlineView) Context(p int) *PipeContext {
	if c := o.Pipelines[p].PipeContext; c != nil {
		return c
	}
	return NewPipeContext(o.Plan, o.Pipelines[p].pipe, o.Trace.DriverTotalsKnown[p], o.Trace.DriverTotal)
}

// AppendSeries appends estimator kind's series over pipeline p's
// observations to dst. A selectable estimator's series is the view's
// own; an oracle model divides by the finished trace's true totals —
// OracleGetNext the GetNext sums the table holds, OracleBytes one
// bytes-processed pass over the pipeline's snapshots.
func (o *OnlineView) AppendSeries(dst []float64, p int, kind Kind) []float64 {
	return o.appendRows(dst, p, kind, o.Pipelines[p].n)
}

// appendRows is AppendSeries over the pipeline's first rows rows of the
// finished table, which may reach into the post-span tail OnDone drops
// from the series but leaves in the table.
func (o *OnlineView) appendRows(dst []float64, p int, kind Kind, rows int) []float64 {
	pl := o.Pipelines[p]
	switch {
	case kind < NumKinds:
		return pl.appendRows(dst, kind, rows)
	case rows == 0:
	case kind == OracleGetNext:
		total := pl.oracleGetNextTotal(o.Trace)
		for _, r := range pl.table(rows) {
			dst = append(dst, ratio(r.kNodes, total))
		}
	case kind == OracleBytes:
		total := pl.oracleBytesTotal(o.Trace)
		for i := pl.g0; i < pl.g0+rows; i++ {
			dst = append(dst, ratio(pl.luoDoneAt(&o.Trace.Snapshots[i]), total))
		}
	default:
		panic("progress: unknown estimator kind " + kind.String())
	}
	return dst
}

// AppendTrueSeries appends the true progress of pipeline p at each of
// its observations to dst.
func (o *OnlineView) AppendTrueSeries(dst []float64, p int) []float64 {
	lo, _ := o.Trace.ObsRange(p)
	for i := lo; i < lo+o.Pipelines[p].n; i++ {
		dst = append(dst, o.Trace.TruePipelineProgress(p, i))
	}
	return dst
}

// Errors returns estimator kind's error statistics on pipeline p against
// true pipeline progress (measured in virtual time, as the paper
// measures wall time).
func (o *OnlineView) Errors(p int, kind Kind) ErrorStats {
	dev := o.AppendSeries(nil, p, kind)
	for i, v := range o.AppendTrueSeries(nil, p) {
		dev[i] -= v
	}
	return ErrorStatsOf(dev)
}

// AppendQuerySeries appends the whole-query progress served at each
// retained snapshot of the run to dst, with estimator choose(p) for
// pipeline p: eq. 5 (combine) at every snapshot but the last, where the
// final update's value, 1, stands. A pipeline's estimates are read over
// every snapshot it was fed — past its span's end, the rows that hold
// its final counters, as served — and oracle kinds are read the way
// AppendSeries reads them.
func (o *OnlineView) AppendQuerySeries(dst []float64, choose func(p int) Kind) []float64 {
	series := make([][]float64, len(o.Pipelines))
	for p, pl := range o.Pipelines {
		if pl.Started {
			series[p] = o.appendRows(nil, p, choose(p), o.snapCount-pl.g0)
		}
	}
	weights := make([]float64, len(o.Pipelines))
	est := func(p, i int) float64 { return series[p][i] }
	last := len(o.Trace.Snapshots) - 1
	for g := 0; g < last; g++ {
		dst = append(dst, o.combine(g, weights, est))
	}
	if last >= 0 {
		dst = append(dst, 1)
	}
	return dst
}

// AppendQueryTrueSeries appends the true whole-query progress (virtual
// time) at each retained snapshot to dst.
func (o *OnlineView) AppendQueryTrueSeries(dst []float64) []float64 {
	for i := range o.Trace.Snapshots {
		dst = append(dst, o.Trace.TrueProgress(i))
	}
	return dst
}

// QueryErrors returns the error statistics of the whole-query series
// served with estimator kind for every pipeline.
func (o *OnlineView) QueryErrors(kind Kind) ErrorStats {
	dev := o.AppendQuerySeries(nil, func(int) Kind { return kind })
	for i, v := range o.AppendQueryTrueSeries(nil) {
		dev[i] -= v
	}
	return ErrorStatsOf(dev)
}

// QueryWeight returns pipeline p's normalised eq. 5 weight at the run's
// last retained snapshot: the weight the served combination ended with.
func (o *OnlineView) QueryWeight(p int) float64 {
	g := len(o.Trace.Snapshots) - 1
	var total float64
	for _, pl := range o.Pipelines {
		total += o.weight(pl, g)
	}
	if total <= 0 {
		return 0
	}
	return o.weight(o.Pipelines[p], g) / total
}

// OnlinePipeline is the incremental estimator state of one pipeline: the
// static PipeContext (frozen at pipeline start) plus what a pick reads of
// its observations.
//
// Live, a pipeline keeps its latest row and, until it settles, the rows
// at which its driver fraction first reached each marker level
// (Markers): a pick reads nothing else. Once settled — its pick final —
// an observation only advances the served estimate and the driver
// fraction. The table of every row exists only once the run is done (see
// OnlineView.materialize); reading it, or a settled pipeline's marker
// rows, before then panics.
//
// A pipeline, its lastSig row, its marker rows and its share of the
// finished table are carved from its view's slabs — lent by the free
// list on a borrowed view — and its full feature vector is assembled in
// the view's one buffer (FeatureBuffer), not in one of its own.
type OnlinePipeline struct {
	*PipeContext

	Started bool
	Ended   bool
	// StartTime and EndTime bound the pipeline's activity span (EndTime is
	// valid once Ended).
	StartTime float64
	EndTime   float64

	// static is the static feature prefix once computed (see
	// StaticPrefix). shared is the cached plan's start state the
	// PipeContext came from, nil for a private context.
	static []float64
	shared *startContext

	pipe *pipeline.Pipeline
	plan *plan.Plan
	view *OnlineView

	// n is the observations fed. OnDone drops the post-span tail from n,
	// not from the table: the query reads still see those rows.
	n int
	// g0 is the retained global snapshot index of the first snapshot
	// after the pipeline's start, its observation 0. A started pipeline
	// is fed every snapshot until it ends, so observation i is global
	// snapshot g0+i — before and after a thin.
	g0 int

	// last is the latest observation's row: every column until the
	// pipeline settles, the driver fraction and served estimate after.
	last  obsRow
	worst worstState // the worst-case estimators' fold, through last

	// marks[:reached] are the rows at the first observations reaching
	// marker levels 0..reached-1, carved from the view's slab.
	marks   []MarkerRow
	reached int

	// rows is the finished table, one row per snapshot fed (see
	// OnlineView.materialize).
	rows []obsRow

	// lastSig caches the previous snapshot's K/R/W values over the
	// pipeline's nodes; when unchanged, the previous estimates are reused
	// verbatim (they are pure functions of these counters).
	lastSig []int64
	valid   bool // lastSig corresponds to the row last recorded

	// settled reports that the pick is final: served is the estimator
	// served to the end of the run.
	settled bool
	served  Kind
}

// obsRow is one observation: the snapshot's virtual time, the driver
// fraction, the GetNext sum over the pipeline's nodes (the OracleGetNext
// numerator), and every selectable estimate.
type obsRow struct {
	time, frac, kNodes float64
	est                [NumKinds]float64
}

// table returns the finished table's first rows rows. It exists only
// once the run is done, after the view's one materialization.
func (p *OnlinePipeline) table(rows int) []obsRow {
	if !p.view.done {
		panic("progress: a pipeline's observation table is read before the run is done")
	}
	p.view.materialize()
	return p.rows[:rows]
}

// Settle makes kind the pipeline's final pick: from the next snapshot on
// the pipeline advances only kind's estimate and the driver fraction.
// PMAX and SAFE are functions of the whole history, so a pipeline they
// serve never settles.
func (p *OnlinePipeline) Settle(kind Kind) {
	if p.settled || kind == PMAX || kind == SAFE {
		return
	}
	p.settled, p.served = true, kind
}

// StaticPrefix returns the pipeline's static feature prefix, built from
// the PipeContext by build on first use. A pipeline whose context came
// from a PlanCache takes the prefix an earlier run of the plan published
// there, or publishes its own: the slice is shared read-only by every run
// of the plan, so callers must not modify it.
func (p *OnlinePipeline) StaticPrefix(build func(*PipeContext) []float64) []float64 {
	if p.static == nil {
		if p.shared == nil {
			p.static = build(p.PipeContext)
		} else {
			if p.shared.static.Load() == nil {
				s := build(p.PipeContext)
				p.shared.static.CompareAndSwap(nil, &s)
			}
			p.static = *p.shared.static.Load()
		}
	}
	return p.static
}

// startedBy reports whether the pipeline had started by retained
// snapshot g.
func (p *OnlinePipeline) startedBy(g int) bool { return p.Started && g >= p.g0 }

// NumObs returns the number of observations recorded for the pipeline.
func (p *OnlinePipeline) NumObs() int { return p.n }

// Estimate returns estimator kind's current (latest) value, or 0 before
// the first observation. A settled pipeline holds only its served
// estimate live; on a finished view any kind is read off the table.
func (p *OnlinePipeline) Estimate(kind Kind) float64 {
	switch {
	case p.n == 0:
		return 0
	case p.settled && kind == p.served:
	case p.view.done:
		return p.table(p.n)[p.n-1].est[kind]
	case p.settled:
		panic("progress: an estimate a settled pipeline no longer advances is read before the run is done")
	}
	return p.last.est[kind]
}

// CurrentDriverFraction returns the latest driver fraction (0 before the
// first observation).
func (p *OnlinePipeline) CurrentDriverFraction() float64 {
	if p.n == 0 {
		return 0
	}
	return p.last.frac
}

// Markers returns the rows at which the pipeline's driver fraction first
// reached each marker level, in level order (see MarkerLevel): level l is
// reached iff l < len(rows). On a finished view they are those of the
// pipeline's observations, after the view's one materialization; live,
// those of the observations fed so far — which a settled pipeline no
// longer tracks, so reading its rows before the run is done panics.
func (p *OnlinePipeline) Markers() []MarkerRow {
	switch {
	case p.view.done:
		p.view.materialize()
	case p.settled:
		panic("progress: a settled pipeline's marker rows are read before the run is done")
	}
	return p.marks[:p.reached]
}

// MarkersCrossed returns how many of the Markers the pipeline's driver
// fraction has reached.
func (p *OnlinePipeline) MarkersCrossed() int { return markersAt[p.reached] }

// Rows is a read handle on a finished pipeline's observations, from
// OnlinePipeline.Rows.
type Rows struct {
	t     []obsRow
	start float64
}

// Rows returns the handle that reads the pipeline's NumObs observations
// off the finished table; it panics before the run is done.
func (p *OnlinePipeline) Rows() Rows { return Rows{p.table(p.n), p.StartTime} }

// EstimateAt returns estimator kind's value at observation ordinal i.
func (r Rows) EstimateAt(kind Kind, i int) float64 { return r.t[i].est[kind] }

// DriverFraction returns the consumed driver-input fraction at
// observation ordinal i.
func (r Rows) DriverFraction(i int) float64 { return r.t[i].frac }

// TimeSinceStart returns the virtual time elapsed since the pipeline's
// start at observation ordinal i.
func (r Rows) TimeSinceStart(i int) float64 { return r.t[i].time - r.start }

// AppendSeries appends estimator kind's accumulated series to dst and
// returns the extended slice — the alloc-free counterpart of Series for
// callers that reuse a scratch buffer across reads.
func (p *OnlinePipeline) AppendSeries(dst []float64, kind Kind) []float64 {
	return p.appendRows(dst, kind, p.n)
}

// appendRows appends estimator kind's first rows values to dst.
func (p *OnlinePipeline) appendRows(dst []float64, kind Kind, rows int) []float64 {
	for _, r := range p.table(rows) {
		dst = append(dst, r.est[kind])
	}
	return dst
}

// Series returns a copy of estimator kind's accumulated series.
func (p *OnlinePipeline) Series(kind Kind) []float64 {
	return p.AppendSeries(nil, kind)
}

// UnrefinedTGNSeries returns the TGN estimator *without* any online
// refinement of cardinality estimates: sum(K) over the raw plan-time
// sum(E_i^0), clamped to [0,1], from the GetNext sums the table holds. It
// quantifies how much the Section 3.3 refinement techniques contribute
// (the paper's concluding outlook points at online cardinality
// refinement as the main lever for further progress-estimation gains).
func (p *OnlinePipeline) UnrefinedTGNSeries() []float64 {
	var e0 float64
	for _, id := range p.pipe.Nodes {
		e0 += p.plan.Node(id).EstRows
	}
	out := make([]float64, p.n)
	for i, r := range p.table(p.n) {
		out[i] = ratio(r.kNodes, e0)
	}
	return out
}

// feed advances the pipeline by one snapshot: the latest row and the
// marker rows it reaches until it settles, the served estimate and
// driver fraction after.
func (p *OnlinePipeline) feed(s *exec.Snapshot) {
	if p.settled {
		p.advance(s)
	} else {
		if p.marks == nil {
			p.view.carveMarks()
		}
		p.record(&p.last, s, &p.worst)
		p.mark(p.n, &p.last)
	}
	p.n++
}

// advance moves the latest row to snapshot s as far as a settled
// pipeline reads it: the driver fraction, and the served estimate.
func (p *OnlinePipeline) advance(s *exec.Snapshot) {
	p.last.time = s.Time
	p.last.frac = p.driverFractionAt(s)
	if p.settled {
		p.last.est[p.served] = p.estimate(p.served, s)
	}
}

// record is the row function: it advances r, the row of the snapshot
// recorded before (if lastSig is valid), to snapshot s, folding the
// worst-case estimators into st. Counters identical to the previous
// snapshot's repeat its row at s's time: every estimator is a pure
// function of them (and a repeated row leaves the fold unchanged). The
// sums each estimator shares are computed once.
func (p *OnlinePipeline) record(r *obsRow, s *exec.Snapshot, st *worstState) {
	r.time = s.Time
	if p.unchanged(s) {
		return
	}
	k, e := p.sums(p.Pipe.Nodes, s)
	dk, de := p.sums(p.Pipe.Drivers, s)
	frac := ratio(dk, de)
	r.frac, r.kNodes = frac, k
	r.est[DNE] = frac
	r.est[TGN] = ratio(k, e)
	r.est[BATCHDNE] = p.ratioAt(p.batchDrivers, s)
	r.est[DNESEEK] = p.ratioAt(p.seekDrivers, s)
	r.est[TGNINT] = tgnint(k, e, frac)
	r.est[LUO] = p.luo(s, frac)
	r.est[PMAX], r.est[SAFE] = worstStep(st, k, dk, de)
	p.remember(s)
}

// mark keeps row r, observation i, at every marker level it is the
// first to reach. Levels ascend and a row reaching one reaches every
// lower one, so the forward pass finds each level's first reaching
// observation whether or not the driver fraction moves monotonically.
func (p *OnlinePipeline) mark(i int, r *obsRow) {
	for p.reached < len(markerLevels) && r.frac >= markerLevels[p.reached] {
		p.marks[p.reached] = MarkerRow{Obs: i, Elapsed: r.time - p.StartTime, Est: r.est}
		p.reached++
	}
}

// fill builds the finished table from the snapshots the pipeline was fed
// (observation i is snaps[i]) into rows, and the marker rows over its
// observations.
func (p *OnlinePipeline) fill(snaps []exec.Snapshot, rows []obsRow) {
	st := newWorstState()
	p.valid = false
	p.reached = 0
	var r obsRow
	for i := range snaps {
		p.record(&r, &snaps[i], &st)
		rows[i] = r
		if i < p.n {
			p.mark(i, &r)
		}
	}
	p.rows = rows
}

// unchanged reports whether the snapshot's counters over the pipeline's
// nodes equal the previously remembered ones.
func (p *OnlinePipeline) unchanged(s *exec.Snapshot) bool {
	if !p.valid {
		return false
	}
	for i, id := range p.Pipe.Nodes {
		j := 3 * i
		if p.lastSig[j] != s.K[id] || p.lastSig[j+1] != s.R[id] || p.lastSig[j+2] != s.W[id] {
			return false
		}
	}
	return true
}

func (p *OnlinePipeline) remember(s *exec.Snapshot) {
	for i, id := range p.Pipe.Nodes {
		j := 3 * i
		p.lastSig[j], p.lastSig[j+1], p.lastSig[j+2] = s.K[id], s.R[id], s.W[id]
	}
	p.valid = true
}

// thin mirrors the engine's history thinning: observations whose retained
// global index is even are dropped (global index g becomes (g-1)/2, so
// the survivors stay consecutive), and what the pipeline keeps is
// re-derived from the survivors, retained[g0:g0+n]: a settled pipeline's
// latest row; an unsettled one's latest row, its marker rows — a thin
// can change which observation first reaches a level — and the
// worst-case fold, whose fan-out bound m derives from the deltas of the
// retained observations, exactly as a replay of the thinned trace
// computes it.
func (p *OnlinePipeline) thin(retained []exec.Snapshot) {
	// The odd global indices in [g0, g0+n).
	p.n = (p.g0+p.n)/2 - p.g0/2
	p.g0 /= 2
	snaps := retained[p.g0 : p.g0+p.n]
	if p.settled {
		if p.n > 0 {
			p.advance(&snaps[p.n-1])
		}
		return
	}
	p.worst = newWorstState()
	p.valid = false
	p.reached = 0
	for i := range snaps {
		p.record(&p.last, &snaps[i], &p.worst)
		p.mark(i, &p.last)
	}
}
