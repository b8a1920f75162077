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
// completes the view is its record: each pipeline holds exactly the
// observations the finished trace attributes to it, and the finished-run
// reads (AppendSeries, AppendTrueSeries, Errors, Context, and the
// whole-query AppendQuerySeries, QueryErrors, QueryWeight) answer from
// what the view accumulated plus the trace's true totals. A finished
// trace is read the same way: Replay feeds it through a fresh view.
//
// A view keeps only the history a pick can still read. Once a
// pipeline's pick is final (OnlinePipeline.Settle), a snapshot advances
// just the served estimator and the driver fraction; the rows after the
// settle point are deferred. The first finished read fills them in from
// the trace, once, with the same row function the live feed runs — so
// the finished reads are those of a view that never settled, and a run
// nobody reads after completion never pays for them.
type OnlineView struct {
	exec.BaseObserver

	Plan      *plan.Plan
	Pipes     *pipeline.Decomposition
	Pipelines []*OnlinePipeline

	// Trace is the finished trace, set by OnDone.
	Trace *exec.Trace

	// Reserve, when positive, allocates each pipeline's observation
	// storage for this many observations at pipeline start, so feeding
	// snapshots allocates nothing until the reservation is exceeded.
	// Without it storage is allocated a chunk at a time, as observations
	// arrive — what the live monitor does: most pipelines stay far below
	// the engine's observation target.
	Reserve int

	snapCount int // retained snapshots seen so far (mirrors the trace sink)
	done      bool

	wbuf  []float64  // QueryEstimate weight scratch, reused across calls
	cache *PlanCache // shared start contexts of a cached plan, or nil

	// filled materializes the settled pipelines' deferred rows on the
	// first finished read (see materialize).
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
	n := len(pipes.Pipelines)
	o := &OnlineView{
		Plan:      p,
		Pipes:     pipes,
		Pipelines: make([]*OnlinePipeline, n),
		wbuf:      make([]float64, n),
		cache:     cache,
	}
	sigs := 0
	for _, pl := range pipes.Pipelines {
		sigs += 3 * len(pl.Nodes)
	}
	slab := make([]OnlinePipeline, n)
	sig := make([]int64, sigs)
	for i, pl := range pipes.Pipelines {
		k := 3 * len(pl.Nodes)
		slab[i] = OnlinePipeline{pipe: pl, plan: p, view: o, lastSig: sig[:k:k]}
		sig = sig[k:]
		o.Pipelines[i] = &slab[i]
	}
	return o
}

// Replay feeds a finished trace through a fresh view, as one batch, and
// returns the completed view.
func Replay(tr *exec.Trace) *OnlineView {
	view := NewOnlineView(tr.Plan, tr.Pipes)
	exec.Replay(tr, view, len(tr.Snapshots))
	return view
}

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
	p.reserve(o.Reserve)
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
// ones and rebuilds the history-dependent estimator state.
func (o *OnlineView) OnThin() {
	o.snapCount /= 2
	for _, p := range o.Pipelines {
		if p.Started {
			p.thin()
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
// the rows it was fed up to its span's end; the rows after stay in the
// table for the whole-query reads. A settled pipeline's latest values
// move back to its last in-span observation, read off the trace row.
func (o *OnlineView) OnDone(tr *exec.Trace) {
	o.Trace = tr
	o.done = true
	for pi, p := range o.Pipelines {
		if !p.Ended {
			continue
		}
		_, hi := tr.ObsRange(pi)
		p.n = max(0, hi-p.g0)
		if p.settled && p.n > 0 {
			p.live[1] = p.liveAt(&tr.Snapshots[p.g0+p.n-1])
		}
	}
}

// materialize fills in every settled pipeline's deferred rows — the
// post-span tail included — from the finished trace, once: the first
// finished read that reaches a settled pipeline's table runs it, and
// every later one, on any goroutine, reads the filled table.
func (o *OnlineView) materialize() {
	o.filled.Do(func() {
		for _, p := range o.Pipelines {
			if p.settled {
				p.fill(o.Trace.Snapshots[p.g0:o.snapCount])
			}
		}
	})
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
// observation table, which may reach into the post-span tail
// OnPipelineEnd drops from the series but leaves in the table.
func (o *OnlineView) appendRows(dst []float64, p int, kind Kind, rows int) []float64 {
	pl := o.Pipelines[p]
	switch {
	case kind < NumKinds:
		return pl.appendRows(dst, kind, rows)
	case rows == 0:
	case kind == OracleGetNext:
		pl.readable(rows)
		total := pl.oracleGetNextTotal(o.Trace)
		for i := 0; i < rows; i++ {
			dst = append(dst, oracleRatio(pl.at(colKNodes, i), total))
		}
	case kind == OracleBytes:
		total := pl.oracleBytesTotal(o.Trace)
		for i := pl.g0; i < pl.g0+rows; i++ {
			dst = append(dst, oracleRatio(pl.luoDoneAt(&o.Trace.Snapshots[i]), total))
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
// static PipeContext (frozen at pipeline start) plus the accumulated
// per-observation estimates of every candidate estimator.
//
// Until it settles, every observation appends a row of every estimate
// to the pipeline's table: the picks read that history. Once settled —
// its pick final — an observation only advances the served estimate and
// the driver fraction; the table keeps the rows up to the settle point,
// thinned as the history is, and a finished read fills in the rest (see
// OnlineView.materialize). Reading a deferred row before the run is done
// panics.
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

	// FeatBuf is the reusable scratch the features package assembles the
	// full online feature vector into, so a selector re-pick allocates
	// nothing at steady state. Owned by features.OnlineFull; callers must
	// consume the returned vector before the next pick on this pipeline.
	FeatBuf []float64

	pipe *pipeline.Pipeline
	plan *plan.Plan
	view *OnlineView

	// The observation table: one column per obsCols value (see the col
	// constants), one row per observation, in fixed-size chunks allocated
	// as the pipeline's history grows — growing moves nothing, and a
	// pipeline holds what its observation count needs, to within a chunk.
	chunks []*obsChunk
	// n is the observations held. OnDone drops the post-span tail from n,
	// not from the table: the query reads still see those rows.
	n int
	// kept is the rows the table holds: every row fed until the pipeline
	// settles, the rows up to the settle point after.
	kept int
	// g0 is the retained global snapshot index of the first snapshot
	// after the pipeline's start, its observation 0. A started pipeline
	// is fed every snapshot until it ends, so observation i is global
	// snapshot g0+i — before and after a thin.
	g0 int

	worst worstState

	// lastSig caches the previous snapshot's K/R/W values over the
	// pipeline's nodes; when unchanged, the previous estimates are reused
	// verbatim (they are pure functions of these counters).
	lastSig []int64
	valid   bool // lastSig corresponds to the last appended observation

	// settled reports that the pick is final: served is the estimator
	// served to the end of the run, and live holds the driver fraction and
	// served estimate at the latest observation (live[1]) and the one
	// before it (live[0], the latest again should a thin drop live[1]).
	settled bool
	served  Kind
	live    [2]liveObs
}

// liveObs is what a settled pipeline keeps of one observation.
type liveObs struct{ frac, est float64 }

// Columns of the observation table: the snapshot's virtual time, the
// driver fraction, the three sums the worst-case (PMAX/SAFE) state is
// rebuilt from after thinning, then one estimate per kind.
const (
	colTime = iota
	colFrac
	colKNodes
	colKDrivers
	colEDrivers
	colEst
	obsCols = colEst + int(NumKinds)
)

// obsChunkRows is the table's growth step: a third of the benchmark's
// pipelines never outgrow one chunk (6.5 KB), the longest take 14.
const obsChunkRows = 64

// obsChunk holds obsChunkRows observations column by column, so a scan
// down one column — the marker searches of the dynamic features — reads
// consecutive words.
type obsChunk [obsCols][obsChunkRows]float64

// slot returns observation i's chunk and its row there.
func (p *OnlinePipeline) slot(i int) (*obsChunk, int) {
	return p.chunks[i/obsChunkRows], i % obsChunkRows
}

// at returns column col of observation i.
func (p *OnlinePipeline) at(col, i int) float64 {
	return p.chunks[i/obsChunkRows][col][i%obsChunkRows]
}

// reserve makes room for n observations.
func (p *OnlinePipeline) reserve(n int) {
	for len(p.chunks)*obsChunkRows < n {
		p.chunks = append(p.chunks, new(obsChunk))
	}
}

// readable makes the table's first rows rows readable. A settled
// pipeline's deferred rows exist only once the run is done, after the
// view's one materialization; before, reading one panics rather than
// return a row never computed.
func (p *OnlinePipeline) readable(rows int) {
	switch {
	case !p.settled:
	case p.view.done:
		p.view.materialize()
	case rows > p.kept:
		panic("progress: observation deferred past the pipeline's settle point read before the run is done")
	}
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
	for j := range p.live {
		if i := p.n - len(p.live) + j; i >= 0 {
			p.live[j] = liveObs{p.at(colFrac, i), p.at(colEst+int(kind), i)}
		}
	}
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
// the first observation.
func (p *OnlinePipeline) Estimate(kind Kind) float64 {
	if p.n == 0 {
		return 0
	}
	if p.settled && kind == p.served {
		return p.live[1].est
	}
	return p.Rows().EstimateAt(kind, p.n-1)
}

// Rows is a read handle on a pipeline's observations, from
// OnlinePipeline.Rows: a scan pays the readability check once, and each
// read is a plain load.
type Rows struct{ p *OnlinePipeline }

// Rows makes the pipeline's NumObs observations readable and returns the
// handle that reads them: on a finished view after the one
// materialization; live, it panics once the pipeline has settled and
// been fed since, as the latest observation is then deferred.
func (p *OnlinePipeline) Rows() Rows {
	p.readable(p.n)
	return Rows{p}
}

// EstimateAt returns estimator kind's value at observation ordinal i.
func (r Rows) EstimateAt(kind Kind, i int) float64 { return r.p.at(colEst+int(kind), i) }

// DriverFraction returns the consumed driver-input fraction at
// observation ordinal i.
func (r Rows) DriverFraction(i int) float64 { return r.p.at(colFrac, i) }

// TimeSinceStart returns the virtual time elapsed since the pipeline's
// start at observation ordinal i.
func (r Rows) TimeSinceStart(i int) float64 { return r.p.at(colTime, i) - r.p.StartTime }

// AppendSeries appends estimator kind's accumulated series to dst and
// returns the extended slice — the alloc-free counterpart of Series for
// callers that reuse a scratch buffer across reads.
func (p *OnlinePipeline) AppendSeries(dst []float64, kind Kind) []float64 {
	return p.appendRows(dst, kind, p.n)
}

// appendRows appends estimator kind's first rows values to dst.
func (p *OnlinePipeline) appendRows(dst []float64, kind Kind, rows int) []float64 {
	p.readable(rows)
	for left, ci := rows, 0; left > 0; left, ci = left-obsChunkRows, ci+1 {
		dst = append(dst, p.chunks[ci][colEst+int(kind)][:min(left, obsChunkRows)]...)
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
	p.readable(p.n)
	var e0 float64
	for _, id := range p.pipe.Nodes {
		e0 += p.plan.Node(id).EstRows
	}
	out := make([]float64, p.n)
	for i := range out {
		out[i] = oracleRatio(p.at(colKNodes, i), e0)
	}
	return out
}

// CurrentDriverFraction returns the latest driver fraction (0 before the
// first observation).
func (p *OnlinePipeline) CurrentDriverFraction() float64 {
	if p.n == 0 {
		return 0
	}
	if p.settled {
		return p.live[1].frac
	}
	return p.Rows().DriverFraction(p.n - 1)
}

// feed advances the pipeline by one snapshot: a row of every estimate
// until it settles, the served estimate and driver fraction after.
func (p *OnlinePipeline) feed(s *exec.Snapshot) {
	p.n++
	if p.settled {
		p.live[0], p.live[1] = p.live[1], p.liveAt(s)
		return
	}
	i := p.kept
	p.kept++
	if p.record(i, s) {
		c, r := p.slot(i)
		c[colEst+int(PMAX)][r], c[colEst+int(SAFE)][r] = worstStep(&p.worst, c[colKNodes][r], c[colKDrivers][r], c[colEDrivers][r])
	}
}

// liveAt is what a settled pipeline keeps of snapshot s.
func (p *OnlinePipeline) liveAt(s *exec.Snapshot) liveObs {
	return liveObs{p.driverFractionAt(s), p.estimate(p.served, s)}
}

// record is the row function: it writes observation i's row from
// snapshot s — every column but the worst-case estimators', which the
// caller folds (worstStep) — and reports whether it computed the row.
// Counters identical to the previous observation's repeat that row
// whole: every estimator is a pure function of them (and of state that
// only moves when they move).
func (p *OnlinePipeline) record(i int, s *exec.Snapshot) bool {
	p.reserve(i + 1)
	c, r := p.slot(i)
	c[colTime][r] = s.Time
	if p.unchanged(s) {
		pc, pr := p.slot(i - 1)
		for col := colTime + 1; col < obsCols; col++ {
			c[col][r] = pc[col][pr]
		}
		return false
	}
	c[colFrac][r] = p.driverFractionAt(s)
	k, _ := p.sums(p.Pipe.Nodes, s)
	dk, de := p.sums(p.Pipe.Drivers, s)
	c[colKNodes][r], c[colKDrivers][r], c[colEDrivers][r] = k, dk, de
	est := c[colEst:]
	est[DNE][r] = p.ratioAt(p.Pipe.Drivers, s)
	est[TGN][r] = p.ratioAt(p.Pipe.Nodes, s)
	est[BATCHDNE][r] = p.ratioAt(p.batchDrivers, s)
	est[DNESEEK][r] = p.ratioAt(p.seekDrivers, s)
	est[TGNINT][r] = p.tgnintAt(s)
	est[LUO][r] = p.luoAt(s)
	p.remember(s)
	return true
}

// fill computes the rows a settled pipeline deferred, from the snapshots
// it was fed (observation i is snaps[i]), and refolds the worst-case
// estimators over the whole table.
func (p *OnlinePipeline) fill(snaps []exec.Snapshot) {
	for i := p.kept; i < len(snaps); i++ {
		p.record(i, &snaps[i])
	}
	p.kept = len(snaps)
	p.rebuildWorst()
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
// global index is even are dropped, the survivors move down the table
// (global index g becomes (g-1)/2, so they stay consecutive), and the
// history-dependent worst-case series is rebuilt over what remains. A
// settled pipeline's deferred observations thin by count alone.
func (p *OnlinePipeline) thin() {
	if p.settled && (p.g0+p.n-1)%2 == 0 {
		p.live[1] = p.live[0]
	}
	w := 0
	for r := 1 - p.g0%2; r < p.kept; r += 2 {
		wc, wr := p.slot(w)
		rc, rr := p.slot(r)
		for col := range wc {
			wc[col][wr] = rc[col][rr]
		}
		w++
	}
	// The odd global indices in [g0, g0+n).
	p.n = (p.g0+p.n)/2 - p.g0/2
	p.g0 /= 2
	p.kept = w
	p.rebuildWorst()
	// The last retained observation may no longer be the last fed
	// snapshot, so the pure-function shortcut must re-verify.
	p.valid = false
}

// rebuildWorst recomputes the PMAX/SAFE series, a worstStep fold over
// the rows the table holds: after thinning, the fan-out bound m derives
// from the deltas of the retained observations, exactly as a replay of
// the thinned trace computes it. A repeated row leaves the fold's state
// unchanged, so the fold equals the live feed's, which skips them.
func (p *OnlinePipeline) rebuildWorst() {
	st := newWorstState()
	for i := 0; i < p.kept; i++ {
		c, r := p.slot(i)
		c[colEst+int(PMAX)][r], c[colEst+int(SAFE)][r] = worstStep(&st, c[colKNodes][r], c[colKDrivers][r], c[colEDrivers][r])
	}
	p.worst = st
}
