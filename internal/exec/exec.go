// Package exec is the query execution engine: a Volcano-style iterator
// interpreter over the in-memory storage layer. It maintains, per plan
// node, the counters progress estimation consumes (Section 3.1): GetNext
// counts K_i, logical bytes read R_i and written W_i, plus a deterministic
// virtual clock, and emits periodic Snapshots of all counters. Disk spills
// caused by memory contention in hash joins are modelled as additional
// GetNext calls at the spilling node, as in the paper.
//
// Observation is streaming-first: every execution feeds an event stream
// (pipeline starts, counter snapshots, thinning, pipeline ends) to an
// Observer. The Trace returned by Run is built by one such observer — the
// sink Run always installs — so batch replay and live monitoring see the
// identical observation sequence.
package exec

import (
	"fmt"

	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/storage"
)

// Default observation-capture parameters (see Options).
const (
	DefaultTargetObservations = 400
	DefaultMaxObservations    = 1200
)

// Options configures one query execution.
type Options struct {
	// MemBudgetRows is the number of rows a blocking operator (hash join
	// build, sort) can hold before spilling. Zero means unlimited.
	MemBudgetRows int
	// TargetObservations is the approximate number of counter snapshots to
	// capture (default DefaultTargetObservations).
	TargetObservations int
	// MaxObservations caps stored snapshots; when exceeded, the trace is
	// thinned and the sampling interval doubled (default
	// DefaultMaxObservations).
	MaxObservations int
	// Observer, when non-nil, receives the execution event stream (pipeline
	// starts/ends, snapshots, thinning, completion) while the query runs.
	Observer Observer
	// SnapshotBatch, when > 1, buffers up to this many consecutive
	// snapshots and delivers them to Observer in one OnSnapshots call.
	// Pending snapshots always flush before another event fires, so the
	// delivered stream is identical to the batch-of-one default — only the
	// call granularity changes.
	SnapshotBatch int
}

func (o Options) withDefaults() Options {
	if o.TargetObservations <= 0 {
		o.TargetObservations = DefaultTargetObservations
	}
	if o.MaxObservations <= 0 {
		o.MaxObservations = DefaultMaxObservations
	}
	return o
}

// Run executes the plan to completion and returns its Trace, feeding
// opts.Observer (if any) along the way.
func Run(db *storage.Database, p *plan.Plan, opts Options) *Trace {
	return RunDecomposed(db, p, pipeline.Decompose(p), opts)
}

// RunDecomposed is Run with the plan's pipeline decomposition supplied by
// the caller. Execution never mutates the plan or the decomposition, so
// callers that run the same plan repeatedly (the serving hot path) can
// decompose once and reuse it across runs.
//
// The run's operator memory comes from one scratch of the free list,
// shared by all its iterators, and goes back to the list once the root
// is closed, when no iterator reads it any more.
func RunDecomposed(db *storage.Database, p *plan.Plan, pipes *pipeline.Decomposition, opts Options) *Trace {
	return runWith(takeScratch(), nil, db, p, pipes, opts)
}

// runWith is RunDecomposed on operator memory from sc, which it releases
// once the root is closed, recording the snapshot history on h (nil: on
// memory the Trace owns).
func runWith(sc *scratch, h *History, db *storage.Database, p *plan.Plan, pipes *pipeline.Decomposition, opts Options) *Trace {
	opts = opts.withDefaults()

	obsEvery := int64(p.TotalEstRows()) / int64(opts.TargetObservations)
	if obsEvery < 1 {
		obsEvery = 1
	}
	ctx := newContext(db, p, pipes, opts, obsEvery, sc, h)

	root := buildIter(ctx, p.Root)
	root.open()
	for {
		if _, ok := root.next(); !ok {
			break
		}
	}
	root.close()
	sc.release()
	ctx.snapshot() // final observation at tend
	ctx.flushSnapshots()

	tr := &Trace{
		Plan:      p,
		Pipes:     pipes,
		Snapshots: ctx.sink.Snapshots(),
		N:         ctx.K,
		FinalR:    ctx.R,
		FinalW:    ctx.W,
		TotalTime: ctx.clock,
	}
	tr.PipeSpans = make([]Span, len(pipes.Pipelines))
	for i, pl := range pipes.Pipelines {
		start, end := -1.0, -1.0
		for _, id := range pl.Nodes {
			if ctx.firstActive[id] < 0 {
				continue
			}
			if start < 0 || ctx.firstActive[id] < start {
				start = ctx.firstActive[id]
			}
			if ctx.lastActive[id] > end {
				end = ctx.lastActive[id]
			}
		}
		tr.PipeSpans[i] = Span{Start: start, End: end}
	}
	// Driver totals as they were known at each pipeline's start (recorded
	// by startPipeline); pipelines that never became active report unknown.
	tr.DriverTotalsKnown = ctx.pipeKnown
	tr.DriverTotal = ctx.driverTotal
	if ctx.observer != nil {
		for pi := range pipes.Pipelines {
			if ctx.pipeStarted[pi] {
				ctx.observer.OnPipelineEnd(pi, tr.PipeSpans[pi].End)
			}
		}
		ctx.observer.OnDone(tr)
	}
	return tr
}

// driverTotalAtStart returns the exact input size of a driver node when it
// is knowable at pipeline start: base-table scans know their table size,
// constant-range index seeks know the range size, and blocking operators
// (Sort, HashAgg) know their buffered output size once filled (which is
// before their pipeline starts emitting). Returns ok=false otherwise.
func driverTotalAtStart(db *storage.Database, n *plan.Node, ctx *context) (int64, bool) {
	switch n.Op {
	case plan.TableScan, plan.IndexScan:
		return int64(db.MustTable(n.TableName).NumRows()), true
	case plan.IndexSeek:
		if n.SeekOuterCol >= 0 {
			return 0, false
		}
		ix := db.MustTable(n.TableName).IndexOn(n.IndexColumn)
		if ix == nil {
			return 0, false
		}
		lo, hi := ix.SeekRange(n.SeekLo, n.SeekHi)
		return int64(hi - lo), true
	case plan.Sort, plan.HashAgg:
		// Recorded by the iterator when it finished buffering its input.
		if t := ctx.blockTotal[n.ID]; t >= 0 {
			return t, true
		}
		return 0, false
	default:
		return 0, false
	}
}

// newContext builds the execution state for one run. Its per-node and
// per-pipeline slices are carved from one block per element type — lent
// by h when the run records on a History, allocated for the Trace to own
// otherwise — each capped at its own length, so the Trace's aliases of
// K, R, W, driverTotal and pipeKnown stay independent of one another.
func newContext(db *storage.Database, p *plan.Plan, pipes *pipeline.Decomposition, opts Options, obsEvery int64, sc *scratch, h *History) *context {
	n, np := p.NumNodes(), len(pipes.Pipelines)
	var counters []int64
	var active []float64
	var flags []bool
	if h != nil {
		counters, active, flags = h.words.Take(5*n), h.times.Take(2*n), h.flags.Take(2*np)
	} else {
		counters, active, flags = make([]int64, 5*n), make([]float64, 2*n), make([]bool, 2*np)
	}
	ctx := &context{
		db:          db,
		p:           p,
		pipes:       pipes,
		opts:        opts,
		observer:    opts.Observer,
		K:           counters[:n:n],
		R:           counters[n : 2*n : 2*n],
		W:           counters[2*n : 3*n : 3*n],
		blockTotal:  counters[3*n : 4*n : 4*n],
		driverTotal: counters[4*n:],
		firstActive: active[:n:n],
		lastActive:  active[n:],
		pipeStarted: flags[:np:np],
		pipeKnown:   flags[np:],
		obsEvery:    obsEvery,
		untilSnap:   obsEvery,
		sink:        TraceSink{nodes: n, hist: h},
		scratch:     sc,
		rows:        rowArena{words: &sc.words},
		batchSize:   max(opts.SnapshotBatch, 1),
	}
	for i := range ctx.firstActive {
		ctx.firstActive[i] = -1
		ctx.blockTotal[i] = -1
	}
	return ctx
}

// context carries the execution state shared by all iterators.
type context struct {
	db       *storage.Database
	p        *plan.Plan
	pipes    *pipeline.Decomposition
	opts     Options
	observer Observer

	clock float64
	K     []int64
	R     []int64
	W     []int64

	firstActive []float64
	lastActive  []float64

	// blockTotal[n] is the buffered input size a blocking operator reported
	// when it finished filling (-1 until then).
	blockTotal []int64
	// driverTotal[n] is the driver input size recorded at pipeline start.
	driverTotal []int64

	pipeStarted []bool // pipeline became active
	pipeKnown   []bool // all driver totals known at pipeline start

	totalGN  int64
	obsEvery int64
	// untilSnap counts the GetNext calls left before the next snapshot:
	// the next multiple of obsEvery, without a division per call.
	untilSnap int64
	sink      TraceSink
	lastSnapT float64

	// scratch lends the hash operators their buffers and indexes.
	scratch *scratch
	// rows backs every row an operator builds (see rowArena).
	rows rowArena

	// Snapshot delivery (Options.SnapshotBatch): the sink's rows from
	// flushed on have been captured but not yet delivered to observer.
	batchSize int
	flushed   int
}

// produced records one GetNext call at node n: increments K_n, advances
// the clock, marks the node active and possibly snapshots all counters.
func (c *context) produced(n *plan.Node) {
	c.K[n.ID]++
	c.tickActive(n.ID, cpuCost(n.Op))
	c.maybeSnapshot()
}

// spillCall records a spill-induced extra GetNext call at node n.
// markActive=false is used for build-phase spills of a hash join so that
// the probe pipeline's activity span is not polluted by build-phase work.
func (c *context) spillCall(n *plan.Node, bytes float64, markActive bool) {
	c.K[n.ID]++
	cost := cpuCost(n.Op) + bytes*ioCostPerByte*spillIOFactor
	if markActive {
		c.tickActive(n.ID, cost)
	} else {
		c.clock += cost
	}
	c.maybeSnapshot()
}

// tickActive advances the clock and the node's activity span, starting the
// node's pipeline on its first activity.
func (c *context) tickActive(id int, cost float64) {
	c.clock += cost
	if c.firstActive[id] < 0 {
		c.firstActive[id] = c.clock
	}
	c.lastActive[id] = c.clock
	if pi := c.pipes.IndexOf(id); !c.pipeStarted[pi] {
		c.startPipeline(pi)
	}
}

// startPipeline records the pipeline's start: the driver input sizes that
// are exactly knowable at this moment. Blocking drivers (Sort, HashAgg)
// have always finished buffering by now, because a pipeline's first
// activity is a row emission that can only be fed by already-filled
// drivers.
func (c *context) startPipeline(pi int) {
	c.pipeStarted[pi] = true
	pl := c.pipes.Pipelines[pi]
	known := len(pl.Drivers) > 0
	for _, d := range pl.Drivers {
		t, ok := driverTotalAtStart(c.db, c.p.Node(d), c)
		if !ok {
			known = false
			continue
		}
		c.driverTotal[d] = t
	}
	c.pipeKnown[pi] = known
	c.flushSnapshots() // starts must not land mid-batch
	if c.observer != nil {
		c.observer.OnPipelineStart(PipelineStart{
			Pipe:              pi,
			Time:              c.clock,
			DriverTotalsKnown: known,
			DriverTotals:      c.driverTotal,
		})
	}
}

// consumed charges the cost of a blocking consumer absorbing one input
// row (no GetNext at the consumer, no activity marking).
func (c *context) consumed(n *plan.Node) {
	c.clock += consumeCost(n.Op)
}

// filled records the buffered input size of a blocking operator the moment
// it finishes filling, making the size available as a driver total for the
// pipeline the operator feeds.
func (c *context) filled(n *plan.Node, rows int) {
	c.blockTotal[n.ID] = int64(rows)
}

// read accounts logical bytes read at node n.
func (c *context) read(n *plan.Node, bytes float64) {
	c.R[n.ID] += int64(bytes)
	c.clock += bytes * ioCostPerByte
}

// write accounts logical bytes written at node n.
func (c *context) write(n *plan.Node, bytes float64) {
	c.W[n.ID] += int64(bytes)
	c.clock += bytes * ioCostPerByte
}

func (c *context) maybeSnapshot() {
	c.totalGN++
	if c.untilSnap--; c.untilSnap > 0 {
		return
	}
	c.untilSnap = c.obsEvery
	c.snapshot()
	if c.sink.Rows() > c.opts.MaxObservations {
		// Thin: keep every other snapshot and halve the sampling rate.
		// Pending snapshots flush first — thinning compacts the arena in
		// place, and every snapshot is delivered before the thin that
		// drops it, whatever the batch size.
		c.flushSnapshots()
		c.sink.thin()
		c.flushed = c.sink.Rows()
		if c.observer != nil {
			c.observer.OnThin(c.sink.Window(0, c.sink.Rows()))
		}
		c.obsEvery *= 2
		c.untilSnap = c.obsEvery - c.totalGN%c.obsEvery
	}
}

func (c *context) snapshot() {
	if c.sink.Rows() > 0 && c.clock == c.lastSnapT {
		return
	}
	c.sink.Add(c.clock, c.K, c.R, c.W)
	if c.sink.Rows()-c.flushed >= c.batchSize {
		c.flushSnapshots()
	}
	c.lastSnapT = c.clock
}

// flushSnapshots delivers the captured-but-undelivered snapshots as one
// batch. No-op without an observer and when nothing is pending.
func (c *context) flushSnapshots() {
	if c.observer == nil {
		return
	}
	if n := c.sink.Rows(); n > c.flushed {
		c.observer.OnSnapshots(c.sink.Window(c.flushed, n))
		c.flushed = n
	}
}

// buildIter constructs the iterator for a plan node.
func buildIter(ctx *context, n *plan.Node) iter {
	switch n.Op {
	case plan.TableScan:
		return newTableScan(ctx, n)
	case plan.IndexScan:
		return newIndexScan(ctx, n)
	case plan.IndexSeek:
		return newIndexSeek(ctx, n)
	case plan.Filter:
		return &filterIter{ctx: ctx, n: n, child: buildIter(ctx, n.Children[0])}
	case plan.Project:
		return &projectIter{ctx: ctx, n: n, child: buildIter(ctx, n.Children[0])}
	case plan.HashJoin:
		return &hashJoinIter{ctx: ctx, n: n,
			probe: buildIter(ctx, n.Children[0]), build: buildIter(ctx, n.Children[1]),
			copyProbe: transient(n.Children[0]), copyBuild: transient(n.Children[1])}
	case plan.MergeJoin:
		return &mergeJoinIter{ctx: ctx, n: n,
			left: buildIter(ctx, n.Children[0]), right: buildIter(ctx, n.Children[1]),
			copyLeft: transient(n.Children[0]), copyRight: transient(n.Children[1])}
	case plan.SemiJoin:
		return &semiJoinIter{ctx: ctx, n: n,
			probe: buildIter(ctx, n.Children[0]), build: buildIter(ctx, n.Children[1])}
	case plan.NestedLoopJoin:
		return &nlJoinIter{ctx: ctx, n: n,
			outer: buildIter(ctx, n.Children[0]), inner: buildIter(ctx, n.Children[1])}
	case plan.Sort:
		return &sortIter{ctx: ctx, n: n, child: buildIter(ctx, n.Children[0]), copyChild: transient(n.Children[0])}
	case plan.BatchSort:
		return &batchSortIter{ctx: ctx, n: n, child: buildIter(ctx, n.Children[0]), copyChild: transient(n.Children[0])}
	case plan.HashAgg:
		return &hashAggIter{ctx: ctx, n: n, child: buildIter(ctx, n.Children[0])}
	case plan.StreamAgg:
		return &streamAggIter{ctx: ctx, n: n, child: buildIter(ctx, n.Children[0])}
	case plan.Top:
		return &topIter{ctx: ctx, n: n, child: buildIter(ctx, n.Children[0])}
	default:
		panic(fmt.Sprintf("exec: no iterator for %v", n.Op))
	}
}
