package ingest

import (
	"errors"
	"fmt"
	"math"

	"progressest/internal/exec"
	"progressest/internal/pipeline"
	"progressest/internal/plan"
)

// The validation error taxonomy, for the HTTP layer's status mapping.
var (
	// ErrInvalid marks a malformed spec or batch (addressing errors,
	// unknown operators, structural violations) — the client request is
	// wrong regardless of session state.
	ErrInvalid = errors.New("ingest: invalid")
	// ErrOutOfOrder marks an event whose time moves backwards relative
	// to the session's already-ingested stream.
	ErrOutOfOrder = errors.New("ingest: out-of-order observation")
	// ErrRegression marks a counter regression: a negative delta would
	// move a monotone counter backwards.
	ErrRegression = errors.New("ingest: counter regression")
	// ErrCompleted rejects observations after the session completed.
	ErrCompleted = errors.New("ingest: session already completed")
	// ErrLimit rejects observations beyond the session's retention cap.
	ErrLimit = errors.New("ingest: observation limit exceeded")
)

// DefaultMaxObservations caps the snapshots one session retains (the
// synthesized trace must be held for completion-time harvest). External
// engines control their own snapshot cadence, so unlike the native
// executor there is no thinning backstop — the cap rejects instead.
const DefaultMaxObservations = 65536

// opByName maps wire operator names to plan operators.
var opByName = func() map[string]plan.OpType {
	m := make(map[string]plan.OpType, int(plan.NumOpTypes))
	for op := plan.OpType(0); op < plan.NumOpTypes; op++ {
		m[op.String()] = op
	}
	return m
}()

// maxSpecNodes bounds a session plan's size; real plans have tens of
// nodes, and every retained snapshot costs 3 int64s per node.
const maxSpecNodes = 1024

// Model is a validated session spec: the reconstructed plan, its
// pipeline decomposition, and the per-node driver totals declared
// knowable at session open.
type Model struct {
	Plan  *plan.Plan
	Pipes *pipeline.Decomposition

	// Total[n] is node n's declared exact input size, -1 when unknown.
	Total []int64
	// Known[p] reports whether every driver of pipeline p carries a
	// total — the condition for the exact-denominator estimators,
	// matching the native executor's at-start knowability rule.
	Known []bool
}

// Build validates the spec — node order, reachability, no shared child,
// and every node's child count against its operator's arity
// (plan.OpType.Arity) — and reconstructs the plan and decomposition the
// estimator machinery runs on.
func Build(spec *Spec) (*Model, error) {
	if len(spec.Nodes) == 0 {
		return nil, fmt.Errorf("%w: spec has no nodes", ErrInvalid)
	}
	if len(spec.Nodes) > maxSpecNodes {
		return nil, fmt.Errorf("%w: %d nodes exceeds the bound %d", ErrInvalid, len(spec.Nodes), maxSpecNodes)
	}
	nodes := make([]*plan.Node, len(spec.Nodes))
	used := make([]bool, len(spec.Nodes)) // position referenced as a child
	for i, ns := range spec.Nodes {
		op, ok := opByName[ns.Op]
		if !ok {
			return nil, fmt.Errorf("%w: node %d has unknown operator %q", ErrInvalid, i, ns.Op)
		}
		if ns.EstRows < 0 || ns.RowWidth < 0 {
			return nil, fmt.Errorf("%w: node %d has negative cardinality or width", ErrInvalid, i)
		}
		if ns.Total != nil && *ns.Total < 0 {
			return nil, fmt.Errorf("%w: node %d has negative total", ErrInvalid, i)
		}
		if len(ns.Children) != op.Arity() {
			return nil, fmt.Errorf("%w: node %d (%s) has %d children, want %d", ErrInvalid, i, op, len(ns.Children), op.Arity())
		}
		n := &plan.Node{
			Op:           op,
			TableName:    ns.Table,
			EstRows:      ns.EstRows,
			RowWidth:     ns.RowWidth,
			TopN:         ns.TopN,
			BatchSize:    ns.BatchSize,
			SeekOuterCol: -1,
		}
		for _, c := range ns.Children {
			if c < 0 || c >= i {
				return nil, fmt.Errorf("%w: node %d child %d must precede it (depth-first order)", ErrInvalid, i, c)
			}
			if used[c] {
				return nil, fmt.Errorf("%w: node %d is a child of two nodes", ErrInvalid, c)
			}
			used[c] = true
			n.Children = append(n.Children, nodes[c])
		}
		nodes[i] = n
	}
	for i := 0; i < len(nodes)-1; i++ {
		if !used[i] {
			return nil, fmt.Errorf("%w: node %d is unreachable from the root (the last node)", ErrInvalid, i)
		}
	}
	pl := plan.Finalize(nodes[len(nodes)-1])
	// Finalize numbers depth-first children-before-parent; when the wire
	// order differs, deltas would address different nodes than the spec
	// declared — reject rather than silently renumber.
	for i, n := range nodes {
		if n.ID != i {
			return nil, fmt.Errorf("%w: nodes are not in depth-first children-before-parent order (node at position %d numbered %d)", ErrInvalid, i, n.ID)
		}
	}

	var pipes *pipeline.Decomposition
	if len(spec.Pipelines) > 0 {
		ps := make([]*pipeline.Pipeline, len(spec.Pipelines))
		for i, pspec := range spec.Pipelines {
			ps[i] = &pipeline.Pipeline{
				ID:      i,
				Nodes:   append([]int(nil), pspec.Nodes...),
				Drivers: append([]int(nil), pspec.Drivers...),
			}
		}
		var err error
		if pipes, err = pipeline.FromPipelines(pl, ps); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	} else {
		pipes = pipeline.Decompose(pl)
	}

	m := &Model{
		Plan:  pl,
		Pipes: pipes,
		Total: make([]int64, pl.NumNodes()),
		Known: make([]bool, len(pipes.Pipelines)),
	}
	for i := range m.Total {
		m.Total[i] = -1
	}
	for i, ns := range spec.Nodes {
		if ns.Total != nil {
			m.Total[i] = *ns.Total
		}
	}
	for pi, p := range pipes.Pipelines {
		known := len(p.Drivers) > 0
		for _, d := range p.Drivers {
			if m.Total[d] < 0 {
				known = false
			}
		}
		m.Known[pi] = known
	}
	return m, nil
}

// Runner is one session's ingestion state machine: it validates the
// incoming event stream, maintains the cumulative counters, synthesizes
// the exec.Observer events the estimator machinery consumes, and
// retains the snapshots — in the executor's own chunked sink — so
// completion can hand a full exec.Trace to the harvest path. It keeps
// nothing of a Batch past the call that applied it. Callers must
// serialize Apply/Finish.
type Runner struct {
	model *Model
	obs   exec.Observer
	batch int

	maxObs int

	clock    float64 // last event time
	lastSnap float64 // last snapshot time (starts may share it)
	k, r, w  []int64 // cumulative counters
	started  []bool
	startAt  []float64
	lastAct  []float64 // last time a pipeline's counters advanced

	sink      exec.TraceSink // retained history
	delivered int            // rows delivered to the observer
	finished  bool
}

// NewRunner builds the session runner. Events are delivered to obs,
// snapshots up to batch per OnSnapshots call (the live monitor's
// delivery mode; one per call for batch <= 1). maxObs caps retained
// snapshots (0 = DefaultMaxObservations).
func NewRunner(m *Model, obs exec.Observer, batch, maxObs int) *Runner {
	return newRunner(m, obs, batch, maxObs, exec.NewTraceSink(m.Plan.NumNodes()))
}

// NewRunnerOn is NewRunner retaining the snapshots on h, a history
// borrowed from the executor's free list: the synthesized trace's
// Snapshots are valid until the caller hands h back (h.Release).
func NewRunnerOn(h *exec.History, m *Model, obs exec.Observer, batch, maxObs int) *Runner {
	return newRunner(m, obs, batch, maxObs, h.Sink(m.Plan.NumNodes()))
}

func newRunner(m *Model, obs exec.Observer, batch, maxObs int, sink exec.TraceSink) *Runner {
	n := m.Plan.NumNodes()
	r := &Runner{
		model:   m,
		obs:     obs,
		batch:   batch,
		maxObs:  maxObs,
		sink:    sink,
		k:       make([]int64, n),
		r:       make([]int64, n),
		w:       make([]int64, n),
		started: make([]bool, len(m.Pipes.Pipelines)),
		startAt: make([]float64, len(m.Pipes.Pipelines)),
		lastAct: make([]float64, len(m.Pipes.Pipelines)),
	}
	if r.maxObs <= 0 {
		r.maxObs = DefaultMaxObservations
	}
	for pi := range r.startAt {
		r.startAt[pi] = -1
		r.lastAct[pi] = -1
	}
	return r
}

// Observations returns the number of retained snapshots.
func (r *Runner) Observations() int { return r.sink.Rows() }

// Finished reports whether Finish ran.
func (r *Runner) Finished() bool { return r.finished }

// Apply validates and ingests one observation batch's events. On error
// nothing of the failing event (or any later one) applies; the session
// stays at the last consistent prefix and the client may correct and
// resend from there.
func (r *Runner) Apply(b *Batch) error {
	if r.finished {
		return ErrCompleted
	}
	for i := range b.Events {
		ev := &b.Events[i]
		var err error
		switch {
		case ev.Start != nil:
			err = r.applyStart(ev.Start)
		case ev.Snapshot != nil:
			err = r.applySnapshot(ev.Snapshot)
		default:
			err = fmt.Errorf("%w: empty event", ErrInvalid)
		}
		if err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

func (r *Runner) applyStart(st *StartEvent) error {
	pi := st.Pipeline
	if pi < 0 || pi >= len(r.started) {
		return fmt.Errorf("%w: unknown pipeline %d", ErrInvalid, pi)
	}
	if r.started[pi] {
		return fmt.Errorf("%w: pipeline %d started twice", ErrInvalid, pi)
	}
	if st.Time < r.clock {
		return fmt.Errorf("%w: start of pipeline %d at %v, stream already at %v", ErrOutOfOrder, pi, st.Time, r.clock)
	}
	r.clock = st.Time
	r.startPipeline(pi, st.Time)
	return nil
}

func (r *Runner) applySnapshot(s *SnapshotEvent) error {
	if s.Time < r.clock || (r.sink.Rows() > 0 && s.Time <= r.lastSnap) {
		return fmt.Errorf("%w: snapshot at %v, stream already at %v", ErrOutOfOrder, s.Time, r.clock)
	}
	if r.sink.Rows() >= r.maxObs {
		return fmt.Errorf("%w: %d snapshots", ErrLimit, r.maxObs)
	}
	n := r.model.Plan.NumNodes()
	// Validate the whole delta set before anything observable happens. A
	// delta is checked against the counters with the earlier deltas of
	// the snapshot already added (two may address one node), so the first
	// bad one takes those additions back: a rejected snapshot leaves the
	// counters at the last consistent state.
	for i, d := range s.Deltas {
		var err error
		switch {
		case d.Node < 0 || d.Node >= n:
			err = fmt.Errorf("%w: unknown node %d", ErrInvalid, d.Node)
		case d.K < 0 || d.R < 0 || d.W < 0:
			err = fmt.Errorf("%w: node %d delta (%d,%d,%d)", ErrRegression, d.Node, d.K, d.R, d.W)
		case d.K > math.MaxInt64-r.k[d.Node] || d.R > math.MaxInt64-r.r[d.Node] || d.W > math.MaxInt64-r.w[d.Node]:
			err = fmt.Errorf("%w: node %d delta (%d,%d,%d) overflows its counters", ErrInvalid, d.Node, d.K, d.R, d.W)
		}
		if err != nil {
			for _, u := range s.Deltas[:i] {
				r.k[u.Node] -= u.K
				r.r[u.Node] -= u.R
				r.w[u.Node] -= u.W
			}
			return err
		}
		r.k[d.Node] += d.K
		r.r[d.Node] += d.R
		r.w[d.Node] += d.W
	}
	for _, d := range s.Deltas {
		if d.K != 0 || d.R != 0 || d.W != 0 {
			pi := r.model.Pipes.PipelineOf(d.Node).ID
			if !r.started[pi] {
				// Implicit start at the snapshot's time: the external
				// engine did not track the exact first-activity instant.
				r.startPipeline(pi, s.Time)
			}
			r.lastAct[pi] = s.Time
		}
	}
	r.clock = s.Time
	r.lastSnap = s.Time

	r.sink.Add(s.Time, r.k, r.r, r.w)
	if r.sink.Rows()-r.delivered >= r.batch {
		r.flush()
	}
	return nil
}

// startPipeline fires the start event, flushing pending snapshots first
// (the live engine's contract: a start never lands mid-batch).
func (r *Runner) startPipeline(pi int, t float64) {
	r.started[pi] = true
	r.startAt[pi] = t
	r.lastAct[pi] = t
	r.flush()
	r.obs.OnPipelineStart(exec.PipelineStart{Pipe: pi, Time: t, DriverTotalsKnown: r.model.Known[pi], DriverTotals: r.model.Total})
}

func (r *Runner) flush() {
	if n := r.sink.Rows(); n > r.delivered {
		r.obs.OnSnapshots(r.sink.Window(r.delivered, n))
		r.delivered = n
	}
}

// Finish completes the session: pipeline ends fire (explicit end times
// when supplied, the pipeline's last observed activity otherwise), the
// trace is synthesized from the retained history, and OnDone delivers
// it — the event the harvest path keys on. Returns the trace.
func (r *Runner) Finish(ends []PipeEnd) (*exec.Trace, error) {
	if r.finished {
		return nil, ErrCompleted
	}
	end := append([]float64(nil), r.lastAct...)
	for _, e := range ends {
		if e.Pipeline < 0 || e.Pipeline >= len(r.started) {
			return nil, fmt.Errorf("%w: unknown pipeline %d", ErrInvalid, e.Pipeline)
		}
		if !r.started[e.Pipeline] {
			return nil, fmt.Errorf("%w: end for pipeline %d, which never started", ErrInvalid, e.Pipeline)
		}
		if e.Time < r.startAt[e.Pipeline] || e.Time > r.clock {
			return nil, fmt.Errorf("%w: end of pipeline %d at %v outside [%v, %v]", ErrOutOfOrder, e.Pipeline, e.Time, r.startAt[e.Pipeline], r.clock)
		}
		end[e.Pipeline] = e.Time
	}
	r.finished = true
	r.flush()

	tr := &exec.Trace{
		Plan:              r.model.Plan,
		Pipes:             r.model.Pipes,
		Snapshots:         r.sink.Snapshots(),
		N:                 r.k,
		FinalR:            r.r,
		FinalW:            r.w,
		TotalTime:         r.clock,
		PipeSpans:         make([]exec.Span, len(r.started)),
		DriverTotalsKnown: make([]bool, len(r.started)),
		DriverTotal:       make([]int64, r.model.Plan.NumNodes()),
	}
	for pi := range r.started {
		if !r.started[pi] {
			tr.PipeSpans[pi] = exec.Span{Start: -1, End: -1}
			continue
		}
		tr.PipeSpans[pi] = exec.Span{Start: r.startAt[pi], End: end[pi]}
		// Knowability is an at-start property; pipelines that never
		// started report unknown, as the native executor's traces do.
		tr.DriverTotalsKnown[pi] = r.model.Known[pi]
		if r.model.Known[pi] {
			for _, d := range r.model.Pipes.Pipelines[pi].Drivers {
				tr.DriverTotal[d] = r.model.Total[d]
			}
		}
	}
	for pi := range r.started {
		if r.started[pi] {
			r.obs.OnPipelineEnd(pi, tr.PipeSpans[pi].End)
		}
	}
	r.obs.OnDone(tr)
	return tr, nil
}
