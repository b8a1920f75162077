package progress

import (
	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/recycle"
)

// viewMemory is the estimator state one served run borrows for its view:
// the pipelines and their lastSig rows, the Pipelines pointers, the
// weight scratch and the one feature vector, the marker rows, the
// finished table a harvest builds, and a pick policy's per-pipeline
// choices and marker counts. It follows package recycle's rules, as the
// executor's scratches and histories do: at most GOMAXPROCS idle ones,
// each slab sized to its window's peak every recycle.TrimRuns runs, idle
// ones dropped by the sweep after each collection. A listed viewMemory
// is all zero, so it pins neither a finished run's state nor a cached
// plan's shared start contexts.
type viewMemory struct {
	pipes  recycle.Slab[OnlinePipeline]
	ptrs   recycle.Slab[*OnlinePipeline]
	sigs   recycle.Slab[int64]     // lastSig rows
	floats recycle.Slab[float64]   // the weight scratch, the feature vector
	marks  recycle.Slab[MarkerRow] // marker rows
	rows   recycle.Slab[obsRow]    // the finished table
	kinds  recycle.Slab[Kind]      // a policy's choices
	ints   recycle.Slab[int]       // a policy's marker counts
	lease  recycle.Lease
}

// views is the free list of view memory.
var views = recycle.NewList[*viewMemory]()

// BorrowOnlineView is NewCachedOnlineView for a run whose view no one
// reads once the run is over — a server-owned run, whose final update is
// the last thing anyone asks of it. Everything the view allocates as the
// run goes — its pipelines, marker rows, feature vector, finished table
// and a policy's per-pipeline state (PickState) — is carved from memory
// borrowed from a free list, which Release hands back. A view that
// returns its record to a caller, as a QueryRun or a Replay, borrows
// nothing.
func BorrowOnlineView(p *plan.Plan, pipes *pipeline.Decomposition, cache *PlanCache) *OnlineView {
	m, ok := views.Take()
	if !ok {
		m = new(viewMemory)
	}
	return newOnlineView(p, pipes, cache, m)
}

// Release hands a borrowed view's memory back to the free list, zeroed:
// the pipelines drop their pointers to a cached plan's shared start
// contexts and static prefixes without clearing what those point to,
// which later runs of the plan read. The view keeps no pointer into the
// memory — its pipelines, its trace and its scratch go — so a stray
// finished read panics instead of reading a later run's state. Nothing
// carved from the memory may be read afterwards. A view that borrowed
// nothing is left as it is.
func (o *OnlineView) Release() {
	m := o.mem
	if m == nil {
		return
	}
	o.mem, o.Pipelines, o.Trace, o.cache, o.wbuf, o.feat = nil, nil, nil, nil, nil, nil
	trim := m.lease.Renew()
	m.pipes.Reset(trim)
	m.ptrs.Reset(trim)
	m.sigs.Reset(trim)
	m.floats.Reset(trim)
	m.marks.Reset(trim)
	m.rows.Reset(trim)
	m.kinds.Reset(trim)
	m.ints.Reset(trim)
	views.Put(m)
}

// lend returns n zero elements from the slab of m that at selects, or
// allocates them for a view that borrowed no memory (m nil).
func lend[T any](m *viewMemory, at func(*viewMemory) *recycle.Slab[T], n int) []T {
	if m == nil {
		return make([]T, n)
	}
	return at(m).Take(n)
}

func (m *viewMemory) pipeSlab() *recycle.Slab[OnlinePipeline] { return &m.pipes }
func (m *viewMemory) ptrSlab() *recycle.Slab[*OnlinePipeline] { return &m.ptrs }
func (m *viewMemory) sigSlab() *recycle.Slab[int64]           { return &m.sigs }
func (m *viewMemory) floatSlab() *recycle.Slab[float64]       { return &m.floats }
func (m *viewMemory) markSlab() *recycle.Slab[MarkerRow]      { return &m.marks }
func (m *viewMemory) rowSlab() *recycle.Slab[obsRow]          { return &m.rows }
func (m *viewMemory) kindSlab() *recycle.Slab[Kind]           { return &m.kinds }
func (m *viewMemory) intSlab() *recycle.Slab[int]             { return &m.ints }

// PickState returns the per-pipeline state a pick policy keeps over this
// view's run: a choice per pipeline and, when marked, the markers each
// had crossed at its latest pick — all zero, lent by the view's memory
// on a borrowed view, allocated otherwise.
func (o *OnlineView) PickState(marked bool) (choice []Kind, marks []int) {
	n := len(o.Pipelines)
	choice = lend(o.mem, (*viewMemory).kindSlab, n)
	if marked {
		marks = lend(o.mem, (*viewMemory).intSlab, n)
	}
	return choice, marks
}

// FeatureBuffer returns the view's one feature-vector scratch, empty
// with room for n values: the features package assembles a pipeline's
// full vector into it (features.OnlineFull), so a pick allocates nothing
// once the view has one, and every pipeline of the view shares it — a
// vector is only valid until the next one is assembled on the same
// view. It is carved from a borrowed view's memory.
func (p *OnlinePipeline) FeatureBuffer(n int) []float64 {
	o := p.view
	if cap(o.feat) < n {
		o.feat = lend(o.mem, (*viewMemory).floatSlab, n)
	}
	return o.feat[:0]
}
