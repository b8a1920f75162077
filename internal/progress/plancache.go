package progress

import (
	"sync/atomic"

	"progressest/internal/exec"
	"progressest/internal/pipeline"
	"progressest/internal/plan"
)

// PlanCache is the start state shared by every run of one cached plan:
// a pipeline's PipeContext and static feature prefix are pure functions
// of the plan and of the driver totals known at the pipeline's start,
// which are the same run after run. Each pipeline has one slot, filled
// by the first start that finds it empty. A later start whose known flag
// and driver totals match reuses the slot; one that does not builds a
// private context and leaves the slot as it is. Concurrent first starts
// build identical values, and the first to publish wins.
//
// A nil *PlanCache caches nothing: every start builds a private context.
type PlanCache struct {
	starts []atomic.Pointer[startContext]
}

// NewPlanCache returns an empty cache for the decomposition's pipelines.
func NewPlanCache(pipes *pipeline.Decomposition) *PlanCache {
	return &PlanCache{starts: make([]atomic.Pointer[startContext], len(pipes.Pipelines))}
}

// startContext is one pipeline's shared start state, read-only once
// published.
type startContext struct {
	ctx *PipeContext
	// totals holds the driver totals ctx was built from, in Pipe.Drivers
	// order; nil when they were not known.
	totals []int64
	// static is the static feature prefix, published by the first run
	// that computes it (see OnlinePipeline.StaticPrefix).
	static atomic.Pointer[[]float64]
}

// matches reports whether the start event builds exactly this context.
func (s *startContext) matches(st *exec.PipelineStart) bool {
	if s.ctx.DriverKnown != st.DriverTotalsKnown {
		return false
	}
	for i, d := range s.ctx.Pipe.Drivers[:len(s.totals)] {
		if s.totals[i] != st.DriverTotals[d] {
			return false
		}
	}
	return true
}

// start returns the context for a start event of pipe: the shared one
// when the event matches the slot (filling an empty slot first), else a
// private one with a nil *startContext.
func (c *PlanCache) start(p *plan.Plan, pipe *pipeline.Pipeline, st *exec.PipelineStart) (*startContext, *PipeContext) {
	if c == nil {
		return nil, NewPipeContext(p, pipe, st.DriverTotalsKnown, st.DriverTotals)
	}
	slot := &c.starts[st.Pipe]
	sc := slot.Load()
	if sc == nil {
		sc = &startContext{ctx: NewPipeContext(p, pipe, st.DriverTotalsKnown, st.DriverTotals)}
		if st.DriverTotalsKnown {
			sc.totals = make([]int64, len(pipe.Drivers))
			for i, d := range pipe.Drivers {
				sc.totals[i] = st.DriverTotals[d]
			}
		}
		if !slot.CompareAndSwap(nil, sc) {
			sc = slot.Load()
		}
	}
	if sc.matches(st) {
		return sc, sc.ctx
	}
	return nil, NewPipeContext(p, pipe, st.DriverTotalsKnown, st.DriverTotals)
}
