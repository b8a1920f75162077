package progress

import (
	"math"

	"progressest/internal/exec"
	"progressest/internal/pipeline"
	"progressest/internal/plan"
)

// PipeContext is the static per-pipeline evaluation context every
// estimator reads: the driver-node sets, exact driver totals where known,
// and structural upper bounds used for online estimate refinement
// (Section 3.3). It is fully determined at pipeline start and never
// changes afterwards: on a run of a cached plan one PipeContext is shared
// read-only by every run whose start matches (see PlanCache).
type PipeContext struct {
	Plan *plan.Plan
	Pipe *pipeline.Pipeline

	// E0 is the optimizer estimate per node (indexed by node ID), with
	// exact totals substituted for driver nodes when known.
	E0 []float64
	// UB is the structural upper bound on N_i per node (+Inf if none).
	UB []float64
	// Width is the logical row width per node.
	Width []float64

	// DriverKnown reports whether all driver totals were known at
	// pipeline start.
	DriverKnown bool

	batchDrivers []int // drivers + BatchSort members (eq. 6)
	seekDrivers  []int // drivers + IndexSeek members (eq. 7)
	top          int   // the pipeline's output node
	spill        []int // members that can incur spill I/O
}

// NewPipeContext prepares the static evaluation context of a pipeline.
// driverTotals is indexed by node ID and holds the exact input size of
// every driver node; it is only read when known is true.
func NewPipeContext(p *plan.Plan, pipe *pipeline.Pipeline, known bool, driverTotals []int64) *PipeContext {
	nodes := p.Nodes()
	c := &PipeContext{
		Plan:  p,
		Pipe:  pipe,
		E0:    make([]float64, len(nodes)),
		UB:    make([]float64, len(nodes)),
		Width: make([]float64, len(nodes)),
	}
	for _, n := range nodes {
		c.E0[n.ID] = n.EstRows
		c.UB[n.ID] = math.Inf(1)
		c.Width[n.ID] = n.RowWidth
	}
	c.DriverKnown = known
	// Exact totals for driver nodes when known (the common case for scans
	// and completed blocking operators).
	if known {
		for _, d := range pipe.Drivers {
			t := float64(driverTotals[d])
			c.E0[d] = t
			c.UB[d] = t
		}
	}
	// Structural upper bounds: a streaming unary operator cannot emit more
	// rows than its input's bound.
	var bound func(n *plan.Node) float64
	bound = func(n *plan.Node) float64 {
		if !pipe.Contains(n.ID) {
			return math.Inf(1)
		}
		switch n.Op {
		case plan.Filter, plan.Project, plan.BatchSort, plan.StreamAgg:
			b := bound(n.Children[0])
			if b < c.UB[n.ID] {
				c.UB[n.ID] = b
			}
		case plan.Top:
			b := bound(n.Children[0])
			if float64(n.TopN) < b {
				b = float64(n.TopN)
			}
			if b < c.UB[n.ID] {
				c.UB[n.ID] = b
			}
		default:
			for _, ch := range n.Children {
				bound(ch)
			}
		}
		return c.UB[n.ID]
	}
	bound(p.Root)

	// Extended driver sets for the batch/seek estimator variants.
	c.batchDrivers = append([]int(nil), pipe.Drivers...)
	c.seekDrivers = append([]int(nil), pipe.Drivers...)
	for _, id := range pipe.Nodes {
		switch p.Node(id).Op {
		case plan.BatchSort:
			if !pipe.IsDriver(id) {
				c.batchDrivers = append(c.batchDrivers, id)
			}
		case plan.IndexSeek:
			if !pipe.IsDriver(id) {
				c.seekDrivers = append(c.seekDrivers, id)
			}
		}
	}
	c.top = c.findTopNode()
	for _, id := range pipe.Nodes {
		op := p.Node(id).Op
		if op == plan.HashJoin || op == plan.Sort {
			c.spill = append(c.spill, id)
		}
	}
	return c
}

// findTopNode returns the pipeline's output node: the member whose parent
// is outside the pipeline (or the plan root).
func (c *PipeContext) findTopNode() int {
	inPipe := make(map[int]bool, len(c.Pipe.Nodes))
	for _, id := range c.Pipe.Nodes {
		inPipe[id] = true
	}
	childOf := make(map[int]bool)
	for _, id := range c.Pipe.Nodes {
		for _, ch := range c.Plan.Node(id).Children {
			if inPipe[ch.ID] {
				childOf[ch.ID] = true
			}
		}
	}
	for _, id := range c.Pipe.Nodes {
		if !childOf[id] {
			return id
		}
	}
	return c.Pipe.Nodes[len(c.Pipe.Nodes)-1]
}

// refinedE returns the bounds-refined estimate E_i(t) (Section 3.3,
// following [6]): the initial estimate clamped to [K_i(t), UB_i].
func (c *PipeContext) refinedE(id int, s *exec.Snapshot) float64 {
	e := c.E0[id]
	if k := float64(s.K[id]); k > e {
		e = k
	}
	if ub := c.UB[id]; e > ub {
		e = ub
	}
	return e
}

// sums returns sum of K and of refined E over the given node set.
func (c *PipeContext) sums(ids []int, s *exec.Snapshot) (k, e float64) {
	for _, id := range ids {
		k += float64(s.K[id])
		e += c.refinedE(id, s)
	}
	return k, e
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	if math.IsNaN(x) {
		return 0
	}
	return x
}
