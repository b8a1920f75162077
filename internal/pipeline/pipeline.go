// Package pipeline decomposes a physical plan into pipelines (called
// segments in Luo et al.): maximal subtrees of concurrently executing
// nodes (Section 3.2). Blocking operators (Sort, HashAgg) and the build
// side of a hash join end a pipeline; the blocking node itself belongs to
// the pipeline it feeds, where it acts as a driver node. Leaf nodes act as
// driver nodes unless they sit on the inner side of a nested-loop join
// (those are re-opened per outer row and their input size says nothing
// about pipeline progress).
package pipeline

import (
	"fmt"

	"progressest/internal/plan"
)

// Pipeline is one pipeline: the member node IDs and the subset that are
// driver nodes (the paper's DNodes(Pj)).
type Pipeline struct {
	ID      int
	Nodes   []int
	Drivers []int
}

// Contains reports whether node id belongs to the pipeline.
func (p *Pipeline) Contains(id int) bool {
	for _, n := range p.Nodes {
		if n == id {
			return true
		}
	}
	return false
}

// IsDriver reports whether node id is a driver node of the pipeline.
func (p *Pipeline) IsDriver(id int) bool {
	for _, n := range p.Drivers {
		if n == id {
			return true
		}
	}
	return false
}

// Decomposition is the set of pipelines of a plan plus a node->pipeline
// lookup.
type Decomposition struct {
	Pipelines []*Pipeline
	byNode    []int // node ID -> pipeline ID
}

// PipelineOf returns the pipeline containing node id.
func (d *Decomposition) PipelineOf(id int) *Pipeline {
	return d.Pipelines[d.byNode[id]]
}

// IndexOf returns the index in Pipelines of the pipeline containing node
// id.
func (d *Decomposition) IndexOf(id int) int { return d.byNode[id] }

// FromPipelines builds a Decomposition from an explicitly supplied
// pipeline set — the counter-ingestion path, where an external engine
// declares its own decomposition instead of deriving one from the plan's
// operator semantics. It validates what Decompose guarantees by
// construction: every plan node belongs to exactly one pipeline, and
// every driver is a member of its pipeline.
func FromPipelines(p *plan.Plan, pipes []*Pipeline) (*Decomposition, error) {
	if len(pipes) == 0 {
		return nil, fmt.Errorf("pipeline: no pipelines")
	}
	d := &Decomposition{byNode: make([]int, p.NumNodes())}
	for i := range d.byNode {
		d.byNode[i] = -1
	}
	for i, pl := range pipes {
		if pl.ID != i {
			return nil, fmt.Errorf("pipeline: pipeline at position %d has id %d", i, pl.ID)
		}
		if len(pl.Nodes) == 0 {
			return nil, fmt.Errorf("pipeline: pipeline %d has no nodes", i)
		}
		for _, id := range pl.Nodes {
			if id < 0 || id >= p.NumNodes() {
				return nil, fmt.Errorf("pipeline: pipeline %d names node %d, plan has %d nodes", i, id, p.NumNodes())
			}
			if d.byNode[id] >= 0 {
				return nil, fmt.Errorf("pipeline: node %d belongs to pipelines %d and %d", id, d.byNode[id], i)
			}
			d.byNode[id] = i
		}
		for _, dr := range pl.Drivers {
			if !pl.Contains(dr) {
				return nil, fmt.Errorf("pipeline: driver %d is not a member of pipeline %d", dr, i)
			}
		}
		d.Pipelines = append(d.Pipelines, pl)
	}
	for id, pid := range d.byNode {
		if pid < 0 {
			return nil, fmt.Errorf("pipeline: node %d not assigned to any pipeline", id)
		}
	}
	return d, nil
}

// Decompose splits the plan into pipelines.
func Decompose(p *plan.Plan) *Decomposition {
	d := &Decomposition{byNode: make([]int, p.NumNodes())}
	for i := range d.byNode {
		d.byNode[i] = -1
	}

	newPipe := func() *Pipeline {
		pl := &Pipeline{ID: len(d.Pipelines)}
		d.Pipelines = append(d.Pipelines, pl)
		return pl
	}

	// visit adds node n to pipeline pl. innerNL marks that n lies on the
	// inner side of a nested-loop join (its leaves are not drivers).
	var visit func(n *plan.Node, pl *Pipeline, innerNL bool)
	visit = func(n *plan.Node, pl *Pipeline, innerNL bool) {
		pl.Nodes = append(pl.Nodes, n.ID)
		d.byNode[n.ID] = pl.ID

		switch {
		case n.Op.IsBlocking():
			// Sort/HashAgg: member and driver of pl; input subtree forms a
			// fresh pipeline.
			if !innerNL {
				pl.Drivers = append(pl.Drivers, n.ID)
			}
			for _, c := range n.Children {
				visit(c, newPipe(), false)
			}
		case n.Op == plan.HashJoin || n.Op == plan.SemiJoin:
			// Probe child continues pl; build child starts a new pipeline.
			visit(n.Children[0], pl, innerNL)
			visit(n.Children[1], newPipe(), false)
		case n.Op == plan.NestedLoopJoin:
			visit(n.Children[0], pl, innerNL)
			visit(n.Children[1], pl, true)
		case len(n.Children) == 0:
			// Leaf: driver unless on the inner side of a nested loop.
			if !innerNL {
				pl.Drivers = append(pl.Drivers, n.ID)
			}
		default:
			// Streaming unary ops (Filter, Project, BatchSort, StreamAgg,
			// Top) and MergeJoin: children stay in the same pipeline.
			for _, c := range n.Children {
				visit(c, pl, innerNL)
			}
		}
	}
	visit(p.Root, newPipe(), false)

	for id, pid := range d.byNode {
		if pid < 0 {
			panic(fmt.Sprintf("pipeline: node %d not assigned", id))
		}
	}
	return d
}
