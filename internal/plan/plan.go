// Package plan defines physical execution plans: the tree of operator
// nodes the engine executes and progress estimators observe. It mirrors
// the paper's notation (Section 3.1): Nodes(Q) enumerates plan nodes,
// Op(i) is the physical operator at node i, and Descendants(i) is the set
// of nodes below i.
package plan

import (
	"fmt"
	"strings"

	"progressest/internal/expr"
)

// OpType identifies a physical operator. The taxonomy matches the
// operators the paper's Table 1 reports on (nested loop / merge / hash
// joins, index seeks, batch sorts, stream aggregates) plus the usual
// scan/filter/sort/top plumbing.
type OpType int

// Physical operators.
const (
	TableScan OpType = iota
	IndexScan
	IndexSeek
	Filter
	Project
	HashJoin
	MergeJoin
	NestedLoopJoin
	// SemiJoin is a hash semi join implementing EXISTS sub-queries: it
	// emits each probe row at most once, when the build side contains a
	// matching key.
	SemiJoin
	Sort
	BatchSort
	HashAgg
	StreamAgg
	Top
	NumOpTypes // number of operator types; useful for feature vectors
)

// String implements fmt.Stringer.
func (op OpType) String() string {
	switch op {
	case TableScan:
		return "TableScan"
	case IndexScan:
		return "IndexScan"
	case IndexSeek:
		return "IndexSeek"
	case Filter:
		return "Filter"
	case Project:
		return "Project"
	case HashJoin:
		return "HashJoin"
	case MergeJoin:
		return "MergeJoin"
	case NestedLoopJoin:
		return "NestedLoopJoin"
	case SemiJoin:
		return "SemiJoin"
	case Sort:
		return "Sort"
	case BatchSort:
		return "BatchSort"
	case HashAgg:
		return "HashAgg"
	case StreamAgg:
		return "StreamAgg"
	case Top:
		return "Top"
	default:
		return fmt.Sprintf("OpType(%d)", int(op))
	}
}

// IsJoin reports whether the operator combines two inputs.
func (op OpType) IsJoin() bool {
	return op == HashJoin || op == MergeJoin || op == NestedLoopJoin || op == SemiJoin
}

// Arity is the number of children a node of the operator has: none for
// a scan or a seek, two for a join, one for any other operator. The
// executor, the pipeline decomposition and the estimators read a node's
// children by this count.
func (op OpType) Arity() int {
	switch {
	case op == TableScan || op == IndexScan || op == IndexSeek:
		return 0
	case op.IsJoin():
		return 2
	}
	return 1
}

// IsBlocking reports whether the operator fully consumes its (left) input
// before producing output, ending the input's pipeline. BatchSort is only
// partially blocking and therefore not included (Section 5.1 treats it as
// part of the surrounding pipeline).
func (op OpType) IsBlocking() bool {
	return op == Sort || op == HashAgg
}

// AggFunc is an aggregate function for HashAgg/StreamAgg.
type AggFunc int

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
)

// String implements fmt.Stringer.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// AggSpec is one aggregate expression: Func applied to column Col of the
// input row (Col ignored for AggCount).
type AggSpec struct {
	Func AggFunc
	Col  int
}

// Node is one physical operator in a plan tree. A single struct with
// operator-specific optional fields keeps plan construction, feature
// extraction and tree walking simple.
type Node struct {
	ID       int
	Op       OpType
	Children []*Node

	// Output schema: number of columns and display names (positional).
	OutCols  int
	ColNames []string

	// Scan / seek operators.
	TableName   string
	IndexColumn string // indexed column (IndexScan order / IndexSeek key)
	// Constant seek range for standalone IndexSeek drivers.
	SeekLo, SeekHi int64
	// For an IndexSeek on the inner side of a nested-loop join: the column
	// position of the *outer* row that supplies the seek key. -1 when the
	// seek uses the constant range above.
	SeekOuterCol int

	// Filter predicate (Filter) or residual join predicate.
	Pred expr.Predicate

	// Project column positions.
	ProjCols []int

	// Equijoin columns for HashJoin/MergeJoin: positions within the left
	// (outer/probe) and right (inner/build) child rows.
	JoinLeftCol, JoinRightCol int

	// Sort / BatchSort key positions; BatchSize for BatchSort.
	SortCols  []int
	BatchSize int

	// Aggregation.
	GroupCols []int
	Aggs      []AggSpec

	// Top.
	TopN int64

	// Optimizer state.
	EstRows  float64 // E_i at plan time (refined online by estimators)
	RowWidth float64 // logical bytes per output row
}

// A Plan is a rooted operator tree with nodes numbered 0..NumNodes-1 in
// depth-first (children before parent) order.
type Plan struct {
	Root  *Node
	nodes []*Node
}

// Finalize numbers the nodes, collects them, and returns the plan.
// It must be called once after the tree is built.
func Finalize(root *Node) *Plan {
	p := &Plan{Root: root}
	var visit func(n *Node)
	visit = func(n *Node) {
		for _, c := range n.Children {
			visit(c)
		}
		n.ID = len(p.nodes)
		p.nodes = append(p.nodes, n)
	}
	visit(root)
	return p
}

// Nodes returns all nodes in ID order.
func (p *Plan) Nodes() []*Node { return p.nodes }

// NumNodes returns the node count.
func (p *Plan) NumNodes() int { return len(p.nodes) }

// Node returns the node with the given ID.
func (p *Plan) Node(id int) *Node { return p.nodes[id] }

// Parent returns the parent of node n, or nil for the root.
func (p *Plan) Parent(n *Node) *Node {
	for _, cand := range p.nodes {
		for _, c := range cand.Children {
			if c == n {
				return cand
			}
		}
	}
	return nil
}

// Descendants returns the IDs of all nodes strictly below id.
func (p *Plan) Descendants(id int) []int {
	var out []int
	var visit func(n *Node)
	visit = func(n *Node) {
		for _, c := range n.Children {
			out = append(out, c.ID)
			visit(c)
		}
	}
	visit(p.nodes[id])
	return out
}

// TotalEstRows returns the sum of E_i over all nodes (the denominator of
// the TGN estimator at plan time).
func (p *Plan) TotalEstRows() float64 {
	var sum float64
	for _, n := range p.nodes {
		sum += n.EstRows
	}
	return sum
}

// String renders the plan as an indented tree.
func (p *Plan) String() string {
	var b strings.Builder
	var visit func(n *Node, depth int)
	visit = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "#%d %s", n.ID, n.Op)
		if n.TableName != "" {
			fmt.Fprintf(&b, " %s", n.TableName)
		}
		if n.IndexColumn != "" {
			fmt.Fprintf(&b, " [%s]", n.IndexColumn)
		}
		if n.Pred != nil {
			fmt.Fprintf(&b, " %s", n.Pred)
		}
		fmt.Fprintf(&b, " (est=%.0f)\n", n.EstRows)
		for _, c := range n.Children {
			visit(c, depth+1)
		}
	}
	visit(p.Root, 0)
	return b.String()
}

// CountOp returns the number of nodes with the given operator type, the
// Count_op plan-encoding feature of Section 4.3.
func (p *Plan) CountOp(op OpType) int {
	cnt := 0
	for _, n := range p.nodes {
		if n.Op == op {
			cnt++
		}
	}
	return cnt
}
