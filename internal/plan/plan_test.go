package plan

import (
	"strings"
	"testing"
)

// buildSample constructs HashAgg(HashJoin(Filter(Scan a), Scan b)).
func buildSample() (*Plan, map[string]*Node) {
	scanA := &Node{Op: TableScan, TableName: "a", EstRows: 100, RowWidth: 16}
	filt := &Node{Op: Filter, Children: []*Node{scanA}, EstRows: 40, RowWidth: 16}
	scanB := &Node{Op: TableScan, TableName: "b", EstRows: 50, RowWidth: 8}
	join := &Node{Op: HashJoin, Children: []*Node{filt, scanB}, EstRows: 60, RowWidth: 24}
	agg := &Node{Op: HashAgg, Children: []*Node{join}, GroupCols: []int{0}, EstRows: 5, RowWidth: 8}
	return Finalize(agg), map[string]*Node{
		"scanA": scanA, "filt": filt, "scanB": scanB, "join": join, "agg": agg,
	}
}

func TestFinalizeNumbersDepthFirst(t *testing.T) {
	p, n := buildSample()
	if p.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d", p.NumNodes())
	}
	// Children numbered before parents; root last.
	if p.Root != n["agg"] || n["agg"].ID != 4 {
		t.Errorf("root should be the aggregate with the last ID, got %d", n["agg"].ID)
	}
	if n["scanA"].ID >= n["filt"].ID || n["filt"].ID >= n["join"].ID {
		t.Error("left chain must be numbered bottom-up")
	}
	for i, node := range p.Nodes() {
		if node.ID != i {
			t.Errorf("Nodes()[%d].ID = %d", i, node.ID)
		}
		if p.Node(i) != node {
			t.Errorf("Node(%d) mismatch", i)
		}
	}
}

func TestParentAndDescendants(t *testing.T) {
	p, n := buildSample()
	if p.Parent(n["scanA"]) != n["filt"] {
		t.Error("Parent(scanA) should be the filter")
	}
	if p.Parent(n["agg"]) != nil {
		t.Error("root has no parent")
	}
	desc := p.Descendants(n["join"].ID)
	if len(desc) != 3 {
		t.Fatalf("join should have 3 descendants, got %v", desc)
	}
	seen := map[int]bool{}
	for _, id := range desc {
		seen[id] = true
	}
	if !seen[n["scanA"].ID] || !seen[n["filt"].ID] || !seen[n["scanB"].ID] {
		t.Errorf("Descendants(join) = %v", desc)
	}
	if leaf := p.Descendants(n["scanA"].ID); len(leaf) != 0 {
		t.Errorf("leaf descendants = %v", leaf)
	}
}

func TestTotalEstRowsAndCountOp(t *testing.T) {
	p, _ := buildSample()
	if got := p.TotalEstRows(); got != 255 {
		t.Errorf("TotalEstRows = %v, want 255", got)
	}
	if p.CountOp(TableScan) != 2 || p.CountOp(HashJoin) != 1 || p.CountOp(Sort) != 0 {
		t.Error("CountOp wrong")
	}
}

func TestOpTypeArity(t *testing.T) {
	want := map[OpType]int{
		TableScan: 0, IndexScan: 0, IndexSeek: 0,
		HashJoin: 2, MergeJoin: 2, NestedLoopJoin: 2, SemiJoin: 2,
		Filter: 1, Project: 1, Sort: 1, BatchSort: 1, HashAgg: 1, StreamAgg: 1, Top: 1,
	}
	if len(want) != int(NumOpTypes) {
		t.Fatalf("the table covers %d of %d operators", len(want), NumOpTypes)
	}
	for op, n := range want {
		if op.Arity() != n {
			t.Errorf("%v: arity %d, want %d", op, op.Arity(), n)
		}
	}
}

func TestOpTypePredicates(t *testing.T) {
	for _, op := range []OpType{HashJoin, MergeJoin, NestedLoopJoin} {
		if !op.IsJoin() {
			t.Errorf("%v should be a join", op)
		}
	}
	for _, op := range []OpType{TableScan, Filter, Sort, BatchSort} {
		if op.IsJoin() {
			t.Errorf("%v should not be a join", op)
		}
	}
	if !Sort.IsBlocking() || !HashAgg.IsBlocking() {
		t.Error("Sort and HashAgg are blocking")
	}
	// BatchSort is only partially blocking (Section 5.1) — it must stay in
	// its pipeline.
	if BatchSort.IsBlocking() {
		t.Error("BatchSort must not be treated as fully blocking")
	}
	if StreamAgg.IsBlocking() {
		t.Error("StreamAgg streams")
	}
}

func TestStringForms(t *testing.T) {
	p, _ := buildSample()
	s := p.String()
	for _, want := range []string{"HashAgg", "HashJoin", "TableScan a", "TableScan b", "est="} {
		if !strings.Contains(s, want) {
			t.Errorf("plan rendering missing %q:\n%s", want, s)
		}
	}
	if OpType(99).String() == "" || AggFunc(99).String() == "" {
		t.Error("unknown enums should still render")
	}
	names := map[AggFunc]string{AggCount: "count", AggSum: "sum", AggMin: "min", AggMax: "max"}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("AggFunc(%d) = %q, want %q", int(f), f.String(), want)
		}
	}
}
