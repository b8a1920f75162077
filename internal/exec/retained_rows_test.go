package exec

import (
	"fmt"
	"slices"
	"testing"

	"progressest/internal/catalog"
	"progressest/internal/expr"
	"progressest/internal/plan"
	"progressest/internal/storage"
)

// TestRetainedRowsSurviveTransientChildren covers every place an
// operator keeps a row past its child's next call while that child is
// transient — a join or Project rewriting one output row per call, or a
// Filter passing such a row through — in plans no serving query reaches:
// a Sort over a hash join, a BatchSort over a nested-loop join, a hash
// join building on a join, a spilling hash join probing with a join (both
// phases), and a merge join whose left input is a Filter over a join and
// whose right input is a Project over one. Each output is compared, as a
// multiset, with a brute-force reference computed from the tables; a kept
// row that aliases its child's buffer turns up as duplicated rows.
func TestRetainedRowsSurviveTransientChildren(t *testing.T) {
	two := func(name, c0, c1 string) *catalog.Table {
		return &catalog.Table{Name: name, Columns: []catalog.Column{{Name: c0, Width: 8}, {Name: c1, Width: 8}}}
	}
	db := storage.NewDatabase(&catalog.Schema{Name: "t", Tables: []*catalog.Table{
		two("a", "id", "k"), two("b", "k", "v"), two("c", "k", "w"),
	}})
	// a and c arrive sorted by key, so a hash join probing with either
	// emits in key order (merge join inputs); b's keys are scattered and
	// two rows share each key; a key of 12 or more has no partner in c.
	for id := int64(0); id < 56; id++ {
		db.MustTable("a").Append(storage.Row{id, id / 4})
	}
	for v := int64(0); v < 30; v++ {
		db.MustTable("b").Append(storage.Row{(v * 7) % 15, v})
	}
	for w := int64(0); w < 24; w++ {
		db.MustTable("c").Append(storage.Row{w / 2, 100 + w})
	}
	a, b, c := db.MustTable("a").Rows, db.MustTable("b").Rows, db.MustTable("c").Rows

	scan := func(name string) *plan.Node {
		return &plan.Node{Op: plan.TableScan, TableName: name, OutCols: 2, EstRows: 20, RowWidth: 16}
	}
	binary := func(op plan.OpType, left, right *plan.Node, lc, rc int) *plan.Node {
		return &plan.Node{Op: op, Children: []*plan.Node{left, right}, JoinLeftCol: lc, JoinRightCol: rc,
			OutCols: left.OutCols + right.OutCols, EstRows: 100, RowWidth: left.RowWidth + right.RowWidth}
	}
	unary := func(n, child *plan.Node) *plan.Node {
		n.Children, n.EstRows, n.RowWidth = []*plan.Node{child}, child.EstRows, child.RowWidth
		if n.OutCols == 0 {
			n.OutCols = child.OutCols
		}
		return n
	}
	// a ⋈ b on a.k = b.k: (a.id, a.k, b.k, b.v), in a's order.
	ab := func() *plan.Node { return binary(plan.HashJoin, scan("a"), scan("b"), 1, 0) }
	abRows := naiveJoin(a, b, 1, 0)
	budget := 10

	cases := []struct {
		name   string
		budget int
		root   *plan.Node
		want   []storage.Row
	}{{
		name: "Sort over HashJoin",
		root: unary(&plan.Node{Op: plan.Sort, SortCols: []int{3}}, ab()),
		want: abRows,
	}, {
		name: "BatchSort over NestedLoopJoin",
		root: unary(&plan.Node{Op: plan.BatchSort, SortCols: []int{3}, BatchSize: 7},
			binary(plan.NestedLoopJoin, scan("c"), scan("b"), 0, 0)),
		want: naiveJoin(c, b, -1, 0),
	}, {
		name: "HashJoin building on a join",
		root: binary(plan.HashJoin, scan("c"), ab(), 0, 1),
		want: naiveJoin(c, abRows, 0, 1),
	}, {
		name:   "spilling HashJoin probing with a join",
		budget: budget,
		root:   binary(plan.HashJoin, ab(), scan("c"), 1, 0),
		want:   naiveJoin(abRows, c, 1, 0),
	}, {
		name: "MergeJoin over a Filter over a join and a Project over a join",
		root: binary(plan.MergeJoin,
			unary(&plan.Node{Op: plan.Filter, Pred: &expr.ColConst{Col: 3, Op: expr.Lt, Val: 20}}, ab()),
			unary(&plan.Node{Op: plan.Project, ProjCols: []int{0, 3}, OutCols: 2},
				binary(plan.HashJoin, scan("c"), scan("b"), 0, 0)),
			1, 0),
		want: naiveJoin(
			slices.DeleteFunc(slices.Clone(abRows), func(r storage.Row) bool { return r[3] >= 20 }),
			project(naiveJoin(c, b, 0, 0), 0, 3), 1, 0),
	}}

	// The spilling case must put matched probe rows on both sides of the
	// partition split, or phase 2 (or phase 1) never runs.
	var spilled [spillPartitions]bool
	for p := 0; p < int((1-float64(budget)/float64(len(c)))*spillPartitions+0.999); p++ {
		spilled[p] = true
	}
	phases := map[bool]int{}
	for _, r := range naiveJoin(abRows, c, 1, 0) {
		phases[spilled[mix64(r[1])%spillPartitions]]++
	}
	if phases[false] == 0 || phases[true] == 0 {
		t.Fatalf("spilling case: %d rows from resident and %d from spilled partitions — both phases must contribute",
			phases[false], phases[true])
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.want) < 40 {
				t.Fatalf("only %d reference rows — the case lost its duplicates", len(tc.want))
			}
			got := runRows(db, plan.Finalize(tc.root), Options{MemBudgetRows: tc.budget})
			if g, w := sortedRows(got), sortedRows(tc.want); !slices.EqualFunc(g, w, slices.Equal) {
				t.Fatalf("got %d rows, want %d\n got %v\nwant %v", len(g), len(w), head(g), head(w))
			}
		})
	}
}

// naiveJoin is every left ++ right with left[lc] == right[rc], in left
// order and then right order; lc < 0 joins every pair.
func naiveJoin(left, right []storage.Row, lc, rc int) []storage.Row {
	var out []storage.Row
	for _, l := range left {
		for _, r := range right {
			if lc < 0 || l[lc] == r[rc] {
				out = append(out, slices.Concat(l, r))
			}
		}
	}
	return out
}

// project keeps cols of every row.
func project(rows []storage.Row, cols ...int) []storage.Row {
	out := make([]storage.Row, len(rows))
	for i, r := range rows {
		for _, c := range cols {
			out[i] = append(out[i], r[c])
		}
	}
	return out
}

// sortedRows is rows in lexicographic order, for a multiset comparison.
func sortedRows(rows []storage.Row) []storage.Row {
	return slices.SortedFunc(slices.Values(rows), slices.Compare)
}

func head(rows []storage.Row) string {
	return fmt.Sprint(rows[:min(len(rows), 8)])
}
