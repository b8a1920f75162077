package exec

import (
	"fmt"
	"reflect"
	"testing"

	"progressest/internal/catalog"
	"progressest/internal/plan"
	"progressest/internal/storage"
)

// TestHashJoinOutputOrder pins the row order of a hash join whose build
// and probe sides both repeat keys: output follows the probe's arrival
// order, and within one probe row the build rows' arrival order — with
// ample memory, and with a budget that spills half the partitions, where
// the resident partitions' matches come first (in probe order) and the
// spilled probe rows' matches follow (in the order they were written
// out). A Project on top rewrites one row per call, as the join below it
// does. The expectation is computed here from the two tables, not from
// the operator.
func TestHashJoinOutputOrder(t *testing.T) {
	schema := &catalog.Schema{Name: "t", Tables: []*catalog.Table{
		{Name: "probe", Columns: []catalog.Column{{Name: "id", Width: 8}, {Name: "k", Width: 8}}},
		{Name: "build", Columns: []catalog.Column{{Name: "k", Width: 8}, {Name: "seq", Width: 8}}},
	}}
	db := storage.NewDatabase(schema)
	// 80 build rows: keys 0..19 interleaved, four rows each, seq numbering
	// their arrival; key 30 has no probe partner. 60 probe rows: keys
	// 0..22, each two or three times; 20..22 have no build partner.
	for seq := int64(0); seq < 80; seq++ {
		db.MustTable("build").Append(storage.Row{(seq * 11) % 20, seq})
	}
	db.MustTable("build").Append(storage.Row{30, 80})
	for id := int64(0); id < 60; id++ {
		db.MustTable("probe").Append(storage.Row{id, (id * 7) % 23})
	}
	probeRows, buildRows := db.MustTable("probe").Rows, db.MustTable("build").Rows

	mkPlan := func() *plan.Plan {
		probe := &plan.Node{Op: plan.TableScan, TableName: "probe", OutCols: 2, EstRows: 60, RowWidth: 16}
		// The build side's estimate is far too low: its buffer must grow.
		build := &plan.Node{Op: plan.TableScan, TableName: "build", OutCols: 2, EstRows: 10, RowWidth: 16}
		join := &plan.Node{Op: plan.HashJoin, Children: []*plan.Node{probe, build},
			JoinLeftCol: 1, JoinRightCol: 0, OutCols: 4, EstRows: 200, RowWidth: 32}
		proj := &plan.Node{Op: plan.Project, Children: []*plan.Node{join},
			ProjCols: []int{0, 1, 3}, OutCols: 3, EstRows: 200, RowWidth: 24}
		return plan.Finalize(proj)
	}

	// expected lists (probe id, key, build seq) for the probe rows for
	// which pick says yes, in probe order, matches in build order.
	expected := func(pick func(k int64) bool) []storage.Row {
		var out []storage.Row
		for _, pr := range probeRows {
			if !pick(pr[1]) {
				continue
			}
			for _, br := range buildRows {
				if br[0] == pr[1] {
					out = append(out, storage.Row{pr[0], pr[1], br[1]})
				}
			}
		}
		return out
	}

	for _, budget := range []int{0, 40} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			got := runRows(db, mkPlan(), Options{MemBudgetRows: budget})

			var spilled [spillPartitions]bool
			if nb := len(buildRows); budget > 0 {
				// The operator's rule: the share of the build side over
				// budget, rounded up to whole partitions, spills from
				// partition 0 up.
				n := int((1-float64(budget)/float64(nb))*spillPartitions + 0.999)
				for p := 0; p < n; p++ {
					spilled[p] = true
				}
			}
			resident := func(k int64) bool { return !spilled[mix64(k)%spillPartitions] }
			want := append(expected(resident), expected(func(k int64) bool { return !resident(k) })...)
			if len(want) < 150 {
				t.Fatalf("only %d joined rows expected — the case lost its duplicates", len(want))
			}
			if budget > 0 {
				nres := len(expected(resident))
				if nres == 0 || nres == len(want) {
					t.Fatalf("%d of %d joined rows from resident partitions — both phases must contribute", nres, len(want))
				}
			}
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("row %d of %d: got %v, want %v (got %d rows)", i, len(want), at(got, i), want[i], len(got))
					}
				}
				t.Fatalf("got %d rows, want %d", len(got), len(want))
			}
		})
	}
}

func at(rows []storage.Row, i int) storage.Row {
	if i < len(rows) {
		return rows[i]
	}
	return nil
}
