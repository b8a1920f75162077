package exec

import (
	"slices"
	"testing"

	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/expr"
	"progressest/internal/optimizer"
	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/storage"
)

// testDB builds a small TPC-H database with the given design level.
func testDB(t *testing.T, level catalog.DesignLevel, zipf float64) *storage.Database {
	t.Helper()
	db := datagen.GenTPCH(datagen.Params{Scale: 0.05, Zipf: zipf, Seed: 2})
	if err := db.ApplyDesign(datagen.Designs(datagen.TPCHLike)[level]); err != nil {
		t.Fatal(err)
	}
	return db
}

func mustPlan(t *testing.T, db *storage.Database, spec *optimizer.QuerySpec) *plan.Plan {
	t.Helper()
	pl, err := optimizer.NewPlanner(db, optimizer.BuildStats(db)).Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// naiveJoinCount evaluates a filtered two-table equijoin by brute force.
func naiveJoinCount(db *storage.Database, leftTable string, leftFilter func(storage.Row) bool,
	leftCol int, rightTable string, rightCol int) int {
	counts := make(map[int64]int)
	for _, r := range db.MustTable(rightTable).Rows {
		counts[r[rightCol]]++
	}
	total := 0
	for _, l := range db.MustTable(leftTable).Rows {
		if leftFilter != nil && !leftFilter(l) {
			continue
		}
		total += counts[l[leftCol]]
	}
	return total
}

func joinSpec() *optimizer.QuerySpec {
	return &optimizer.QuerySpec{
		First: optimizer.TableTerm{Table: "orders", Filters: []optimizer.FilterSpec{
			{Column: "o_orderdate", IsRange: true, Lo: 1, Hi: 1200},
		}},
		Joins: []optimizer.JoinTerm{{
			Right:     optimizer.TableTerm{Table: "lineitem"},
			LeftTable: "orders", LeftCol: "o_orderkey", RightCol: "l_orderkey",
		}},
	}
}

// rootOutputCount runs the plan and returns the root's true GetNext count.
func rootOutputCount(tr *Trace) int64 { return tr.N[tr.Plan.Root.ID] }

func TestJoinResultMatchesNaiveAcrossDesigns(t *testing.T) {
	// The same logical query must produce identical result cardinality
	// under all three physical designs (different operators), and match a
	// brute-force evaluation.
	var want int64 = -1
	for _, lvl := range []catalog.DesignLevel{catalog.Untuned, catalog.PartiallyTuned, catalog.FullyTuned} {
		db := testDB(t, lvl, 1)
		pl := mustPlan(t, db, joinSpec())
		tr := Run(db, pl, Options{})
		got := rootOutputCount(tr)
		if want < 0 {
			naive := naiveJoinCount(db, "orders",
				func(r storage.Row) bool { return r[2] >= 1 && r[2] <= 1200 },
				0, "lineitem", 0)
			want = int64(naive)
		}
		if got != want {
			t.Errorf("%v: join produced %d rows, want %d", lvl, got, want)
		}
	}
}

func TestCounterInvariants(t *testing.T) {
	db := testDB(t, catalog.FullyTuned, 1)
	pl := mustPlan(t, db, joinSpec())
	tr := Run(db, pl, Options{})

	if len(tr.Snapshots) < 10 {
		t.Fatalf("too few snapshots: %d", len(tr.Snapshots))
	}
	// K monotone per node, time monotone, final snapshot equals N.
	last := tr.Snapshots[len(tr.Snapshots)-1]
	for i := range tr.N {
		if last.K[i] != tr.N[i] {
			t.Errorf("node %d: final snapshot K=%d != N=%d", i, last.K[i], tr.N[i])
		}
	}
	for s := 1; s < len(tr.Snapshots); s++ {
		if tr.Snapshots[s].Time < tr.Snapshots[s-1].Time {
			t.Fatalf("time not monotone at snapshot %d", s)
		}
		for i := range tr.N {
			if tr.Snapshots[s].K[i] < tr.Snapshots[s-1].K[i] {
				t.Fatalf("K[%d] not monotone at snapshot %d", i, s)
			}
		}
	}
	// Filters emit no more than their child.
	for _, n := range pl.Nodes() {
		if n.Op == plan.Filter || n.Op == plan.Top {
			if tr.N[n.ID] > tr.N[n.Children[0].ID] {
				t.Errorf("%v node %d emits more than its child", n.Op, n.ID)
			}
		}
	}
}

func TestDeterministicExecution(t *testing.T) {
	db := testDB(t, catalog.PartiallyTuned, 1)
	pl1 := mustPlan(t, db, joinSpec())
	pl2 := mustPlan(t, db, joinSpec())
	tr1 := Run(db, pl1, Options{})
	tr2 := Run(db, pl2, Options{})
	if tr1.TotalTime != tr2.TotalTime {
		t.Errorf("virtual times differ: %v vs %v", tr1.TotalTime, tr2.TotalTime)
	}
	for i := range tr1.N {
		if tr1.N[i] != tr2.N[i] {
			t.Errorf("N[%d] differs: %d vs %d", i, tr1.N[i], tr2.N[i])
		}
	}
}

func TestPipelineSpansCoverExecution(t *testing.T) {
	db := testDB(t, catalog.Untuned, 1)
	spec := joinSpec()
	spec.Group = &optimizer.GroupSpec{
		Cols: []optimizer.ColRef{{Table: "lineitem", Column: "l_returnflag"}},
		Aggs: []optimizer.AggRef{{Func: plan.AggCount}},
	}
	pl := mustPlan(t, db, spec)
	tr := Run(db, pl, Options{})

	if len(tr.Pipes.Pipelines) < 2 {
		t.Fatalf("expected multiple pipelines:\n%s", pl)
	}
	for i, span := range tr.PipeSpans {
		if span.Start < 0 || span.End < span.Start {
			t.Errorf("pipeline %d has invalid span %+v", i, span)
		}
		if span.End > tr.TotalTime {
			t.Errorf("pipeline %d span end %v beyond total %v", i, span.End, tr.TotalTime)
		}
	}
	// True progress must be monotone in snapshot index.
	prev := -1.0
	for i := range tr.Snapshots {
		p := tr.TrueProgress(i)
		if p < prev {
			t.Fatalf("true progress not monotone at %d", i)
		}
		prev = p
	}
	if prev < 0.999 {
		t.Errorf("final true progress %v, want 1", prev)
	}
}

func TestHashJoinSpills(t *testing.T) {
	db := testDB(t, catalog.Untuned, 1)
	pl := mustPlan(t, db, joinSpec())
	if pl.CountOp(plan.HashJoin) != 1 {
		t.Skipf("plan did not choose hash join:\n%s", pl)
	}
	noSpill := Run(db, mustPlan(t, db, joinSpec()), Options{})
	spill := Run(db, pl, Options{MemBudgetRows: 100})

	var hjID int
	for _, n := range pl.Nodes() {
		if n.Op == plan.HashJoin {
			hjID = n.ID
		}
	}
	if spill.N[hjID] <= noSpill.N[hjID] {
		t.Errorf("spilling join should record extra GetNext calls: %d vs %d",
			spill.N[hjID], noSpill.N[hjID])
	}
	if spill.FinalW[hjID] == 0 || spill.FinalR[hjID] == 0 {
		t.Error("spilling join should read and write bytes")
	}
	if noSpill.FinalW[hjID] != 0 {
		t.Error("non-spilling join should not write bytes")
	}
	// Output cardinality must be unaffected by spilling.
	if rootOutputCount(spill) != rootOutputCount(noSpill) {
		t.Errorf("spill changed results: %d vs %d",
			rootOutputCount(spill), rootOutputCount(noSpill))
	}
}

func TestTopEarlyTermination(t *testing.T) {
	db := testDB(t, catalog.Untuned, 0)
	spec := &optimizer.QuerySpec{
		First: optimizer.TableTerm{Table: "lineitem"},
		TopN:  10,
	}
	pl := mustPlan(t, db, spec)
	tr := Run(db, pl, Options{})
	if got := rootOutputCount(tr); got != 10 {
		t.Errorf("Top(10) emitted %d rows", got)
	}
	scanID := pl.Nodes()[0].ID
	if tr.N[scanID] >= int64(db.MustTable("lineitem").NumRows()) {
		t.Error("Top should terminate the scan early")
	}
}

func TestAggregationValuesCorrect(t *testing.T) {
	db := testDB(t, catalog.Untuned, 1)
	// SELECT l_returnflag, count(*), sum(l_quantity) FROM lineitem GROUP BY l_returnflag
	spec := &optimizer.QuerySpec{
		First: optimizer.TableTerm{Table: "lineitem"},
		Group: &optimizer.GroupSpec{
			Cols: []optimizer.ColRef{{Table: "lineitem", Column: "l_returnflag"}},
			Aggs: []optimizer.AggRef{
				{Func: plan.AggCount},
				{Func: plan.AggSum, Col: optimizer.ColRef{Table: "lineitem", Column: "l_quantity"}},
			},
		},
	}
	pl := mustPlan(t, db, spec)

	// Execute manually collecting output rows.
	pipesBefore := pl.CountOp(plan.HashAgg)
	if pipesBefore != 1 {
		t.Fatalf("expected HashAgg:\n%s", pl)
	}
	wantCount := make(map[int64]int64)
	wantSum := make(map[int64]int64)
	for _, r := range db.MustTable("lineitem").Rows {
		wantCount[r[7]]++
		wantSum[r[7]] += r[3]
	}
	got := collectRows(db, pl)
	if len(got) != len(wantCount) {
		t.Fatalf("got %d groups, want %d", len(got), len(wantCount))
	}
	for _, row := range got {
		flag := row[0]
		if row[1] != wantCount[flag] {
			t.Errorf("flag %d: count %d, want %d", flag, row[1], wantCount[flag])
		}
		if row[2] != wantSum[flag] {
			t.Errorf("flag %d: sum %d, want %d", flag, row[2], wantSum[flag])
		}
	}
}

// collectRows runs a plan gathering a copy of every emitted row (test
// helper that bypasses Run's trace machinery). A join or Project root
// rewrites one row per call, so the rows must be cloned to be kept.
func collectRows(db *storage.Database, p *plan.Plan) []storage.Row {
	return runRows(db, p, Options{})
}

// runRows is collectRows under opts, on a scratch of the free list.
func runRows(db *storage.Database, p *plan.Plan, opts Options) []storage.Row {
	sc := takeScratch()
	rows := runRowsOn(sc, db, p, opts)
	sc.release()
	return rows
}

// runRowsOn is runRows on operator memory from sc, which it leaves to
// the caller to release or reset.
func runRowsOn(sc *scratch, db *storage.Database, p *plan.Plan, opts Options) []storage.Row {
	ctx := newContext(db, p, pipeline.Decompose(p), opts.withDefaults(), 1<<30, sc, nil)
	root := buildIter(ctx, p.Root)
	root.open()
	var rows []storage.Row
	for {
		row, ok := root.next()
		if !ok {
			break
		}
		rows = append(rows, slices.Clone(row))
	}
	root.close()
	return rows
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	db := testDB(t, catalog.PartiallyTuned, 1)
	stats := optimizer.BuildStats(db)

	spec := &optimizer.QuerySpec{
		First: optimizer.TableTerm{Table: "orders"},
		Joins: []optimizer.JoinTerm{{
			Right:     optimizer.TableTerm{Table: "lineitem"},
			LeftTable: "orders", LeftCol: "o_orderkey", RightCol: "l_orderkey",
		}},
	}
	pMerge := optimizer.NewPlanner(db, stats)
	pMerge.NLMaxOuterRows = 0
	plMerge, err := pMerge.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plMerge.CountOp(plan.MergeJoin) != 1 {
		t.Skipf("merge join not chosen:\n%s", plMerge)
	}

	naive := naiveJoinCount(db, "orders", nil, 0, "lineitem", 0)
	trM := Run(db, plMerge, Options{})
	if got := rootOutputCount(trM); got != int64(naive) {
		t.Errorf("merge join produced %d rows, want %d", got, naive)
	}
}

func TestNestedLoopMatchesNaive(t *testing.T) {
	db := testDB(t, catalog.FullyTuned, 2)
	spec := &optimizer.QuerySpec{
		First: optimizer.TableTerm{Table: "customer", Filters: []optimizer.FilterSpec{
			{Column: "c_mktsegment", Op: expr.Eq, Val: 2},
		}},
		Joins: []optimizer.JoinTerm{{
			Right:     optimizer.TableTerm{Table: "orders"},
			LeftTable: "customer", LeftCol: "c_custkey", RightCol: "o_custkey",
		}},
	}
	pl := mustPlan(t, db, spec)
	if pl.CountOp(plan.NestedLoopJoin) != 1 {
		t.Skipf("nested loop not chosen:\n%s", pl)
	}
	naive := naiveJoinCount(db, "customer",
		func(r storage.Row) bool { return r[2] == 2 }, 0, "orders", 1)
	tr := Run(db, pl, Options{})
	if got := rootOutputCount(tr); got != int64(naive) {
		t.Errorf("nested loop produced %d rows, want %d", got, naive)
	}
}

func TestSemiJoinMatchesNaive(t *testing.T) {
	db := testDB(t, catalog.PartiallyTuned, 1)
	// Orders with EXISTS a shipped-late lineitem.
	spec := &optimizer.QuerySpec{
		First: optimizer.TableTerm{Table: "orders"},
		Exists: []optimizer.JoinTerm{{
			Right: optimizer.TableTerm{Table: "lineitem", Filters: []optimizer.FilterSpec{
				{Column: "l_shipdate", IsRange: true, Lo: 1000, Hi: 2000},
			}},
			LeftTable: "orders", LeftCol: "o_orderkey", RightCol: "l_orderkey",
		}},
	}
	pl := mustPlan(t, db, spec)
	if pl.CountOp(plan.SemiJoin) != 1 {
		t.Fatalf("want a semi join:\n%s", pl)
	}
	tr := Run(db, pl, Options{})

	// Brute force: order keys with at least one matching lineitem.
	keys := map[int64]bool{}
	for _, r := range db.MustTable("lineitem").Rows {
		if r[6] >= 1000 && r[6] <= 2000 {
			keys[r[0]] = true
		}
	}
	want := int64(0)
	for _, r := range db.MustTable("orders").Rows {
		if keys[r[0]] {
			want++
		}
	}
	if got := rootOutputCount(tr); got != want {
		t.Errorf("semi join emitted %d rows, want %d", got, want)
	}
	// A semi join never emits more rows than its probe input.
	var sjID int
	for _, n := range pl.Nodes() {
		if n.Op == plan.SemiJoin {
			sjID = n.ID
		}
	}
	probeID := pl.Node(sjID).Children[0].ID
	if tr.N[sjID] > tr.N[probeID] {
		t.Error("semi join emitted more rows than its probe input")
	}
}

func TestBatchSortBlocksInBatches(t *testing.T) {
	db := testDB(t, catalog.FullyTuned, 1)

	// Build a plan with an explicit batch sort over a scan to observe the
	// staircase pattern directly.
	meta := db.Schema.MustTable("orders")
	scan := &plan.Node{
		Op: plan.TableScan, TableName: "orders",
		EstRows: float64(db.MustTable("orders").NumRows()), RowWidth: float64(meta.RowWidth()),
		OutCols: len(meta.Columns),
	}
	bs := &plan.Node{
		Op: plan.BatchSort, Children: []*plan.Node{scan},
		SortCols: []int{1}, BatchSize: 100,
		EstRows: scan.EstRows, RowWidth: scan.RowWidth, OutCols: scan.OutCols,
	}
	pl := plan.Finalize(bs)
	tr := Run(db, pl, Options{TargetObservations: 2000})

	if tr.N[bs.ID] != tr.N[scan.ID] {
		t.Errorf("batch sort emits %d, scan produced %d", tr.N[bs.ID], tr.N[scan.ID])
	}
	// At any snapshot, the scan may be up to one batch ahead of the sort.
	for s, snap := range tr.Snapshots {
		ahead := snap.K[scan.ID] - snap.K[bs.ID]
		if ahead < 0 || ahead > 101 {
			t.Fatalf("snapshot %d: scan ahead by %d (batch=100)", s, ahead)
		}
	}
}

func TestObservationThinning(t *testing.T) {
	db := testDB(t, catalog.Untuned, 0)
	spec := &optimizer.QuerySpec{First: optimizer.TableTerm{Table: "lineitem"}}
	pl := mustPlan(t, db, spec)
	tr := Run(db, pl, Options{TargetObservations: 50000, MaxObservations: 64})
	if len(tr.Snapshots) > 130 {
		t.Errorf("thinning failed: %d snapshots kept", len(tr.Snapshots))
	}
}
