package progress

import (
	"math"
	"testing"

	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/exec"
	"progressest/internal/optimizer"
	"progressest/internal/pipeline"
	"progressest/internal/plan"
)

// manualTrace builds a tiny scan->filter trace with hand-set counters for
// exact arithmetic checks.
func manualTrace() *exec.Trace {
	scan := &plan.Node{Op: plan.TableScan, TableName: "t", EstRows: 100, RowWidth: 10, OutCols: 1}
	filt := &plan.Node{Op: plan.Filter, Children: []*plan.Node{scan}, EstRows: 50, RowWidth: 10, OutCols: 1}
	p := plan.Finalize(filt)
	pipes := pipeline.Decompose(p)

	mk := func(t float64, k0, k1 int64) exec.Snapshot {
		return exec.Snapshot{Time: t, K: []int64{k0, k1}, R: make([]int64, 2), W: make([]int64, 2)}
	}
	tr := &exec.Trace{
		Plan:  p,
		Pipes: pipes,
		Snapshots: []exec.Snapshot{
			mk(10, 25, 10),
			mk(20, 50, 20),
			mk(30, 75, 40),
			mk(40, 100, 80),
		},
		N:                 []int64{100, 80},
		FinalR:            make([]int64, 2),
		FinalW:            make([]int64, 2),
		PipeSpans:         []exec.Span{{Start: 0, End: 40}},
		TotalTime:         40,
		DriverTotalsKnown: []bool{true},
		DriverTotal:       []int64{100, 0},
	}
	return tr
}

// finished is one pipeline of a finished view.
type finished struct {
	view *OnlineView
	p    int
}

// manualPipe replays manualTrace through a fresh view.
func manualPipe() finished { return finished{Replay(manualTrace()), 0} }

func (f finished) Series(kind Kind) []float64  { return f.view.AppendSeries(nil, f.p, kind) }
func (f finished) Errors(kind Kind) ErrorStats { return f.view.Errors(f.p, kind) }

func TestDNEExactArithmetic(t *testing.T) {
	v := manualPipe()
	s := v.Series(DNE)
	want := []float64{0.25, 0.5, 0.75, 1.0}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Errorf("DNE[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestTGNExactArithmetic(t *testing.T) {
	v := manualPipe()
	s := v.Series(TGN)
	// E0 = [100 (exact driver), 50]; bounds refinement lifts E1 to K1 when
	// K1 exceeds it: at obs 3, K1=80 > 50, so E1=80.
	want := []float64{
		(25.0 + 10) / (100 + 50),
		(50.0 + 20) / (100 + 50),
		(75.0 + 40) / (100 + 50),
		(100.0 + 80) / (100 + 80),
	}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Errorf("TGN[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestTGNINTExact(t *testing.T) {
	v := manualPipe()
	s := v.Series(TGNINT)
	// TGNINT = K / (K + (1-DNE)*E) with K,E summed over the pipeline.
	es := []float64{150, 150, 150, 180}
	ks := []float64{35, 70, 115, 180}
	dnes := []float64{0.25, 0.5, 0.75, 1.0}
	for i := range ks {
		want := ks[i] / (ks[i] + (1-dnes[i])*es[i])
		if math.Abs(s[i]-want) > 1e-12 {
			t.Errorf("TGNINT[%d] = %v, want %v", i, s[i], want)
		}
	}
	if s[3] != 1 {
		t.Errorf("TGNINT should reach 1 when drivers are consumed, got %v", s[3])
	}
}

func TestOracleGetNextExact(t *testing.T) {
	v := manualPipe()
	s := v.Series(OracleGetNext)
	// Totals: N = 100+80 = 180.
	want := []float64{35.0 / 180, 70.0 / 180, 115.0 / 180, 1.0}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Errorf("OracleGetNext[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestSafeIsGeometricMeanOfBounds(t *testing.T) {
	v := manualPipe()
	pmax := v.Series(PMAX)
	safe := v.Series(SAFE)
	for i := range pmax {
		if safe[i] < pmax[i]-1e-12 {
			t.Errorf("SAFE[%d]=%v should be >= PMAX[%d]=%v", i, safe[i], i, pmax[i])
		}
		if safe[i] > 1 || pmax[i] > 1 || safe[i] < 0 || pmax[i] < 0 {
			t.Errorf("bounds estimators out of range at %d", i)
		}
	}
}

func TestBatchAndSeekVariantsEqualDNEWithoutThoseOps(t *testing.T) {
	// The paper notes BATCHDNE and DNESEEK produce identical estimates to
	// DNE for pipelines without BatchSort/IndexSeek operators.
	v := manualPipe()
	dne := v.Series(DNE)
	for i := range dne {
		if v.Series(BATCHDNE)[i] != dne[i] {
			t.Errorf("BATCHDNE differs from DNE at %d without batch sorts", i)
		}
		if v.Series(DNESEEK)[i] != dne[i] {
			t.Errorf("DNESEEK differs from DNE at %d without seeks", i)
		}
	}
}

func TestErrorStatsOrdering(t *testing.T) {
	v := manualPipe()
	for _, k := range Kinds() {
		e := v.Errors(k)
		if e.L2 < e.L1-1e-9 {
			t.Errorf("%v: L2 %v < L1 %v", k, e.L2, e.L1)
		}
		if e.L1 < 0 {
			t.Errorf("%v: invalid error stats %+v", k, e)
		}
	}
}

// realViews replays a realistic query and returns its pipelines with at
// least five observations.
func realViews(t *testing.T, level catalog.DesignLevel) []finished {
	t.Helper()
	db := datagen.GenTPCH(datagen.Params{Scale: 0.08, Zipf: 1, Seed: 4})
	if err := db.ApplyDesign(datagen.Designs(datagen.TPCHLike)[level]); err != nil {
		t.Fatal(err)
	}
	spec := &optimizer.QuerySpec{
		First: optimizer.TableTerm{Table: "orders", Filters: []optimizer.FilterSpec{
			{Column: "o_orderdate", IsRange: true, Lo: 1, Hi: 1600},
		}},
		Joins: []optimizer.JoinTerm{{
			Right:     optimizer.TableTerm{Table: "lineitem"},
			LeftTable: "orders", LeftCol: "o_orderkey", RightCol: "l_orderkey",
		}},
		Group: &optimizer.GroupSpec{
			Cols: []optimizer.ColRef{{Table: "lineitem", Column: "l_returnflag"}},
			Aggs: []optimizer.AggRef{{Func: plan.AggCount}},
		},
	}
	pl, err := optimizer.NewPlanner(db, optimizer.BuildStats(db)).Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	view := Replay(exec.Run(db, pl, exec.Options{}))
	var views []finished
	for i, p := range view.Pipelines {
		if p.NumObs() >= 5 {
			views = append(views, finished{view, i})
		}
	}
	if len(views) == 0 {
		t.Fatal("no pipelines with enough observations")
	}
	return views
}

func TestAllEstimatorsInRangeOnRealQuery(t *testing.T) {
	for _, lvl := range []catalog.DesignLevel{catalog.Untuned, catalog.FullyTuned} {
		for _, v := range realViews(t, lvl) {
			for _, k := range []Kind{DNE, TGN, LUO, PMAX, SAFE, BATCHDNE, DNESEEK, TGNINT, OracleGetNext, OracleBytes} {
				for i, val := range v.Series(k) {
					if val < 0 || val > 1 || math.IsNaN(val) {
						t.Fatalf("%v/%v: estimate %v out of range at obs %d", lvl, k, val, i)
					}
				}
			}
		}
	}
}

func TestDNEMonotoneWithKnownDrivers(t *testing.T) {
	for _, v := range realViews(t, catalog.Untuned) {
		if !v.view.Pipelines[v.p].DriverKnown {
			continue
		}
		s := v.Series(DNE)
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1]-1e-9 {
				t.Fatalf("DNE not monotone at obs %d: %v -> %v", i, s[i-1], s[i])
			}
		}
	}
}

func TestOracleGetNextBeatsPracticalEstimatorsOnAverage(t *testing.T) {
	// Section 6.7: the idealised GetNext model has much lower error than
	// practical estimators. Check it on aggregate over real pipelines.
	var oracleSum, bestPracticalSum float64
	n := 0
	for _, lvl := range []catalog.DesignLevel{catalog.Untuned, catalog.PartiallyTuned, catalog.FullyTuned} {
		for _, v := range realViews(t, lvl) {
			errs := make(map[Kind]ErrorStats)
			for _, k := range Kinds() {
				errs[k] = v.Errors(k)
			}
			oracleSum += v.Errors(OracleGetNext).L1
			_, best := Best(errs, CoreKinds())
			bestPracticalSum += best
			n++
		}
	}
	if n == 0 {
		t.Fatal("no pipelines")
	}
	if oracleSum/float64(n) > bestPracticalSum/float64(n)+0.05 {
		t.Errorf("oracle L1 %.4f should not be much worse than best practical %.4f",
			oracleSum/float64(n), bestPracticalSum/float64(n))
	}
}

func TestBestSelectsMinimum(t *testing.T) {
	errs := map[Kind]ErrorStats{
		DNE: {L1: 0.3}, TGN: {L1: 0.1}, LUO: {L1: 0.2},
	}
	k, e := Best(errs, CoreKinds())
	if k != TGN || e != 0.1 {
		t.Errorf("Best = %v/%v, want TGN/0.1", k, e)
	}
}

// Ensure estimators behave on a trace with spills: the extra GetNext calls
// must not push estimates out of range.
func TestEstimatorsWithSpills(t *testing.T) {
	db := datagen.GenTPCH(datagen.Params{Scale: 0.08, Zipf: 1, Seed: 4})
	if err := db.ApplyDesign(datagen.Designs(datagen.TPCHLike)[catalog.Untuned]); err != nil {
		t.Fatal(err)
	}
	spec := &optimizer.QuerySpec{
		First: optimizer.TableTerm{Table: "orders"},
		Joins: []optimizer.JoinTerm{{
			Right:     optimizer.TableTerm{Table: "lineitem"},
			LeftTable: "orders", LeftCol: "o_orderkey", RightCol: "l_orderkey",
		}},
	}
	pl, err := optimizer.NewPlanner(db, optimizer.BuildStats(db)).Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pl.CountOp(plan.HashJoin) == 0 {
		t.Skip("no hash join in plan")
	}
	view := Replay(exec.Run(db, pl, exec.Options{MemBudgetRows: 200}))
	for i, p := range view.Pipelines {
		if p.NumObs() < 3 {
			continue
		}
		for _, k := range Kinds() {
			for _, val := range view.AppendSeries(nil, i, k) {
				if val < 0 || val > 1 || math.IsNaN(val) {
					t.Fatalf("%v out of range with spills: %v", k, val)
				}
			}
		}
	}
}
