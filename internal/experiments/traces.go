package experiments

import (
	"fmt"
	"strings"

	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/exec"
	"progressest/internal/expr"
	"progressest/internal/optimizer"
	"progressest/internal/plan"
	"progressest/internal/progress"
	"progressest/internal/textplot"
)

// TraceResult is one progress-vs-time trace (Figures 6 and 7): the true
// progress of a pipeline over its lifetime together with several
// estimators' views of it.
type TraceResult struct {
	Title  string
	Note   string
	Truth  []float64
	Series map[progress.Kind][]float64
	Shown  []progress.Kind
}

// String renders the trace chart.
func (r *TraceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", r.Title)
	series := []textplot.Series{{Name: "TRUE", Values: r.Truth}}
	for _, k := range r.Shown {
		series = append(series, textplot.Series{Name: k.String(), Values: r.Series[k]})
	}
	b.WriteString(textplot.Lines(series, 64, 14, false, "progress"))
	fmt.Fprintf(&b, "\n%s\n", r.Note)
	return b.String()
}

// traceForPipeline extracts the estimator series of the pipeline with the
// most observations.
func traceForPipeline(tr *exec.Trace, kinds []progress.Kind) (*TraceResult, int) {
	view := progress.Replay(tr)
	bestPipe, bestObs := -1, 0
	for p, pl := range view.Pipelines {
		if pl.NumObs() > bestObs {
			bestObs, bestPipe = pl.NumObs(), p
		}
	}
	res := &TraceResult{
		Truth:  view.AppendTrueSeries(nil, bestPipe),
		Series: make(map[progress.Kind][]float64),
		Shown:  kinds,
	}
	for _, k := range kinds {
		res.Series[k] = view.AppendSeries(nil, bestPipe, k)
	}
	return res, bestPipe
}

// Figure6 reproduces the nested-loop-with-batch-sort trace: the partially
// blocking batch sort makes driver-node-based estimators (DNE) overshoot,
// while BATCHDNE, which counts the batch sort among the driver nodes,
// tracks true progress.
func (s *Suite) Figure6() (*TraceResult, error) {
	db := datagen.GenTPCH(datagen.Params{Scale: s.Cfg.Scale, Zipf: 1.5, Seed: s.Cfg.Seed + 71})
	if err := db.ApplyDesign(datagen.Designs(datagen.TPCHLike)[catalog.FullyTuned]); err != nil {
		return nil, err
	}
	// The paper's Figure 6 illustrates one specific plan shape — a nested
	// iteration whose outer side passes through a partially blocking batch
	// sort — so the plan is constructed explicitly (a cost-based optimizer
	// may legitimately prefer a merge join for this query).
	stats := optimizer.BuildStats(db)
	ordersMeta := db.Schema.MustTable("orders")
	lineMeta := db.Schema.MustTable("lineitem")
	nOrders := float64(db.MustTable("orders").NumRows())
	nLine := float64(db.MustTable("lineitem").NumRows())

	scan := &plan.Node{
		Op: plan.TableScan, TableName: "orders",
		EstRows: nOrders, RowWidth: float64(ordersMeta.RowWidth()),
		OutCols: len(ordersMeta.Columns),
	}
	filterEst := stats.Histogram("orders", "o_orderdate").EstRange(1, 1400)
	filt := &plan.Node{
		Op: plan.Filter, Children: []*plan.Node{scan},
		Pred:    &expr.Between{Col: 2, Name: "o_orderdate", Lo: 1, Hi: 1400},
		EstRows: filterEst, RowWidth: scan.RowWidth, OutCols: scan.OutCols,
	}
	bs := &plan.Node{
		Op: plan.BatchSort, Children: []*plan.Node{filt},
		SortCols: []int{0}, BatchSize: int(filterEst/8) + 32,
		EstRows: filterEst, RowWidth: scan.RowWidth, OutCols: scan.OutCols,
	}
	ndvOrderKey := stats.Histogram("lineitem", "l_orderkey").NDV
	seek := &plan.Node{
		Op: plan.IndexSeek, TableName: "lineitem", IndexColumn: "l_orderkey",
		SeekOuterCol: 0,
		EstRows:      filterEst * nLine / ndvOrderKey, RowWidth: float64(lineMeta.RowWidth()),
		OutCols: len(lineMeta.Columns),
	}
	nlj := &plan.Node{
		Op: plan.NestedLoopJoin, Children: []*plan.Node{bs, seek},
		JoinLeftCol: 0, JoinRightCol: scan.OutCols,
		EstRows:  seek.EstRows,
		RowWidth: scan.RowWidth + seek.RowWidth,
		OutCols:  scan.OutCols + seek.OutCols,
	}
	pl := plan.Finalize(nlj)
	if pl.CountOp(plan.NestedLoopJoin) == 0 || pl.CountOp(plan.BatchSort) == 0 {
		return nil, fmt.Errorf("experiments: figure 6 plan lacks NL join + batch sort:\n%s", pl)
	}
	tr := exec.Run(db, pl, exec.Options{TargetObservations: 600})
	res, _ := traceForPipeline(tr, []progress.Kind{progress.DNE, progress.BATCHDNE})
	res.Title = "Figure 6: nested-loop pipeline with batch sort (estimated vs true progress)"
	res.Note = "Paper: the partially blocking batch sort makes DNE overshoot near batch\n" +
		"boundaries; BATCHDNE includes the batch sort among the driver nodes and tracks truth."
	return res, nil
}

// Figure7 reproduces the complex-hash-join trace: cardinality estimation
// errors hurt TGN (which cannot recover), while interpolating estimators
// (TGNINT, LUO) adjust as the driver input is consumed.
func (s *Suite) Figure7() (*TraceResult, error) {
	db := datagen.GenTPCH(datagen.Params{Scale: s.Cfg.Scale, Zipf: 2, Seed: s.Cfg.Seed + 72})
	if err := db.ApplyDesign(datagen.Designs(datagen.TPCHLike)[catalog.Untuned]); err != nil {
		return nil, err
	}
	planner := optimizer.NewPlanner(db, optimizer.BuildStats(db))
	// Skewed FK-FK join chain: the estimate for the part-lineitem join is
	// far off under z=2 skew.
	spec := &optimizer.QuerySpec{
		First: optimizer.TableTerm{Table: "part", Filters: []optimizer.FilterSpec{
			{Column: "p_size", IsRange: true, Lo: 1, Hi: 25},
		}},
		Joins: []optimizer.JoinTerm{
			{Right: optimizer.TableTerm{Table: "lineitem"},
				LeftTable: "part", LeftCol: "p_partkey", RightCol: "l_partkey"},
			{Right: optimizer.TableTerm{Table: "orders", Filters: []optimizer.FilterSpec{
				{Column: "o_orderpriority", Op: expr.Le, Val: 3},
			}}, LeftTable: "lineitem", LeftCol: "l_orderkey", RightCol: "o_orderkey"},
		},
	}
	pl, err := planner.Plan(spec)
	if err != nil {
		return nil, err
	}
	if pl.CountOp(plan.HashJoin) == 0 {
		return nil, fmt.Errorf("experiments: figure 7 plan lacks a hash join:\n%s", pl)
	}
	tr := exec.Run(db, pl, exec.Options{TargetObservations: 600})
	res, _ := traceForPipeline(tr, []progress.Kind{progress.TGN, progress.TGNINT, progress.LUO})
	res.Title = "Figure 7: complex hash-join query under cardinality estimation error"
	res.Note = "Paper: TGN cannot recover from selectivity errors; TGNINT and LUO interpolate\n" +
		"towards observed cardinalities as the driver input is consumed."
	return res, nil
}
