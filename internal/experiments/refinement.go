package experiments

import (
	"fmt"
	"strings"

	"progressest/internal/catalog"
	"progressest/internal/exec"
	"progressest/internal/progress"
	"progressest/internal/textplot"
	"progressest/internal/workload"
)

// RefinementResult is the online-cardinality-refinement study motivated by
// the paper's conclusion ("a further venue towards improved progress
// estimation may be the study of better online cardinality refinement"):
// it isolates how much each refinement layer contributes to the GetNext
// family of estimators, from no refinement at all up to oracle totals.
type RefinementResult struct {
	RawL1     float64 // TGN over raw plan-time estimates
	BoundedL1 float64 // TGN with worst-case bounds refinement ([6], §3.3)
	InterpL1  float64 // TGNINT with Luo-style interpolation ([13], eq. 8)
	OracleL1  float64 // true totals (the idealised GetNext model)
	N         int
}

// Refinement replays the TPC-H partially tuned workload and measures all
// four refinement levels on the same traces.
func (s *Suite) Refinement() (*RefinementResult, error) {
	spec := s.tpchSpec(catalog.PartiallyTuned, 1, s.Cfg.Scale, 22)
	spec.Queries = s.Cfg.QueriesTPCH / 2
	if spec.Queries < 10 {
		spec.Queries = 10
	}
	w, err := workload.Build(spec)
	if err != nil {
		return nil, err
	}
	res := &RefinementResult{}
	for qi, q := range w.Queries {
		pl, err := w.Planner.Plan(q)
		if err != nil {
			return nil, fmt.Errorf("experiments: refinement query %d: %w", qi, err)
		}
		view := progress.Replay(exec.Run(w.DB, pl, exec.Options{}))
		for p, pl := range view.Pipelines {
			if pl.NumObs() < 8 {
				continue
			}
			raw := pl.UnrefinedTGNSeries()
			for i, v := range view.AppendTrueSeries(nil, p) {
				raw[i] -= v
			}
			res.RawL1 += progress.ErrorStatsOf(raw).L1
			res.BoundedL1 += view.Errors(p, progress.TGN).L1
			res.InterpL1 += view.Errors(p, progress.TGNINT).L1
			res.OracleL1 += view.Errors(p, progress.OracleGetNext).L1
			res.N++
		}
	}
	if res.N > 0 {
		n := float64(res.N)
		res.RawL1 /= n
		res.BoundedL1 /= n
		res.InterpL1 /= n
		res.OracleL1 /= n
	}
	return res, nil
}

// String renders the ladder.
func (r *RefinementResult) String() string {
	var b strings.Builder
	b.WriteString("Cardinality-refinement ladder for the GetNext estimator family (avg L1)\n\n")
	b.WriteString(textplot.Bars(
		[]string{"no refinement", "worst-case bounds [6]", "interpolation [13]", "oracle totals"},
		[]float64{r.RawL1, r.BoundedL1, r.InterpL1, r.OracleL1}, 40))
	fmt.Fprintf(&b, "\n(%d pipelines)\n", r.N)
	b.WriteString("\nPaper (§3.3, §6.7): each refinement layer tightens estimates during execution;\n")
	b.WriteString("with oracle cardinalities most of the remaining error disappears, so better\n")
	b.WriteString("online refinement is the main lever for further gains.\n")
	return b.String()
}
