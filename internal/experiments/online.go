package experiments

import (
	"fmt"
	"strings"

	"progressest/internal/exec"
	"progressest/internal/progress"
	"progressest/internal/selection"
	"progressest/internal/workload"
)

// OnlineResult evaluates the online estimator revision of Section 4.4:
// an initial static choice is revised once 20% of the driver input has
// been consumed and dynamic features become available. It compares the
// composite series a user would actually have seen against sticking with
// the static choice.
type OnlineResult struct {
	StaticL1    float64 // static choice kept for the whole pipeline
	CompositeL1 float64 // static choice revised at the 20% marker
	OracleL1    float64 // per-pipeline best estimator (lower bound)
	// RevisedShare is the fraction of pipelines where the dynamic model
	// changed the initial choice.
	RevisedShare float64
	// RevisionHelped / RevisionHurt count revised pipelines whose
	// composite error is lower/higher than the static choice's.
	RevisionHelped, RevisionHurt float64
	N                            int
}

// Online trains selectors on five workloads and monitors the sixth
// (TPC-H partially tuned) with the online policy, replaying real traces.
func (s *Suite) Online() (*OnlineResult, error) {
	sets, specs, err := s.adhocExamples()
	if err != nil {
		return nil, err
	}
	// Hold out the TPC-H partially-tuned workload (index 2 in the ad-hoc
	// ordering) for trace replay.
	const hold = 2
	var train []selection.Example
	for i, set := range sets {
		if i != hold {
			train = append(train, set...)
		}
	}
	static, err := selection.Train(train, selection.Config{
		Kinds: progress.ExtendedKinds(), Dynamic: false, Mart: s.Cfg.martOptions(),
	})
	if err != nil {
		return nil, err
	}
	dynamic, err := selection.Train(train, selection.Config{
		Kinds: progress.ExtendedKinds(), Dynamic: true, Mart: s.Cfg.martOptions(),
	})
	if err != nil {
		return nil, err
	}
	monitor := &selection.OnlineMonitor{Static: static, Dynamic: dynamic}

	// Re-execute the held-out workload keeping traces (the cached result
	// only retains labelled examples).
	spec := specs[hold]
	spec.Queries = s.Cfg.QueriesTPCH / 2
	if spec.Queries < 10 {
		spec.Queries = 10
	}
	w, err := workload.Build(spec)
	if err != nil {
		return nil, err
	}
	res := &OnlineResult{}
	var revised int
	for qi, q := range w.Queries {
		pl, err := w.Planner.Plan(q)
		if err != nil {
			return nil, fmt.Errorf("experiments: online query %d: %w", qi, err)
		}
		view := progress.Replay(exec.Run(w.DB, pl, exec.Options{}))
		for p, pl := range view.Pipelines {
			if pl.NumObs() < 8 {
				continue
			}
			out := monitor.Monitor(pl, view.AppendTrueSeries(nil, p))
			staticErr := view.Errors(p, out.Initial).L1
			res.StaticL1 += staticErr
			res.CompositeL1 += out.Err.L1
			errs := make(map[progress.Kind]progress.ErrorStats)
			for _, k := range progress.ExtendedKinds() {
				errs[k] = view.Errors(p, k)
			}
			_, best := progress.Best(errs, progress.ExtendedKinds())
			res.OracleL1 += best
			res.N++
			if out.Revised != out.Initial {
				revised++
				switch {
				case out.Err.L1 < staticErr-1e-12:
					res.RevisionHelped++
				case out.Err.L1 > staticErr+1e-12:
					res.RevisionHurt++
				}
			}
		}
	}
	if res.N > 0 {
		n := float64(res.N)
		res.StaticL1 /= n
		res.CompositeL1 /= n
		res.OracleL1 /= n
		res.RevisedShare = float64(revised) / n
		if revised > 0 {
			res.RevisionHelped /= float64(revised)
			res.RevisionHurt /= float64(revised)
		}
	}
	return res, nil
}

// String renders the online-revision study.
func (r *OnlineResult) String() string {
	var b strings.Builder
	b.WriteString("Online estimator revision (Section 4.4): revise the static choice at the 20% marker\n\n")
	fmt.Fprintf(&b, "  static choice only:        avg L1 = %.4f\n", r.StaticL1)
	fmt.Fprintf(&b, "  online composite (paper):  avg L1 = %.4f\n", r.CompositeL1)
	fmt.Fprintf(&b, "  oracle lower bound:        avg L1 = %.4f\n", r.OracleL1)
	fmt.Fprintf(&b, "\n  revised %s of pipelines (of those: %s improved, %s worsened) over %d pipelines\n",
		pct(r.RevisedShare), pct(r.RevisionHelped), pct(r.RevisionHurt), r.N)
	b.WriteString("\nPaper: execution feedback lets selection recover from wrong static choices,\n")
	b.WriteString("which matters most late in a query where accuracy is most valuable.\n")
	return b.String()
}
