package experiments

import (
	"fmt"
	"strings"

	"progressest/internal/exec"
	"progressest/internal/progress"
	"progressest/internal/selection"
	"progressest/internal/workload"
)

// OnlineResult evaluates the online estimator revision of Section 4.4 as
// the daemon serves it: a dynamic selector picks each pipeline's
// estimator at its start and re-picks at every marker crossing (the
// selection.Policy the monitor runs). It scores the picks that were
// served against keeping the first pick, per pipeline and for the
// whole-query progress a user reads.
type OnlineResult struct {
	FirstPickL1 float64 // the pick made at pipeline start, kept throughout
	ServedL1    float64 // the picks served, re-picked at marker crossings
	OracleL1    float64 // per-pipeline best estimator (lower bound)
	// RepickedShare is the fraction of pipelines whose served pick ever
	// left the first one.
	RepickedShare float64
	// RepickHelped / RepickHurt are the shares of re-picked pipelines
	// whose served error is lower/higher than the first pick's.
	RepickHelped, RepickHurt float64
	N                        int
	// ServedQueryL1 is the whole-query progress served (eq. 5 over the
	// served picks) against true query progress, averaged over Queries.
	ServedQueryL1 float64
	Queries       int
}

// Online trains the dynamic selector on five workloads and replays the
// sixth (TPC-H partially tuned) through a fresh view under the serving
// policy, one snapshot at a time, as a monitor with UpdateEvery 1 would
// serve it.
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
	sel, err := selection.Train(train, selection.Config{
		Kinds: progress.ExtendedKinds(), Dynamic: true, Mart: s.Cfg.martOptions(),
	})
	if err != nil {
		return nil, err
	}

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
	var repicked int
	for qi, q := range w.Queries {
		plan, err := w.Planner.Plan(q)
		if err != nil {
			return nil, fmt.Errorf("experiments: online query %d: %w", qi, err)
		}
		tr := exec.Run(w.DB, plan, exec.Options{})
		pol := selection.NewPolicy(sel, len(tr.Pipes.Pipelines))
		picks := make([][]progress.Kind, len(tr.Pipes.Pipelines)) // per observation
		query := make([]float64, 0, len(tr.Snapshots))
		view, first := pol.Replay(tr, func(view *progress.OnlineView) {
			for p, pl := range view.Pipelines {
				for len(picks[p]) < pl.NumObs() {
					picks[p] = append(picks[p], pol.Choice(p))
				}
			}
			query = append(query, view.QueryEstimate(pol.Choice))
		})
		// The final snapshot's update is superseded by the Done one.
		query[len(query)-1] = view.QueryEstimate(pol.Choice)
		for i := range query {
			query[i] -= tr.TrueProgress(i)
		}
		res.ServedQueryL1 += progress.ErrorStatsOf(query).L1
		res.Queries++

		for p, pl := range view.Pipelines {
			if pl.NumObs() < 8 {
				continue
			}
			dev := view.AppendTrueSeries(nil, p)
			rows := pl.Rows()
			changed := false
			for i := range dev {
				dev[i] = rows.EstimateAt(picks[p][i], i) - dev[i]
				changed = changed || picks[p][i] != first[p]
			}
			servedErr := progress.ErrorStatsOf(dev).L1
			firstErr := view.Errors(p, first[p]).L1
			res.FirstPickL1 += firstErr
			res.ServedL1 += servedErr
			errs := make(map[progress.Kind]progress.ErrorStats)
			for _, k := range progress.ExtendedKinds() {
				errs[k] = view.Errors(p, k)
			}
			_, best := progress.Best(errs, progress.ExtendedKinds())
			res.OracleL1 += best
			res.N++
			if changed {
				repicked++
				switch {
				case servedErr < firstErr-1e-12:
					res.RepickHelped++
				case servedErr > firstErr+1e-12:
					res.RepickHurt++
				}
			}
		}
	}
	if res.N > 0 {
		n := float64(res.N)
		res.FirstPickL1 /= n
		res.ServedL1 /= n
		res.OracleL1 /= n
		res.RepickedShare = float64(repicked) / n
		if repicked > 0 {
			res.RepickHelped /= float64(repicked)
			res.RepickHurt /= float64(repicked)
		}
	}
	if res.Queries > 0 {
		res.ServedQueryL1 /= float64(res.Queries)
	}
	return res, nil
}

// String renders the online-revision study.
func (r *OnlineResult) String() string {
	var b strings.Builder
	b.WriteString("Online estimator revision (Section 4.4): the served policy, re-picking at every marker crossing\n\n")
	fmt.Fprintf(&b, "  first pick only:           avg L1 = %.4f\n", r.FirstPickL1)
	fmt.Fprintf(&b, "  served (re-picks):         avg L1 = %.4f\n", r.ServedL1)
	fmt.Fprintf(&b, "  oracle lower bound:        avg L1 = %.4f\n", r.OracleL1)
	fmt.Fprintf(&b, "\n  re-picked %s of pipelines (of those: %s improved, %s worsened) over %d pipelines\n",
		pct(r.RepickedShare), pct(r.RepickHelped), pct(r.RepickHurt), r.N)
	fmt.Fprintf(&b, "\n  served query progress:     avg L1 = %.4f over %d queries\n", r.ServedQueryL1, r.Queries)
	b.WriteString("\nPaper: execution feedback lets selection recover from wrong static choices,\n")
	b.WriteString("which matters most late in a query where accuracy is most valuable.\n")
	return b.String()
}
