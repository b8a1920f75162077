package progress

// QueryView reads whole-query progress off a finished OnlineView,
// following eq. 5 of the paper: the query's progress is the weighted sum
// of the pipelines' estimated progress, each weighted by its share of the
// estimated total work (driver-node E_i for driver-based estimators; we
// use the pipeline's total estimated GetNext count, which reduces to the
// same weights for single-driver pipelines and remains well-defined for
// every estimator kind). The weights are taken in hindsight, from every
// pipeline's final context, so they hold still over the whole series —
// unlike OnlineView.QueryEstimate, whose weights move as pipelines start.
//
// A QueryView is read-only once built.
type QueryView struct {
	view    *OnlineView
	weights []float64 // per pipeline, normalised
}

// NewQueryView prepares the eq. 5 combination of a finished view.
func NewQueryView(view *OnlineView) *QueryView {
	q := &QueryView{view: view, weights: make([]float64, len(view.Pipelines))}
	var total float64
	for p := range view.Pipelines {
		var w float64
		c := view.Context(p)
		for _, id := range c.Pipe.Nodes {
			w += c.E0[id]
		}
		q.weights[p] = w
		total += w
	}
	if total > 0 {
		for i := range q.weights {
			q.weights[i] /= total
		}
	}
	return q
}

// Weight returns pipeline p's share of the estimated total work.
func (q *QueryView) Weight(p int) float64 { return q.weights[p] }

// Series returns the whole-query progress estimate at every snapshot of
// the run, with estimator choose(p) for pipeline p: completed pipelines
// contribute their full weight, the active pipeline its estimate at its
// latest observation at or before the snapshot, and future pipelines
// zero.
func (q *QueryView) Series(choose func(p int) Kind) []float64 {
	tr := q.view.Trace
	per := make([][]float64, len(q.view.Pipelines))
	lo := make([]int, len(per)) // each pipeline's first observation's snapshot
	for p := range per {
		per[p] = q.view.AppendSeries(nil, p, choose(p))
		lo[p], _ = tr.ObsRange(p)
	}
	out := make([]float64, len(tr.Snapshots))
	for obs := range out {
		t := tr.Snapshots[obs].Time
		var sum float64
		for p, s := range per {
			span := tr.PipeSpans[p]
			switch {
			case span.End <= span.Start, t >= span.End:
				// Completed — or degenerate (no activity): count as done.
				sum += q.weights[p]
			case t < span.Start:
				// not started
			default:
				if ord := ordinalAtOrBefore(obs, lo[p], len(s)); ord >= 0 {
					sum += q.weights[p] * s[ord]
				}
			}
		}
		out[obs] = clamp01(sum)
	}
	return out
}

// TrueSeries returns the true whole-query progress (virtual time) at
// every snapshot.
func (q *QueryView) TrueSeries() []float64 {
	tr := q.view.Trace
	out := make([]float64, len(tr.Snapshots))
	for i := range out {
		out[i] = tr.TrueProgress(i)
	}
	return out
}

// Errors returns the error statistics of a single-estimator query series.
func (q *QueryView) Errors(kind Kind) ErrorStats {
	dev := q.Series(func(int) Kind { return kind })
	for i, v := range q.TrueSeries() {
		dev[i] -= v
	}
	return ErrorStatsOf(dev)
}

// ordinalAtOrBefore maps a global snapshot index to the ordinal of the
// pipeline observation at or before it, or -1, for a pipeline whose n
// observations are the contiguous snapshots [lo, lo+n).
func ordinalAtOrBefore(obs, lo, n int) int {
	if obs >= lo+n {
		obs = lo + n - 1
	}
	if obs < lo {
		return -1
	}
	return obs - lo
}
