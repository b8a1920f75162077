package progress

import (
	"math"

	"progressest/internal/exec"
	"progressest/internal/stats"
)

// The per-snapshot estimator primitives live on PipeContext so that the
// offline replay path (PipelineView.Series) and the streaming path
// (OnlineView) evaluate bit-identical arithmetic: an online consumer that
// sees the same snapshot computes exactly the value a later replay would.

// ratioAt computes sum(K)/sum(refined E) over a node set at one snapshot —
// the shape shared by DNE (eq. 4), TGN (eq. 3), BATCHDNE (eq. 6) and
// DNESEEK (eq. 7).
func (c *PipeContext) ratioAt(ids []int, s *exec.Snapshot) float64 {
	k, e := c.sums(ids, s)
	if e <= 0 {
		return 1
	}
	return clamp01(k / e)
}

// driverFractionAt is alpha_Pj (eq. 1) at one snapshot.
func (c *PipeContext) driverFractionAt(s *exec.Snapshot) float64 {
	k, e := c.sums(c.Pipe.Drivers, s)
	if e <= 0 {
		return 1
	}
	return clamp01(k / e)
}

// tgnintAt computes the cardinality-interpolation estimator (eq. 8) at one
// snapshot:
//
//	TGNINT = sum(K) / (sum(K) + (1 - DNE) * sum(E))
func (c *PipeContext) tgnintAt(s *exec.Snapshot) float64 {
	k, e := c.sums(c.Pipe.Nodes, s)
	dk, de := c.sums(c.Pipe.Drivers, s)
	dne := 1.0
	if de > 0 {
		dne = clamp01(dk / de)
	}
	den := k + (1-dne)*e
	if den <= 0 {
		return 1
	}
	return clamp01(k / den)
}

// luoAt computes the bytes-processed estimator of Luo et al. at one
// snapshot: bytes read at the driver nodes plus bytes written at the
// pipeline's top node, over the estimated total, where the output total is
// refined by interpolation between the optimizer estimate and the
// scaled-up observed count (Section 3.3, eq. 2). Spill I/O inside the
// pipeline counts as bytes processed.
func (c *PipeContext) luoAt(s *exec.Snapshot) float64 {
	done := c.luoDoneAt(s)
	var total float64
	alpha := c.driverFractionAt(s)
	for _, d := range c.Pipe.Drivers {
		total += c.refinedE(d, s) * c.Width[d]
	}
	// Interpolated output estimate (eq. 2).
	eTop := c.refinedE(c.top, s)
	if alpha > 0 {
		scaled := float64(s.K[c.top]) / alpha
		eTop = alpha*scaled + (1-alpha)*eTop
	}
	total += eTop * c.Width[c.top]
	if total <= 0 {
		return 1
	}
	return clamp01(done / total)
}

// luoDoneAt is the bytes-processed numerator at one snapshot.
func (c *PipeContext) luoDoneAt(s *exec.Snapshot) float64 {
	var done float64
	for _, d := range c.Pipe.Drivers {
		done += float64(s.K[d]) * c.Width[d]
	}
	done += float64(s.K[c.top]) * c.Width[c.top]
	for _, id := range c.spill {
		done += float64(s.R[id] + s.W[id])
	}
	return done
}

// worstState carries the running fan-out bound PMAX and SAFE maintain
// across a pipeline's observations. The zero value is not valid; use
// newWorstState.
type worstState struct {
	m            float64
	prevK, prevD float64
}

func newWorstState() worstState { return worstState{m: 1} }

// worstAt advances the worst-case estimators by one snapshot, returning
// the PMAX and SAFE values. Both are built from bounds on the remaining
// work: each remaining driver tuple triggers at least 1 and at most m
// GetNext calls, where m is the largest per-tuple fan-out observed so far.
func (c *PipeContext) worstAt(s *exec.Snapshot, st *worstState) (pmax, safe float64) {
	k, _ := c.sums(c.Pipe.Nodes, s)
	dk, de := c.sums(c.Pipe.Drivers, s)
	return worstStep(st, k, dk, de)
}

// worstStep is the snapshot-independent core of worstAt, shared with the
// online view's thinning rebuild (which replays it over stored sums).
func worstStep(st *worstState, k, dk, de float64) (pmax, safe float64) {
	if ddk := dk - st.prevD; ddk > 0 {
		if fanout := (k - st.prevK) / ddk; fanout > st.m {
			st.m = fanout
		}
	}
	st.prevK, st.prevD = k, dk
	remaining := de - dk
	if remaining < 0 {
		remaining = 0
	}
	loDen := k + remaining*st.m
	hiDen := k + remaining
	lo, hi := 1.0, 1.0
	if loDen > 0 {
		lo = clamp01(k / loDen)
	}
	if hiDen > 0 {
		hi = clamp01(k / hiDen)
	}
	return lo, clamp01(math.Sqrt(lo * hi))
}

// Series returns the estimator's progress estimate at every observation of
// the pipeline. Results are cached on the view, so replaying all
// estimators over one trace costs a single pass each.
func (v *PipelineView) Series(kind Kind) []float64 {
	if v.cache == nil {
		v.cache = make(map[Kind][]float64)
	}
	if s, ok := v.cache[kind]; ok {
		return s
	}
	var s []float64
	switch kind {
	case DNE:
		s = v.ratioSeries(v.Pipe.Drivers)
	case TGN:
		s = v.ratioSeries(v.Pipe.Nodes)
	case BATCHDNE:
		s = v.ratioSeries(v.batchDrivers)
	case DNESEEK:
		s = v.ratioSeries(v.seekDrivers)
	case TGNINT:
		s = v.perSnapshotSeries(v.tgnintAt)
	case LUO:
		s = v.perSnapshotSeries(v.luoAt)
	case OracleBytes:
		s = v.oracleBytesSeries()
	case PMAX:
		s, _ = v.worstCaseSeries()
	case SAFE:
		_, s = v.worstCaseSeries()
	case OracleGetNext:
		s = v.oracleGetNextSeries()
	default:
		panic("progress: unknown estimator kind " + kind.String())
	}
	v.cache[kind] = s
	return s
}

// Estimate returns the estimator's value at observation ordinal i.
func (v *PipelineView) Estimate(kind Kind, i int) float64 { return v.Series(kind)[i] }

// EstimateAt is an alias for Estimate, satisfying the observation-source
// interface shared with the streaming view (features.Source).
func (v *PipelineView) EstimateAt(kind Kind, i int) float64 { return v.Series(kind)[i] }

// perSnapshotSeries replays a per-snapshot estimator over the pipeline's
// observations.
func (v *PipelineView) perSnapshotSeries(f func(*exec.Snapshot) float64) []float64 {
	out := make([]float64, v.NumObs())
	for i := range out {
		out[i] = f(v.snap(i))
	}
	return out
}

func (v *PipelineView) ratioSeries(ids []int) []float64 {
	out := make([]float64, v.NumObs())
	for i := range out {
		out[i] = v.ratioAt(ids, v.snap(i))
	}
	return out
}

// oracleBytesSeries is the idealised bytes-processed model: true totals
// replace all estimates (Section 6.7). It needs the finished trace, so it
// exists only on the offline view.
func (v *PipelineView) oracleBytesSeries() []float64 {
	trueTotal := v.oracleBytesTotal(v.Trace)
	out := make([]float64, v.NumObs())
	for i := range out {
		out[i] = oracleRatio(v.luoDoneAt(v.snap(i)), trueTotal)
	}
	return out
}

// oracleBytesTotal is the true bytes-processed total of the pipeline in
// the finished trace: the denominator of the OracleBytes model.
func (c *PipeContext) oracleBytesTotal(tr *exec.Trace) float64 {
	var total float64
	for _, d := range c.Pipe.Drivers {
		total += float64(tr.N[d]) * c.Width[d]
	}
	total += float64(tr.N[c.top]) * c.Width[c.top]
	for _, id := range c.spill {
		total += float64(tr.FinalR[id] + tr.FinalW[id])
	}
	return total
}

// oracleGetNextTotal is the true GetNext total of the pipeline in the
// finished trace: the denominator of the OracleGetNext model.
func (c *PipeContext) oracleGetNextTotal(tr *exec.Trace) float64 {
	var total float64
	for _, id := range c.Pipe.Nodes {
		total += float64(tr.N[id])
	}
	return total
}

// oracleRatio is an oracle model's value: work done over the true total.
func oracleRatio(done, total float64) float64 {
	if total <= 0 {
		return 1
	}
	return clamp01(done / total)
}

// worstCaseSeries computes PMAX and SAFE together.
func (v *PipelineView) worstCaseSeries() (pmax, safe []float64) {
	n := v.NumObs()
	pmax = make([]float64, n)
	safe = make([]float64, n)
	st := newWorstState()
	for i := 0; i < n; i++ {
		pmax[i], safe[i] = v.worstAt(v.snap(i), &st)
	}
	return pmax, safe
}

// UnrefinedTGNSeries computes the TGN estimator *without* any online
// refinement of cardinality estimates: sum(K) over the raw plan-time
// sum(E_i^0), clamped to [0,1]. It exists to quantify how much the
// Section 3.3 refinement techniques contribute (the paper's concluding
// outlook points at online cardinality refinement as the main lever for
// further progress-estimation gains).
func (v *PipelineView) UnrefinedTGNSeries() []float64 {
	var e0 float64
	for _, id := range v.Pipe.Nodes {
		e0 += v.Trace.Plan.Node(id).EstRows
	}
	out := make([]float64, v.NumObs())
	for i := range out {
		s := v.snap(i)
		var k float64
		for _, id := range v.Pipe.Nodes {
			k += float64(s.K[id])
		}
		if e0 <= 0 {
			out[i] = 1
			continue
		}
		out[i] = clamp01(k / e0)
	}
	return out
}

// UnrefinedTGNErrors returns the error statistics of the unrefined TGN
// series.
func (v *PipelineView) UnrefinedTGNErrors() ErrorStats {
	est := v.UnrefinedTGNSeries()
	truth := v.TrueSeries()
	dev := make([]float64, len(est))
	for i := range est {
		dev[i] = est[i] - truth[i]
	}
	return errorStatsOf(dev, est, truth)
}

// oracleGetNextSeries is the idealised GetNext model: sum(K)/sum(N) with
// true totals (Section 6.7).
func (v *PipelineView) oracleGetNextSeries() []float64 {
	total := v.oracleGetNextTotal(v.Trace)
	out := make([]float64, v.NumObs())
	for i := range out {
		k, _ := v.sums(v.Pipe.Nodes, v.snap(i))
		out[i] = oracleRatio(k, total)
	}
	return out
}

// ErrorStats aggregates the deviation of an estimator from true progress
// over a pipeline's observations, in the paper's metrics.
type ErrorStats struct {
	L1    float64 // mean absolute deviation
	L2    float64 // root mean squared deviation
	Ratio float64 // mean max(est/true, true/est)
}

// Errors computes the estimator's error statistics against true pipeline
// progress (measured in virtual time, as the paper measures wall time).
func (v *PipelineView) Errors(kind Kind) ErrorStats {
	est := v.Series(kind)
	truth := v.TrueSeries()
	dev := make([]float64, len(est))
	for i := range est {
		dev[i] = est[i] - truth[i]
	}
	return errorStatsOf(dev, est, truth)
}

// errorStatsOf bundles the three error metrics.
func errorStatsOf(dev, est, truth []float64) ErrorStats {
	return ErrorStats{
		L1:    stats.L1Error(dev),
		L2:    stats.L2Error(dev),
		Ratio: stats.RatioError(est, truth),
	}
}

// ErrorStatsFrom computes error statistics for an externally composed
// progress series (used by online estimator revision, which splices the
// series of two estimators).
func ErrorStatsFrom(dev, est, truth []float64) ErrorStats {
	return errorStatsOf(dev, est, truth)
}

// AllErrors computes error statistics for every selectable estimator.
func (v *PipelineView) AllErrors() map[Kind]ErrorStats {
	out := make(map[Kind]ErrorStats, NumKinds)
	for _, k := range Kinds() {
		out[k] = v.Errors(k)
	}
	return out
}

// Best returns the estimator with the smallest L1 error among kinds.
func Best(errs map[Kind]ErrorStats, kinds []Kind) (Kind, float64) {
	best := kinds[0]
	bestErr := math.Inf(1)
	for _, k := range kinds {
		if e, ok := errs[k]; ok && e.L1 < bestErr {
			best, bestErr = k, e.L1
		}
	}
	return best, bestErr
}
