package progress

import (
	"math"

	"progressest/internal/exec"
	"progressest/internal/stats"
)

// The per-snapshot estimator primitives live on PipeContext; the
// OnlineView evaluates them as snapshots arrive, so a live run and a
// replay of its trace compute the same values.

// ratioAt computes sum(K)/sum(refined E) over a node set at one snapshot —
// the shape shared by DNE (eq. 4), TGN (eq. 3), BATCHDNE (eq. 6) and
// DNESEEK (eq. 7).
func (c *PipeContext) ratioAt(ids []int, s *exec.Snapshot) float64 {
	return ratio(c.sums(ids, s))
}

// ratio is k/e clamped to [0,1], or 1 when e is not positive: work done
// over an estimated total — or, for the oracle models, the true one.
func ratio(k, e float64) float64 {
	if e <= 0 {
		return 1
	}
	return clamp01(k / e)
}

// estimate is estimator kind's value at one snapshot — what a settled
// pipeline advances, one kind at a time, where the row function
// (OnlinePipeline.record) computes every kind of a row from sums it
// shares. It covers every
// selectable kind but PMAX and SAFE, whose values depend on the history
// before the snapshot (worstStep).
func (c *PipeContext) estimate(kind Kind, s *exec.Snapshot) float64 {
	switch kind {
	case DNE:
		return c.ratioAt(c.Pipe.Drivers, s)
	case TGN:
		return c.ratioAt(c.Pipe.Nodes, s)
	case BATCHDNE:
		return c.ratioAt(c.batchDrivers, s)
	case DNESEEK:
		return c.ratioAt(c.seekDrivers, s)
	case TGNINT:
		return c.tgnintAt(s)
	case LUO:
		return c.luoAt(s)
	}
	panic("progress: estimator " + kind.String() + " is not a function of one snapshot")
}

// driverFractionAt is alpha_Pj (eq. 1) at one snapshot. It is DNE's
// value too.
func (c *PipeContext) driverFractionAt(s *exec.Snapshot) float64 {
	return c.ratioAt(c.Pipe.Drivers, s)
}

// tgnintAt computes the cardinality-interpolation estimator (eq. 8) at one
// snapshot:
//
//	TGNINT = sum(K) / (sum(K) + (1 - DNE) * sum(E))
func (c *PipeContext) tgnintAt(s *exec.Snapshot) float64 {
	k, e := c.sums(c.Pipe.Nodes, s)
	return tgnint(k, e, c.driverFractionAt(s))
}

// tgnint is eq. 8 from the GetNext sums over the pipeline's nodes and
// DNE's value.
func tgnint(k, e, dne float64) float64 {
	return ratio(k, k+(1-dne)*e)
}

// luoAt computes the bytes-processed estimator of Luo et al. at one
// snapshot: bytes read at the driver nodes plus bytes written at the
// pipeline's top node, over the estimated total, where the output total is
// refined by interpolation between the optimizer estimate and the
// scaled-up observed count (Section 3.3, eq. 2). Spill I/O inside the
// pipeline counts as bytes processed.
func (c *PipeContext) luoAt(s *exec.Snapshot) float64 {
	return c.luo(s, c.driverFractionAt(s))
}

// luo is luoAt given the driver fraction alpha at s.
func (c *PipeContext) luo(s *exec.Snapshot, alpha float64) float64 {
	done := c.luoDoneAt(s)
	var total float64
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
	return ratio(done, total)
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

// worstStep advances the worst-case estimators by one observation, given
// the GetNext sum over the pipeline's nodes and the K and refined E sums
// over its drivers, returning the PMAX and SAFE values. Both are built
// from bounds on the remaining work: each remaining driver tuple triggers
// at least 1 and at most m GetNext calls, where m is the largest
// per-tuple fan-out observed so far. The online view's thinning rebuild
// replays it over the stored sums.
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

// ErrorStats aggregates the deviation of an estimator from true progress
// over a pipeline's observations, in the paper's metrics.
type ErrorStats struct {
	L1 float64 // mean absolute deviation
	L2 float64 // root mean squared deviation
}

// ErrorStatsOf computes the error statistics of a deviation series
// (estimate minus true progress, per observation).
func ErrorStatsOf(dev []float64) ErrorStats {
	return ErrorStats{L1: stats.L1Error(dev), L2: stats.L2Error(dev)}
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
