package progress

import "progressest/internal/exec"

// ReferencePipeline is the reference the OnlineView is checked against:
// one pipeline of a finished trace, every estimator evaluated snapshot by
// snapshot from the trace alone — a context built from the trace's
// driver totals, the observations Trace.ObsRange attributes to the
// pipeline — with no incremental state, no shortcut for unchanged
// counters and no thinning rebuild. It lives in test code so that the
// view stays the one implementation.
type ReferencePipeline struct {
	*PipeContext
	tr     *exec.Trace
	lo, hi int
}

// NewReferencePipeline prepares the reference for pipeline p of tr.
func NewReferencePipeline(tr *exec.Trace, p int) *ReferencePipeline {
	r := &ReferencePipeline{
		PipeContext: NewPipeContext(tr.Plan, tr.Pipes.Pipelines[p], tr.DriverTotalsKnown[p], tr.DriverTotal),
		tr:          tr,
	}
	r.lo, r.hi = tr.ObsRange(p)
	return r
}

// NumObs returns the number of observations within the pipeline.
func (r *ReferencePipeline) NumObs() int { return r.hi - r.lo }

func (r *ReferencePipeline) snap(i int) *exec.Snapshot { return &r.tr.Snapshots[r.lo+i] }

// DriverFraction returns alpha_Pj (eq. 1) at observation ordinal i.
func (r *ReferencePipeline) DriverFraction(i int) float64 { return r.driverFractionAt(r.snap(i)) }

// TimeSinceStart returns the virtual time since the pipeline's span start
// at observation ordinal i.
func (r *ReferencePipeline) TimeSinceStart(i int) float64 {
	return r.snap(i).Time - r.tr.PipeSpans[r.Pipe.ID].Start
}

// TrueSeries returns the true pipeline progress at each observation.
func (r *ReferencePipeline) TrueSeries() []float64 {
	out := make([]float64, r.NumObs())
	for i := range out {
		out[i] = r.tr.TruePipelineProgress(r.Pipe.ID, r.lo+i)
	}
	return out
}

// Series returns estimator kind's value at every observation, the oracle
// models' included.
func (r *ReferencePipeline) Series(kind Kind) []float64 {
	out := make([]float64, r.NumObs())
	st := newWorstState()
	for i := range out {
		s := r.snap(i)
		switch kind {
		case DNE:
			out[i] = r.ratioAt(r.Pipe.Drivers, s)
		case TGN:
			out[i] = r.ratioAt(r.Pipe.Nodes, s)
		case BATCHDNE:
			out[i] = r.ratioAt(r.batchDrivers, s)
		case DNESEEK:
			out[i] = r.ratioAt(r.seekDrivers, s)
		case TGNINT:
			out[i] = r.tgnintAt(s)
		case LUO:
			out[i] = r.luoAt(s)
		case PMAX, SAFE:
			k, _ := r.sums(r.Pipe.Nodes, s)
			dk, de := r.sums(r.Pipe.Drivers, s)
			pmax, safe := worstStep(&st, k, dk, de)
			out[i] = pmax
			if kind == SAFE {
				out[i] = safe
			}
		case OracleGetNext:
			k, _ := r.sums(r.Pipe.Nodes, s)
			out[i] = ratio(k, r.oracleGetNextTotal(r.tr))
		case OracleBytes:
			out[i] = ratio(r.luoDoneAt(s), r.oracleBytesTotal(r.tr))
		default:
			panic("progress: unknown estimator kind " + kind.String())
		}
	}
	return out
}
