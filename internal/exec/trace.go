package exec

import (
	"sort"

	"progressest/internal/pipeline"
	"progressest/internal/plan"
)

// Snapshot is one observation t in Observations(Q): the per-node GetNext
// counters K_i and logical byte counters R_i, W_i at virtual time Time.
type Snapshot struct {
	Time float64
	K    []int64
	R    []int64
	W    []int64
}

// Span is the virtual-time interval during which a pipeline was active.
type Span struct {
	Start, End float64
}

// Trace is the complete observable record of one query execution: the
// plan, the pipeline decomposition, the observation snapshots, the final
// ("true") counter values N_i, and per-pipeline activity spans. Progress
// estimators are pure functions over a Trace prefix, so many estimators
// can replay one execution — exactly how the paper collects training data
// ("the overhead for tracking multiple estimators is nearly identical to
// the overhead for computing a single one").
type Trace struct {
	Plan  *plan.Plan
	Pipes *pipeline.Decomposition
	// Snapshots is the observation history. A trace recorded on a
	// borrowed History holds it until History.Release, which sets it to
	// nil; any other trace owns it.
	Snapshots []Snapshot

	// N is the true total GetNext count per node (Q.N_i), known only at
	// termination.
	N []int64
	// FinalR and FinalW are the true total logical bytes read/written.
	FinalR, FinalW []int64

	// PipeSpans[p] is the active virtual-time interval of pipeline p.
	PipeSpans []Span
	// TotalTime is the virtual time of the last observation.
	TotalTime float64

	// DriverTotalsKnown[p] reports whether the driver input sizes of
	// pipeline p were known exactly when the pipeline started (true for
	// base-table scans and completed blocking operators; the common case,
	// as the paper notes).
	DriverTotalsKnown []bool
	// DriverTotal[n] is the exact input size of driver node n when known
	// at pipeline start (the denominator DNE uses in place of E_i).
	DriverTotal []int64
}

// ObsRange returns the half-open snapshot index range [lo, hi) falling
// within pipeline p's active span. Snapshot times are strictly increasing,
// so the in-span observations form one contiguous run, located by binary
// search.
func (tr *Trace) ObsRange(p int) (lo, hi int) {
	span := tr.PipeSpans[p]
	if span.End <= span.Start {
		return 0, 0
	}
	lo = sort.Search(len(tr.Snapshots), func(i int) bool {
		return tr.Snapshots[i].Time >= span.Start
	})
	hi = lo + sort.Search(len(tr.Snapshots)-lo, func(i int) bool {
		return tr.Snapshots[lo+i].Time > span.End
	})
	return lo, hi
}

// TrueProgress returns the true progress of the whole query at snapshot
// index i, measured in virtual time (the paper measures actual progress
// "based on its overall execution time").
func (tr *Trace) TrueProgress(i int) float64 {
	if tr.TotalTime <= 0 {
		return 1
	}
	return tr.Snapshots[i].Time / tr.TotalTime
}

// TruePipelineProgress returns the true progress of pipeline p at snapshot
// index i, in virtual time relative to the pipeline's span.
func (tr *Trace) TruePipelineProgress(p, i int) float64 {
	span := tr.PipeSpans[p]
	dur := span.End - span.Start
	if dur <= 0 {
		return 1
	}
	f := (tr.Snapshots[i].Time - span.Start) / dur
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
