package exec

import (
	"testing"

	"progressest/internal/catalog"
	"progressest/internal/optimizer"
)

func sampleTrace(t *testing.T) *Trace {
	t.Helper()
	db := testDB(t, catalog.PartiallyTuned, 1)
	spec := joinSpec()
	spec.Group = &optimizer.GroupSpec{
		Cols: []optimizer.ColRef{{Table: "orders", Column: "o_orderpriority"}},
		Aggs: []optimizer.AggRef{{Func: 0}},
	}
	pl := mustPlan(t, db, spec)
	return Run(db, pl, Options{})
}

func TestPipelineObservationsWithinSpan(t *testing.T) {
	tr := sampleTrace(t)
	for p := range tr.Pipes.Pipelines {
		span := tr.PipeSpans[p]
		lo, hi := tr.ObsRange(p)
		for oi := lo; oi < hi; oi++ {
			ts := tr.Snapshots[oi].Time
			if ts < span.Start || ts > span.End {
				t.Fatalf("pipeline %d: observation at %v outside span %+v", p, ts, span)
			}
		}
	}
}

func TestTruePipelineProgressBounds(t *testing.T) {
	tr := sampleTrace(t)
	for p := range tr.Pipes.Pipelines {
		prev := -1.0
		lo, hi := tr.ObsRange(p)
		for oi := lo; oi < hi; oi++ {
			f := tr.TruePipelineProgress(p, oi)
			if f < 0 || f > 1 {
				t.Fatalf("pipeline %d progress %v", p, f)
			}
			if f < prev {
				t.Fatalf("pipeline %d progress not monotone", p)
			}
			prev = f
		}
	}
	// Out-of-span observation indices clamp to [0,1].
	if got := tr.TruePipelineProgress(0, 0); got < 0 || got > 1 {
		t.Errorf("clamping failed: %v", got)
	}
}

func TestDriverTotalsMatchTableSizes(t *testing.T) {
	tr := sampleTrace(t)
	for p, pipe := range tr.Pipes.Pipelines {
		if !tr.DriverTotalsKnown[p] {
			continue
		}
		for _, d := range pipe.Drivers {
			n := tr.Plan.Node(d)
			total := tr.DriverTotal[d]
			if total <= 0 {
				t.Errorf("pipeline %d driver %d (%v) has non-positive known total %d",
					p, d, n.Op, total)
			}
			// A driver never produces more GetNext calls than its known
			// total (scans/seeks emit exactly; blocking drivers equal it).
			if tr.N[d] > total {
				t.Errorf("driver %d emitted %d > known total %d", d, tr.N[d], total)
			}
		}
	}
}

func TestSpansAreOrderedWithinQuery(t *testing.T) {
	tr := sampleTrace(t)
	for p, span := range tr.PipeSpans {
		if span.Start < 0 {
			t.Errorf("pipeline %d never active", p)
			continue
		}
		if span.End > tr.TotalTime+1e-9 {
			t.Errorf("pipeline %d span end %v beyond total %v", p, span.End, tr.TotalTime)
		}
	}
	// The final snapshot is at TotalTime.
	last := tr.Snapshots[len(tr.Snapshots)-1]
	if last.Time != tr.TotalTime {
		t.Errorf("last snapshot at %v, total %v", last.Time, tr.TotalTime)
	}
}

func TestByteCountersConsistent(t *testing.T) {
	tr := sampleTrace(t)
	last := tr.Snapshots[len(tr.Snapshots)-1]
	for i := range tr.FinalR {
		if last.R[i] != tr.FinalR[i] || last.W[i] != tr.FinalW[i] {
			t.Fatalf("node %d: final snapshot bytes diverge from totals", i)
		}
		if tr.FinalR[i] < 0 || tr.FinalW[i] < 0 {
			t.Fatalf("node %d: negative byte counters", i)
		}
	}
	// Scans read bytes proportional to rows.
	for _, n := range tr.Plan.Nodes() {
		if n.TableName != "" && tr.N[n.ID] > 0 && tr.FinalR[n.ID] == 0 {
			t.Errorf("scan node %d produced rows but read no bytes", n.ID)
		}
	}
}
