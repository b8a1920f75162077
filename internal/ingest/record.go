package ingest

import (
	"progressest/internal/exec"
)

// SpecFromTrace serializes a finished trace's plan, decomposition and
// at-start driver totals into the session-open wire form — the bridge a
// native (or natively recorded) execution uses to present itself as an
// external engine. The equivalence suite round-trips traces through it
// to prove ingested estimates bit-identical to in-process ones.
func SpecFromTrace(tr *exec.Trace, workload, family string) *Spec {
	spec := &Spec{Workload: workload, Family: family}
	for _, n := range tr.Plan.Nodes() {
		ns := NodeSpec{
			Op:        n.Op.String(),
			Table:     n.TableName,
			EstRows:   n.EstRows,
			RowWidth:  n.RowWidth,
			TopN:      n.TopN,
			BatchSize: n.BatchSize,
		}
		for _, c := range n.Children {
			ns.Children = append(ns.Children, c.ID)
		}
		spec.Nodes = append(spec.Nodes, ns)
	}
	// Totals only for the drivers of pipelines whose totals were fully
	// known at start: partial knowability is not reconstructible from a
	// trace, and the estimators never consult partial totals anyway.
	for pi, p := range tr.Pipes.Pipelines {
		ps := PipelineSpec{
			Nodes:   append([]int(nil), p.Nodes...),
			Drivers: append([]int(nil), p.Drivers...),
		}
		spec.Pipelines = append(spec.Pipelines, ps)
		if pi < len(tr.DriverTotalsKnown) && tr.DriverTotalsKnown[pi] {
			for _, d := range p.Drivers {
				t := tr.DriverTotal[d]
				spec.Nodes[d].Total = &t
			}
		}
	}
	return spec
}

// recorder converts an exec event stream into wire events.
type recorder struct {
	exec.BaseObserver
	nodes   int
	prev    []int64 // previous cumulative K/R/W rows
	events  []Event
	ends    []PipeEnd
	started []bool
}

func (rec *recorder) OnPipelineStart(st exec.PipelineStart) {
	rec.events = append(rec.events, Event{Start: &StartEvent{Pipeline: st.Pipe, Time: st.Time}})
	for len(rec.started) <= st.Pipe {
		rec.started = append(rec.started, false)
	}
	rec.started[st.Pipe] = true
}

func (rec *recorder) OnSnapshots(batch []exec.Snapshot) {
	for _, s := range batch {
		ev := &SnapshotEvent{Time: s.Time}
		for id := 0; id < rec.nodes; id++ {
			dk := s.K[id] - rec.prev[3*id]
			dr := s.R[id] - rec.prev[3*id+1]
			dw := s.W[id] - rec.prev[3*id+2]
			if dk != 0 || dr != 0 || dw != 0 {
				ev.Deltas = append(ev.Deltas, Delta{Node: id, K: dk, R: dr, W: dw})
				rec.prev[3*id] = s.K[id]
				rec.prev[3*id+1] = s.R[id]
				rec.prev[3*id+2] = s.W[id]
			}
		}
		rec.events = append(rec.events, Event{Snapshot: ev})
	}
}

func (rec *recorder) OnPipelineEnd(pipe int, end float64) {
	rec.ends = append(rec.ends, PipeEnd{Pipeline: pipe, Time: end})
}

// RecordBatches converts a finished trace's event stream into
// observation batches of at most snapsPerBatch snapshots each
// (start events ride along in order), the last batch carrying the
// completion marker and the exact pipeline end times. Streaming the
// result through a Runner reproduces the trace's event stream — and
// therefore its estimates — bit-identically.
func RecordBatches(tr *exec.Trace, snapsPerBatch int) []Batch {
	if snapsPerBatch <= 0 {
		snapsPerBatch = 64
	}
	rec := &recorder{nodes: tr.Plan.NumNodes()}
	rec.prev = make([]int64, 3*rec.nodes)
	exec.Replay(tr, rec, 0)

	var out []Batch
	var cur Batch
	snaps := 0
	for _, ev := range rec.events {
		cur.Events = append(cur.Events, ev)
		if ev.Snapshot != nil {
			if snaps++; snaps >= snapsPerBatch {
				out = append(out, cur)
				cur = Batch{}
				snaps = 0
			}
		}
	}
	cur.Done = true
	cur.Ends = rec.ends
	out = append(out, cur)
	return out
}
