package exec

import (
	"testing"

	"progressest/internal/catalog"
)

// recordingObserver mirrors the trace sink through the Observer interface
// and records the event ordering invariants. Counters are deep-copied:
// the slices inside a delivered Snapshot alias the engine's reusable
// arena and must not be retained.
type recordingObserver struct {
	BaseObserver
	snapshots []Snapshot
	starts    []PipelineStart
	ends      map[int]float64
	thins     int
	badThins  int // thins whose retained snapshots differ from the mirror
	done      *Trace
}

func (r *recordingObserver) OnPipelineStart(st PipelineStart) {
	st.DriverTotals = append([]int64(nil), st.DriverTotals...)
	r.starts = append(r.starts, st)
}
func (r *recordingObserver) OnPipelineEnd(p int, end float64) { r.ends[p] = end }
func (r *recordingObserver) OnSnapshots(batch []Snapshot) {
	for _, s := range batch {
		r.snapshots = append(r.snapshots, Snapshot{
			Time: s.Time,
			K:    append([]int64(nil), s.K...),
			R:    append([]int64(nil), s.R...),
			W:    append([]int64(nil), s.W...),
		})
	}
}
func (r *recordingObserver) OnDone(tr *Trace) { r.done = tr }

// OnThin drops the even ordinals of the mirrored history and checks that
// what is left is what the engine says it retained.
func (r *recordingObserver) OnThin(retained []Snapshot) {
	r.thins++
	kept := r.snapshots[:0]
	for i, s := range r.snapshots {
		if i%2 == 1 {
			kept = append(kept, s)
		}
	}
	r.snapshots = kept
	if len(retained) != len(kept) {
		r.badThins++
		return
	}
	for i := range kept {
		if !sameSnapshot(kept[i], retained[i]) {
			r.badThins++
			return
		}
	}
}

// TestObserverMirrorsTrace checks that an Observer consuming the event
// stream reconstructs exactly the snapshot history, spans and driver
// totals of the returned Trace — the foundation the streaming estimator
// path rests on.
func TestObserverMirrorsTrace(t *testing.T) {
	db := testDB(t, catalog.PartiallyTuned, 1)
	spec := joinSpec()
	pl := mustPlan(t, db, spec)
	rec := &recordingObserver{ends: make(map[int]float64)}
	tr := Run(db, pl, Options{Observer: rec})

	if rec.done != tr {
		t.Fatal("OnDone did not deliver the returned trace")
	}
	if len(rec.snapshots) != len(tr.Snapshots) {
		t.Fatalf("observer retained %d snapshots, trace has %d",
			len(rec.snapshots), len(tr.Snapshots))
	}
	for i := range tr.Snapshots {
		if rec.snapshots[i].Time != tr.Snapshots[i].Time {
			t.Fatalf("snapshot %d: observer time %v, trace %v",
				i, rec.snapshots[i].Time, tr.Snapshots[i].Time)
		}
	}
	started := make(map[int]bool)
	for _, st := range rec.starts {
		if started[st.Pipe] {
			t.Fatalf("pipeline %d started twice", st.Pipe)
		}
		started[st.Pipe] = true
		if got := tr.PipeSpans[st.Pipe].Start; got != st.Time {
			t.Fatalf("pipeline %d: start event at %v, span start %v", st.Pipe, st.Time, got)
		}
		if st.DriverTotalsKnown != tr.DriverTotalsKnown[st.Pipe] {
			t.Fatalf("pipeline %d: known flag diverges", st.Pipe)
		}
		if !st.DriverTotalsKnown {
			continue
		}
		for _, d := range tr.Pipes.Pipelines[st.Pipe].Drivers {
			if st.DriverTotals[d] != tr.DriverTotal[d] {
				t.Fatalf("driver %d: start total %d, trace total %d", d, st.DriverTotals[d], tr.DriverTotal[d])
			}
		}
	}
	for p, span := range tr.PipeSpans {
		if span.Start >= 0 && !started[p] {
			t.Fatalf("active pipeline %d never reported a start", p)
		}
		if span.Start >= 0 {
			if end, ok := rec.ends[p]; !ok || end != span.End {
				t.Fatalf("pipeline %d: end event %v (present %v), span end %v",
					p, end, ok, span.End)
			}
		}
	}
}

// TestTraceThinning exercises the MaxObservations halving path in
// maybeSnapshot: the stored history stays bounded, remains strictly
// time-ordered, still terminates at the final counters, and the observer
// sees every thinning event.
func TestTraceThinning(t *testing.T) {
	db := testDB(t, catalog.PartiallyTuned, 1)
	spec := joinSpec()
	pl := mustPlan(t, db, spec)

	// A generous snapshot budget first: how many observations does this
	// query yield unconstrained?
	full := Run(db, pl, Options{TargetObservations: 600})
	if len(full.Snapshots) < 200 {
		t.Fatalf("query too short to exercise thinning: %d observations", len(full.Snapshots))
	}

	const maxObs = 48
	rec := &recordingObserver{ends: make(map[int]float64)}
	tr := Run(db, pl, Options{TargetObservations: 600, MaxObservations: maxObs, Observer: rec})

	if rec.thins == 0 {
		t.Fatal("expected at least one thinning event")
	}
	if rec.badThins != 0 {
		t.Fatalf("%d of %d thins handed over retained snapshots other than the mirrored history", rec.badThins, rec.thins)
	}
	if len(tr.Snapshots) > maxObs+1 {
		t.Fatalf("thinning failed to bound the history: %d > %d", len(tr.Snapshots), maxObs)
	}
	if len(tr.Snapshots) < maxObs/4 {
		t.Fatalf("thinning dropped too much: %d observations", len(tr.Snapshots))
	}
	for i := 1; i < len(tr.Snapshots); i++ {
		if tr.Snapshots[i].Time <= tr.Snapshots[i-1].Time {
			t.Fatalf("snapshot times not strictly increasing at %d", i)
		}
	}
	// The final snapshot still carries the true totals.
	last := tr.Snapshots[len(tr.Snapshots)-1]
	if last.Time != tr.TotalTime {
		t.Fatalf("last snapshot at %v, total time %v", last.Time, tr.TotalTime)
	}
	for id := range tr.N {
		if last.K[id] != tr.N[id] {
			t.Fatalf("node %d: final K %d, true total %d", id, last.K[id], tr.N[id])
		}
		if last.R[id] != tr.FinalR[id] || last.W[id] != tr.FinalW[id] {
			t.Fatalf("node %d: final byte counters diverge", id)
		}
	}
	// The thinned execution measures the same work as the unconstrained
	// one (thinning only drops observations, never counters).
	for id := range tr.N {
		if tr.N[id] != full.N[id] {
			t.Fatalf("node %d: thinned run N %d, full run N %d", id, tr.N[id], full.N[id])
		}
	}
	// And the observer mirrored the retained history through the thins.
	if len(rec.snapshots) != len(tr.Snapshots) {
		t.Fatalf("observer retained %d snapshots after thinning, trace has %d",
			len(rec.snapshots), len(tr.Snapshots))
	}
}

// batchRecorder records the same stream as recordingObserver plus each
// batch's size, interleaving event markers so the ordering guarantee
// (batches never straddle starts/thins/completion) is checkable.
type batchRecorder struct {
	recordingObserver
	batches []int    // size of each delivered batch
	events  []string // flattened event order: "snap", "start", "thin", "done"
}

func (b *batchRecorder) OnSnapshots(batch []Snapshot) {
	b.batches = append(b.batches, len(batch))
	b.recordingObserver.OnSnapshots(batch)
	for range batch {
		b.events = append(b.events, "snap")
	}
}
func (b *batchRecorder) OnPipelineStart(st PipelineStart) {
	b.events = append(b.events, "start")
	b.recordingObserver.OnPipelineStart(st)
}
func (b *batchRecorder) OnThin(retained []Snapshot) {
	b.events = append(b.events, "thin")
	b.recordingObserver.OnThin(retained)
}
func (b *batchRecorder) OnDone(tr *Trace) {
	b.events = append(b.events, "done")
	b.recordingObserver.OnDone(tr)
}

// TestSnapshotBatchingDeliversIdenticalStream runs the same plan with and
// without SnapshotBatch and checks the batched observer sees exactly the
// unbatched event stream — same snapshots (times and all counters), same
// starts and thins in the same relative order — just grouped into batches
// bounded by the configured size.
func TestSnapshotBatchingDeliversIdenticalStream(t *testing.T) {
	db := testDB(t, catalog.PartiallyTuned, 1)
	spec := joinSpec()
	pl := mustPlan(t, db, spec)

	for _, opt := range []Options{
		{TargetObservations: 600},
		{TargetObservations: 600, MaxObservations: 48}, // forces thinning
	} {
		plain := &recordingObserver{ends: make(map[int]float64)}
		optPlain := opt
		optPlain.Observer = plain
		trPlain := Run(db, pl, optPlain)

		const batchSize = 7
		batched := &batchRecorder{recordingObserver: recordingObserver{ends: make(map[int]float64)}}
		optBatch := opt
		optBatch.Observer = batched
		optBatch.SnapshotBatch = batchSize
		trBatch := Run(db, pl, optBatch)

		if len(batched.batches) == 0 {
			t.Fatal("no batches delivered")
		}
		for _, n := range batched.batches {
			if n < 1 || n > batchSize {
				t.Fatalf("batch size %d outside [1,%d]", n, batchSize)
			}
		}
		if batched.thins != plain.thins {
			t.Fatalf("batched saw %d thins, unbatched %d", batched.thins, plain.thins)
		}
		if len(batched.snapshots) != len(plain.snapshots) {
			t.Fatalf("batched retained %d snapshots, unbatched %d",
				len(batched.snapshots), len(plain.snapshots))
		}
		for i := range plain.snapshots {
			a, b := plain.snapshots[i], batched.snapshots[i]
			if a.Time != b.Time {
				t.Fatalf("snapshot %d: time %v vs %v", i, a.Time, b.Time)
			}
			for id := range a.K {
				if a.K[id] != b.K[id] || a.R[id] != b.R[id] || a.W[id] != b.W[id] {
					t.Fatalf("snapshot %d node %d: counters diverge", i, id)
				}
			}
		}
		// The trace itself is delivery-mode independent.
		if len(trPlain.Snapshots) != len(trBatch.Snapshots) {
			t.Fatalf("trace lengths diverge: %d vs %d", len(trPlain.Snapshots), len(trBatch.Snapshots))
		}
		if batched.events[len(batched.events)-1] != "done" {
			t.Fatal("done not last event")
		}
	}
}
