package progressest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"progressest/internal/exec"
	"progressest/internal/ingest"
	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/workload"
)

// identityObserver builds a monitorObserver over an arbitrary plan (not
// necessarily a workload query's) through the shared set-up, capturing
// the exact update stream through the deliver hook.
func identityObserver(pl *plan.Plan, pipes *pipeline.Decomposition, sel *Selector, every int, got *[]ProgressUpdate) *monitorObserver {
	m, err := newMonitor(pl, pipes, nil, "", "", -1, MonitorOptions{Selector: sel, UpdateEvery: every}, false)
	if err != nil {
		panic(err)
	}
	obs := m.obs
	obs.deliver = func(u ProgressUpdate) {
		u.Pipelines = append([]PipelineProgress(nil), u.Pipelines...)
		*got = append(*got, u)
	}
	return obs
}

// replayedUpdates drives the native trace through the monitor machinery
// via exec.Replay — the in-process reference stream.
func replayedUpdates(tr *exec.Trace, sel *Selector, every int) []ProgressUpdate {
	var got []ProgressUpdate
	obs := identityObserver(tr.Plan, tr.Pipes, sel, every, &got)
	exec.Replay(tr, obs, every)
	obs.emit(true)
	return got
}

// ingestedUpdates pushes the same trace through the full external path:
// spec and observation batches serialized to JSON, decoded by the strict
// wire decoders, rebuilt by ingest.Build, and streamed through an
// ingest.Runner into an identical monitor — returning the update stream
// plus the synthesized trace.
func ingestedUpdates(t *testing.T, tr *exec.Trace, sel *Selector, every, snapsPerBatch int) ([]ProgressUpdate, *exec.Trace) {
	t.Helper()
	var got []ProgressUpdate
	var obs *monitorObserver
	synth := streamIngested(t, tr, every, snapsPerBatch, func(model *ingest.Model) *monitorObserver {
		obs = identityObserver(model.Plan, model.Pipes, sel, every, &got)
		return obs
	})
	obs.emit(true)
	return got, synth
}

// streamIngested serializes tr's spec and observation batches to JSON,
// decodes them with the strict wire decoders, rebuilds the model with
// ingest.Build and streams it through an ingest.Runner into the monitor
// newObs builds over that model, returning the synthesized trace.
func streamIngested(t *testing.T, tr *exec.Trace, every, snapsPerBatch int, newObs func(*ingest.Model) *monitorObserver) *exec.Trace {
	t.Helper()
	specJSON, err := json.Marshal(ingest.SpecFromTrace(tr, "ext-engine", "ext-fam"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ingest.DecodeSpec(bytes.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	model, err := ingest.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	runner := ingest.NewRunner(model, newObs(model), every, 0)
	var synth *exec.Trace
	for _, b := range ingest.RecordBatches(tr, snapsPerBatch) {
		wire, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := ingest.DecodeBatch(wire)
		if err != nil {
			t.Fatal(err)
		}
		if err := runner.Apply(batch); err != nil {
			t.Fatal(err)
		}
		if batch.Done {
			if synth, err = runner.Finish(batch.Ends); err != nil {
				t.Fatal(err)
			}
		}
	}
	if synth == nil {
		t.Fatal("recorded stream carried no completion marker")
	}
	return synth
}

// TestIngestedSessionHarvestMatchesBatch pins the labels of an ingested
// session: a learning session's corpus examples — labelled from the view
// its monitor fed while the batches arrived — equal a batch harvest of
// the native trace the session replays, bit for bit, over full and
// thinned traces of every dataset family.
func TestIngestedSessionHarvestMatchesBatch(t *testing.T) {
	const every = 4
	lrn, err := OpenLearning(LearningConfig{Dir: t.TempDir(), DisableBackground: true, DisableGate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn.Close()
	var want []Example
	for _, ds := range []Dataset{TPCH, TPCDS, Real1, Real2} {
		w, err := Open(Config{Dataset: ds, Queries: 3, Scale: 0.08, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < w.NumQueries(); qi++ {
			pq, err := w.planned(qi)
			if err != nil {
				t.Fatal(err)
			}
			for _, execOpts := range []exec.Options{{}, {TargetObservations: 900, MaxObservations: 64}} {
				tr := exec.RunDecomposed(w.inner.DB, pq.plan, pq.pipes, execOpts)
				streamIngested(t, tr, every, 5, func(model *ingest.Model) *monitorObserver {
					m, err := newMonitor(model.Plan, model.Pipes, nil, "ext-engine", "ext-fam", -1,
						MonitorOptions{Learning: lrn, UpdateEvery: every}, false)
					if err != nil {
						t.Fatal(err)
					}
					return m.obs
				})
				want = append(want, workload.HarvestTrace(tr, "ext-engine", "ext-fam", -1, 0)...)
			}
		}
	}
	got, err := lrn.store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("corpus has %d examples, batch harvest %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("corpus example %d is not the batch harvest's:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestIngestedStreamBitIdentical is the tentpole's equivalence proof:
// across every dataset family — with a fixed estimator and with a
// trained selector re-picking at marker crossings, over full and
// thinned traces, at batch sizes aligned and misaligned with the update
// cadence — a query streamed through the external ingestion wire
// (JSON-encoded spec + observation batches) produces an update stream
// bit-identical to the in-process monitor observing the same counters,
// and a synthesized trace whose estimator-relevant state matches the
// native one exactly.
func TestIngestedStreamBitIdentical(t *testing.T) {
	sel := trainedSelector(t)
	const every = 4
	for _, ds := range []Dataset{TPCH, TPCDS, Real1, Real2} {
		t.Run(ds.String(), func(t *testing.T) {
			w, err := Open(Config{Dataset: ds, Queries: 4, Scale: 0.08, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			for qi := 0; qi < w.NumQueries(); qi++ {
				pq, err := w.planned(qi)
				if err != nil {
					t.Fatal(err)
				}
				for _, execOpts := range []exec.Options{
					{},
					{TargetObservations: 900, MaxObservations: 64}, // forces thinning
				} {
					tr := exec.RunDecomposed(w.inner.DB, pq.plan, pq.pipes, execOpts)
					for _, s := range []*Selector{nil, sel} {
						native := replayedUpdates(tr, s, every)
						for _, snapsPerBatch := range []int{1, 5, 64} {
							ingested, synth := ingestedUpdates(t, tr, s, every, snapsPerBatch)
							assertSameUpdates(t, qi, native, ingested)
							assertSameTrace(t, qi, tr, synth)
						}
					}
				}
			}
		})
	}
}

// assertSameTrace checks the estimator-relevant trace state: counters,
// spans, knowability, and the retained snapshot history.
func assertSameTrace(t *testing.T, qi int, a, b *exec.Trace) {
	t.Helper()
	if a.TotalTime != b.TotalTime {
		t.Fatalf("query %d: total time %v vs %v", qi, a.TotalTime, b.TotalTime)
	}
	for i := range a.N {
		if a.N[i] != b.N[i] || a.FinalR[i] != b.FinalR[i] || a.FinalW[i] != b.FinalW[i] {
			t.Fatalf("query %d node %d: final counters diverge", qi, i)
		}
	}
	for pi := range a.PipeSpans {
		if a.PipeSpans[pi] != b.PipeSpans[pi] {
			t.Fatalf("query %d pipeline %d: span %v vs %v", qi, pi, a.PipeSpans[pi], b.PipeSpans[pi])
		}
		if a.DriverTotalsKnown[pi] != b.DriverTotalsKnown[pi] {
			t.Fatalf("query %d pipeline %d: knowability diverges", qi, pi)
		}
	}
	if len(a.Snapshots) != len(b.Snapshots) {
		t.Fatalf("query %d: %d native snapshots, %d synthesized", qi, len(a.Snapshots), len(b.Snapshots))
	}
	for i := range a.Snapshots {
		sa, sb := a.Snapshots[i], b.Snapshots[i]
		if sa.Time != sb.Time {
			t.Fatalf("query %d snapshot %d: time %v vs %v", qi, i, sa.Time, sb.Time)
		}
		for n := range sa.K {
			if sa.K[n] != sb.K[n] || sa.R[n] != sb.R[n] || sa.W[n] != sb.W[n] {
				t.Fatalf("query %d snapshot %d node %d: counters diverge", qi, i, n)
			}
		}
	}
}
