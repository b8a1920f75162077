package exec

import "sort"

// Replay re-emits the execution event stream recorded in a finished
// trace: pipeline starts at their span starts (each before any snapshot
// at the same or a later time), the retained snapshots in order,
// pipeline ends for every started pipeline in pipeline order, then
// OnDone — exactly the sequence a live run over the same retained
// observations delivers. No OnThin fires: the trace's history is final,
// so the replayed stream is that of a run whose sampling interval
// matched the retained snapshots from the outset.
//
// Snapshots are delivered up to batch at a time (one at a time for
// batch <= 1), pending ones flushed before each start event — the live
// engine's SnapshotBatch delivery contract.
//
// Replay is the snapshot-injection entry point the counter-ingestion
// sessions and the equivalence suites share: feeding a recorded trace
// through it drives an Observer — the live monitor included — exactly
// as the executor would.
func Replay(tr *Trace, obs Observer, batch int) {
	type startEv struct {
		pipe int
		t    float64
	}
	starts := make([]startEv, 0, len(tr.PipeSpans))
	for pi, span := range tr.PipeSpans {
		if span.Start >= 0 {
			starts = append(starts, startEv{pi, span.Start})
		}
	}
	sort.SliceStable(starts, func(i, j int) bool { return starts[i].t < starts[j].t })

	first := 0 // snapshots delivered so far
	flush := func(hi int) {
		if hi > first {
			obs.OnSnapshots(tr.Snapshots[first:hi])
		}
		first = hi
	}
	for i, s := range tr.Snapshots {
		for len(starts) > 0 && starts[0].t <= s.Time {
			flush(i)
			obs.OnPipelineStart(replayStart(tr, starts[0].pipe))
			starts = starts[1:]
		}
		if i+1-first >= batch {
			flush(i + 1)
		}
	}
	flush(len(tr.Snapshots))
	// A span can start at the final virtual instant, after the last
	// snapshot was captured.
	for _, st := range starts {
		obs.OnPipelineStart(replayStart(tr, st.pipe))
	}
	for pi, span := range tr.PipeSpans {
		if span.Start >= 0 {
			obs.OnPipelineEnd(pi, span.End)
		}
	}
	obs.OnDone(tr)
}

// replayStart rebuilds pipeline pi's start event from the trace. The
// totals are the trace's own DriverTotal, which holds every driver's
// total of a fully-known pipeline; with DriverTotalsKnown false they are
// never consulted (estimators fall back to plan-time cardinalities), and
// the trace does not record which partial totals were knowable.
func replayStart(tr *Trace, pi int) PipelineStart {
	return PipelineStart{
		Pipe:              pi,
		Time:              tr.PipeSpans[pi].Start,
		DriverTotalsKnown: tr.DriverTotalsKnown[pi],
		DriverTotals:      tr.DriverTotal,
	}
}
