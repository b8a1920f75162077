package exec

import "math"

// PipelineStart describes a pipeline the moment it first becomes active:
// the virtual start time and the driver-input totals that are exactly
// knowable at that point (base-table scans know their table size,
// constant-range index seeks know the range size, and blocking operators
// know their buffered output size once filled — which happens before their
// pipeline starts emitting).
type PipelineStart struct {
	// Pipe is the pipeline's index in the plan's decomposition.
	Pipe int
	// Time is the virtual clock at the pipeline's first activity; it equals
	// the pipeline's Span.Start in the finished Trace.
	Time float64
	// DriverTotalsKnown reports whether the input size of every driver node
	// was known exactly at this moment (the common case, as the paper
	// notes).
	DriverTotalsKnown bool
	// DriverTotals is indexed by plan node ID. When DriverTotalsKnown is
	// true, the entry of every driver node of the pipeline is its exact
	// input size; no other entry means anything. It aliases the source's
	// own per-node totals (the executor's, a replayed Trace's DriverTotal,
	// an ingest model's Total), so like a Snapshot's counters it is valid
	// only for the duration of the OnPipelineStart call.
	DriverTotals []int64
}

// Observer receives execution events while a query runs. It is the
// streaming counterpart of the batch Trace: estimators that consume these
// events can maintain progress estimates while the query executes instead
// of replaying a finished trace. All callbacks are invoked synchronously
// on the executing goroutine, in execution order; implementations must not
// retain or mutate the counter slices inside a Snapshot.
//
// The recorded Trace itself is one Observer implementation (the sink
// exec.Run always installs), so the batch call sites observe exactly the
// events a streaming observer does.
type Observer interface {
	// OnPipelineStart fires at the pipeline's first activity.
	OnPipelineStart(st PipelineStart)
	// OnPipelineEnd fires once the pipeline's activity span is final; end is
	// the span's last active virtual time. The engine reports ends when it
	// is certain no further activity can occur, which for nested plans may
	// be at query completion.
	OnPipelineEnd(pipe int, end float64)
	// OnSnapshots delivers consecutive recorded counter snapshots in
	// execution order: up to Options.SnapshotBatch of them per call, one
	// per call by default. A batch never straddles another event — pending
	// snapshots are always delivered before an OnPipelineStart, OnThin or
	// OnDone — so the stream is the same snapshot for snapshot whatever
	// the batch size; only the call granularity changes (the live monitor
	// uses it to conflate per-snapshot work into per-tick work). The slice
	// and the counter slices inside its elements are only valid for the
	// duration of the call.
	OnSnapshots(batch []Snapshot)
	// OnThin fires when the snapshot history was thinned: every other
	// previously delivered snapshot (the even 0-based ordinals of those
	// retained so far) was dropped and the sampling interval doubled.
	// retained holds the snapshots kept, in order — the history as the
	// finished trace would hold it now — so a streaming consumer can
	// re-derive from them whatever it keeps of the history rather than
	// mirror it. Like a batch, retained and the counter slices inside it
	// are only valid for the duration of the call.
	OnThin(retained []Snapshot)
	// OnDone fires once with the completed trace.
	OnDone(tr *Trace)
}

// BaseObserver is a no-op Observer for embedding, so implementations can
// override only the events they care about.
type BaseObserver struct{}

// OnPipelineStart implements Observer.
func (BaseObserver) OnPipelineStart(PipelineStart) {}

// OnPipelineEnd implements Observer.
func (BaseObserver) OnPipelineEnd(int, float64) {}

// OnSnapshots implements Observer.
func (BaseObserver) OnSnapshots([]Snapshot) {}

// OnThin implements Observer.
func (BaseObserver) OnThin([]Snapshot) {}

// OnDone implements Observer.
func (BaseObserver) OnDone(*Trace) {}

// TraceSink accumulates the snapshot history of a Trace — the one Run
// returns, and the one an ingest.Runner synthesizes from an external
// engine's counters. It stores the counter rows in an arena of
// fixed-size chunks (the capture time plus 3·nodes int64s per row)
// instead of three fresh slices per snapshot. The arena grows one chunk
// at a time and never moves a stored row, so a run allocates what its
// peak row count needs — to within a chunk — and copies nothing when it
// grows; thinning frees rows for reuse in place. Snapshot headers are
// built on demand: a small reused window for delivery, and once,
// at the run's final row count, for the Trace. They alias arena rows, so
// the no-mutation contract of Observer extends to the finished Trace.
//
// A sink from NewTraceSink allocates its chunks and the Trace's headers,
// which then belong to the Trace. A sink from History.Sink carves both
// from the History — one word slab for the chunks of plans of any node
// count, one header slab — and they go back to the free list with
// History.Release: the server's runs, native and ingested, record this
// way, since nothing reads their trace after the final update.
type TraceSink struct {
	nodes  int
	n      int        // rows held
	chunks [][]int64  // sinkChunkRows rows of 1+3·nodes words each
	win    []Snapshot // the delivery window of a sink without a History
	hist   *History   // where chunks and headers are carved from; nil: allocated
}

// NewTraceSink returns an empty sink for a plan of the given node count.
func NewTraceSink(nodes int) TraceSink { return TraceSink{nodes: nodes} }

// sinkChunkRows is the arena's growth step in rows. A run at the default
// observation target holds 7–19 chunks, of 5–15 KB each at the
// benchmark's plan sizes (3–12 nodes); half a chunk is what it wastes.
const sinkChunkRows = 64

// Rows returns the number of snapshots held.
func (t *TraceSink) Rows() int { return t.n }

// row returns row i's words: the capture time's bits, then K, R and W.
func (t *TraceSink) row(i int) []int64 {
	stride := 1 + 3*t.nodes
	off := (i % sinkChunkRows) * stride
	return t.chunks[i/sinkChunkRows][off : off+stride]
}

// At builds the Snapshot header of row i.
func (t *TraceSink) At(i int) Snapshot {
	n := t.nodes
	row := t.row(i)
	c := row[1:]
	return Snapshot{Time: math.Float64frombits(uint64(row[0])),
		K: c[:n:n], R: c[n : 2*n : 2*n], W: c[2*n : 3*n : 3*n]}
}

// Add copies the counters into the arena's next row. Alloc-free except
// for every sinkChunkRows-th row beyond the arena's high-water mark.
func (t *TraceSink) Add(time float64, K, R, W []int64) {
	if t.n == len(t.chunks)*sinkChunkRows {
		t.chunks = append(t.chunks, t.alloc(sinkChunkRows*(1+3*t.nodes)))
	}
	n := t.nodes
	row := t.row(t.n)
	row[0] = int64(math.Float64bits(time))
	copy(row[1:1+n], K)
	copy(row[1+n:1+2*n], R)
	copy(row[1+2*n:], W)
	t.n++
}

// Window returns the headers of rows [lo, hi) in a buffer reused by the
// next call — the batch handed to Observer.OnSnapshots or OnThin, which
// is only valid for the duration of that call. A sink on a History keeps
// the buffer there, for the History's next run.
func (t *TraceSink) Window(lo, hi int) []Snapshot {
	win := &t.win
	if t.hist != nil {
		win = &t.hist.win
	}
	*win = (*win)[:0]
	for i := lo; i < hi; i++ {
		*win = append(*win, t.At(i))
	}
	return *win
}

// alloc returns n words for a chunk: carved from the history, or
// allocated.
func (t *TraceSink) alloc(n int) []int64 {
	if t.hist != nil {
		return t.hist.words.Take(n)
	}
	return make([]int64, n)
}

// Snapshots builds the finished trace's headers at the final row count:
// carved from the history, or one allocation.
func (t *TraceSink) Snapshots() []Snapshot {
	var out []Snapshot
	if t.hist != nil {
		out = t.hist.heads.Take(t.n)
	} else {
		out = make([]Snapshot, t.n)
	}
	for i := range out {
		out[i] = t.At(i)
	}
	return out
}

// thin keeps every other snapshot (the odd 0-based ordinals), compacting
// the surviving rows down the arena in place.
func (t *TraceSink) thin() {
	w := 0
	for r := 1; r < t.n; r += 2 {
		copy(t.row(w), t.row(r))
		w++
	}
	t.n = w
}
