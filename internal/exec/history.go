package exec

import (
	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/recycle"
	"progressest/internal/storage"
)

// History is the snapshot history one run borrows: the row chunks its
// TraceSink fills, the headers of the windows it delivers, the Snapshot
// headers of its finished Trace and, for a run it executes, the counter
// block — K, R, W, the blocking and driver totals, the activity spans
// and the pipeline flags — that the finished Trace aliases as N, FinalR,
// FinalW, DriverTotal and DriverTotalsKnown. It is for a run whose trace
// no one reads once the run is over — a server-owned run, whose final
// update is the last thing anyone asks of it. Such a run takes a History
// with BorrowHistory, records on it (Run, or Sink for a counter source
// of its own) and hands it back with Release; the next run finds the
// chunks, the header slab and the counter block already there, instead
// of allocating them and leaving them to the collector. A run that
// returns its Trace to a caller draws on no History: the trace owns its
// rows and its counters.
//
// Histories follow package recycle's rules, as the operator scratches
// do: at most GOMAXPROCS idle ones, each slab sized to its window's peak
// every recycle.TrimRuns runs, idle ones dropped by the sweep after each
// collection.
type History struct {
	words recycle.Slab[int64]    // the counter block, then TraceSink row chunks
	times recycle.Slab[float64]  // the nodes' activity spans
	flags recycle.Slab[bool]     // the pipelines' started and known flags
	heads recycle.Slab[Snapshot] // the finished Trace's Snapshot headers
	win   []Snapshot             // the delivery window (TraceSink.Window)
	lease recycle.Lease
}

// histories is the free list of snapshot histories.
var histories = recycle.NewList[*History]()

// BorrowHistory returns an idle History, or a new empty one.
func BorrowHistory() *History {
	if h, ok := histories.Take(); ok {
		return h
	}
	return new(History)
}

// Run is RunDecomposed with the snapshot history and the counter block
// carved from h: the returned Trace's Snapshots, the rows they alias,
// and its N, FinalR, FinalW, DriverTotal and DriverTotalsKnown are valid
// until h.Release.
func (h *History) Run(db *storage.Database, p *plan.Plan, pipes *pipeline.Decomposition, opts Options) *Trace {
	return runWith(takeScratch(), h, db, p, pipes, opts)
}

// Sink returns an empty TraceSink for a plan of the given node count
// whose rows and finished headers are carved from h.
func (h *History) Sink(nodes int) TraceSink { return TraceSink{nodes: nodes, hist: h} }

// Release zeroes h and hands it back to the free list, so a listed
// History holds no counter and points at no row. tr is the trace
// recorded on h, or nil for a run that ended without one; it loses its
// Snapshots and the counters carved from h, so a stray read of them
// panics instead of reading a later run's. Nothing carved from h may be
// read afterwards.
func (h *History) Release(tr *Trace) {
	if tr != nil {
		tr.Snapshots = nil
		tr.N, tr.FinalR, tr.FinalW, tr.DriverTotal, tr.DriverTotalsKnown = nil, nil, nil, nil, nil
	}
	trim := h.lease.Renew()
	h.words.Reset(trim)
	h.times.Reset(trim)
	h.flags.Reset(trim)
	h.heads.Reset(trim)
	h.win = h.win[:0]
	clear(h.win[:cap(h.win)])
	histories.Put(h)
}
