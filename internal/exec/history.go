package exec

import (
	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/storage"
)

// History is the snapshot history one run borrows: the row chunks its
// TraceSink fills, the headers of the windows it delivers and the
// Snapshot headers of its finished Trace. It is
// for a run whose trace no one reads once the run is over — a
// server-owned run, whose final update is the last thing anyone asks of
// it. Such a run takes a History with BorrowHistory, records on it (Run,
// or Sink for a counter source of its own) and hands it back with
// Release; the next run finds the chunks and the header slab already
// there, instead of allocating them and leaving them to the collector.
// A run that returns its Trace to a caller draws on no History: the
// trace owns its rows.
//
// Histories share the operator scratches' free-list rules: at most
// GOMAXPROCS idle ones, each slab sized to its window's peak every
// trimRuns runs, idle ones dropped by the sweep after each collection.
type History struct {
	words slab[int64]    // TraceSink row chunks
	heads slab[Snapshot] // the finished Trace's Snapshot headers
	win   []Snapshot     // the delivery window (TraceSink.Window)
	lease
}

// histories is the free list of snapshot histories.
var histories freeList[*History]

// BorrowHistory returns an idle History, or a new empty one.
func BorrowHistory() *History {
	if h, ok := histories.take(); ok {
		return h
	}
	return new(History)
}

// Run is RunDecomposed with the snapshot history carved from h: the
// returned Trace's Snapshots, and the rows they alias, are valid until
// h.Release.
func (h *History) Run(db *storage.Database, p *plan.Plan, pipes *pipeline.Decomposition, opts Options) *Trace {
	return runWith(takeScratch(), h, db, p, pipes, opts)
}

// Sink returns an empty TraceSink for a plan of the given node count
// whose rows and finished headers are carved from h.
func (h *History) Sink(nodes int) TraceSink { return TraceSink{nodes: nodes, hist: h} }

// Release zeroes h and hands it back to the free list, so a listed
// History holds no counter and points at no row. tr is the trace
// recorded on h, or nil for a run that ended without one; it loses its
// Snapshots, so a stray read of them panics instead of reading a later
// run's counters. Nothing carved from h may be read afterwards.
func (h *History) Release(tr *Trace) {
	if tr != nil {
		tr.Snapshots = nil
	}
	trim := h.renew()
	h.words.reset(trim)
	h.heads.reset(trim)
	h.win = h.win[:0]
	clear(h.win[:cap(h.win)])
	histories.put(h)
}
