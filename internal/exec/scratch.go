package exec

import (
	"progressest/internal/recycle"
	"progressest/internal/storage"
)

// scratch is the operator memory one run borrows: hash-join build
// buffers, key-index slot tables and keys, join spans, hash-aggregate
// groups and the rowArena's chunks. RunDecomposed takes one at start and
// gives it back once the plan's root is closed; the next run of the same
// plan finds every buffer it needs already there, zeroed, instead of
// allocating it and leaving it to the collector. A scratch in the free
// list is all zero, so it pins no row of a finished run. Its slabs, its
// lease and its free list follow package recycle's rules.
type scratch struct {
	rows  recycle.Slab[storage.Row] // hash-join build buffers, batch-sort batches
	ords  recycle.Slab[int32]       // key-index slot tables, hash-join row destinations
	words recycle.Slab[int64]       // key-index keys, rowArena chunks
	spans recycle.Slab[rowSpan]     // hash-join key spans
	aggs  recycle.Slab[aggState]    // hash-aggregate groups
	lease recycle.Lease
}

// scratches is the free list of operator memory.
var scratches = recycle.NewList[*scratch]()

// takeScratch returns an idle scratch, or a new empty one.
func takeScratch() *scratch {
	if s, ok := scratches.Take(); ok {
		return s
	}
	return new(scratch)
}

// release zeroes s and puts it on top of the free list. Nothing lent
// from s may be read afterwards.
func (s *scratch) release() {
	s.reset()
	scratches.Put(s)
}

// reset zeroes everything s lent and sizes each slab for the run it
// served, trimming once every recycle.TrimRuns runs.
func (s *scratch) reset() {
	trim := s.lease.Renew()
	s.rows.Reset(trim)
	s.ords.Reset(trim)
	s.words.Reset(trim)
	s.spans.Reset(trim)
	s.aggs.Reset(trim)
}
