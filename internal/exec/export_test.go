package exec

import (
	"unsafe"

	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/recycle"
	"progressest/internal/storage"
)

// RunFresh is RunDecomposed on operator memory allocated for this run
// alone: the reference a run on recycled memory must match.
func RunFresh(db *storage.Database, p *plan.Plan, pipes *pipeline.Decomposition, opts Options) *Trace {
	return runWith(new(scratch), nil, db, p, pipes, opts)
}

// slabBytes is the bytes a slab keeps between runs.
func slabBytes[T any](s *recycle.Slab[T]) int {
	var v T
	return len(s.Array()) * int(unsafe.Sizeof(v))
}

// IdleScratches is the number of scratches in the free list and the
// bytes their slabs keep between runs.
func IdleScratches() (n, bytes int) {
	scratches.Idle(func(s *scratch) {
		n++
		bytes += slabBytes(&s.rows) + slabBytes(&s.ords) + slabBytes(&s.words) + slabBytes(&s.spans) + slabBytes(&s.aggs)
	})
	return n, bytes
}

// IdleHistories is the number of snapshot histories in the free list and
// the bytes their slabs keep between runs.
func IdleHistories() (n, bytes int) {
	histories.Idle(func(h *History) {
		n++
		bytes += slabBytes(&h.words) + slabBytes(&h.times) + slabBytes(&h.flags) + slabBytes(&h.heads)
	})
	return n, bytes
}

// listed reports whether p is idle in l.
func listed[P comparable](l *recycle.List[P], p P) (in bool) {
	l.Idle(func(q P) { in = in || q == p })
	return in
}
