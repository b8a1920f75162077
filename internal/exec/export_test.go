package exec

import (
	"unsafe"

	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/storage"
)

// RunFresh is RunDecomposed on operator memory allocated for this run
// alone: the reference a run on recycled memory must match.
func RunFresh(db *storage.Database, p *plan.Plan, pipes *pipeline.Decomposition, opts Options) *Trace {
	return runWith(new(scratch), nil, db, p, pipes, opts)
}

// IdleScratches is the number of scratches in the free list and the
// bytes their slabs keep between runs.
func IdleScratches() (n, bytes int) {
	scratches.Lock()
	defer scratches.Unlock()
	for _, s := range scratches.free {
		bytes += len(s.rows.buf)*int(unsafe.Sizeof(storage.Row(nil))) +
			len(s.ords.buf)*4 + len(s.words.buf)*8 + len(s.spans.buf)*int(unsafe.Sizeof(rowSpan{}))
	}
	return len(scratches.free), bytes
}

// IdleHistories is the number of snapshot histories in the free list and
// the bytes their slabs keep between runs.
func IdleHistories() (n, bytes int) {
	histories.Lock()
	defer histories.Unlock()
	for _, h := range histories.free {
		bytes += len(h.words.buf)*8 + len(h.heads.buf)*int(unsafe.Sizeof(Snapshot{}))
	}
	return len(histories.free), bytes
}
