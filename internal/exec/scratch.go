package exec

import (
	"runtime"
	"slices"
	"sync"

	"progressest/internal/storage"
)

// scratch is the operator memory one run borrows: hash-join build
// buffers, key-index slot tables and keys, join spans and the rowArena's
// chunks. RunDecomposed takes one at start and gives it back once the
// plan's root is closed; the next run of the same plan finds every
// buffer it needs already there, zeroed, instead of allocating it and
// leaving it to the collector. A scratch in the free list is all zero,
// so it pins no row of a finished run.
type scratch struct {
	rows  slab[storage.Row] // hash-join build buffers
	ords  slab[int32]       // key-index slot tables, hash-join row destinations
	words slab[int64]       // key-index keys, rowArena chunks
	spans slab[rowSpan]     // hash-join key spans
	runs  int               // runs served, for the slabs' trim
	idle  bool              // listed since the last sweep, no run took it
}

// slab lends a run's buffers of T from one backing array, carved in the
// order the run asks for them. A request the array cannot meet is
// allocated on its own; the scratch's release then regrows the array to
// everything the run asked for. Every trimRuns runs the array may shrink
// to the most any of those runs asked for, so a scratch keeps what the
// plans it serves now need, not what the largest run it ever served did.
type slab[T any] struct {
	buf    []T // zero beyond used
	used   int // elements lent this run
	demand int // elements asked for this run, lent or allocated
	peak   int // the largest demand since the last trim
}

// take returns n zero elements with capacity n.
func (s *slab[T]) take(n int) []T {
	s.demand += n
	if s.used+n > len(s.buf) {
		return make([]T, n)
	}
	b := s.buf[s.used : s.used+n : s.used+n]
	s.used += n
	return b
}

// grow returns b with room for one more element: b itself, or b copied
// into a buffer of twice its capacity taken from s.
func (s *slab[T]) grow(b []T) []T {
	if len(b) < cap(b) {
		return b
	}
	nb := s.take(max(2*cap(b), 8))[:len(b)]
	copy(nb, b)
	return nb
}

// reset zeroes what the run was lent and regrows the array to the run's
// demand when that did not fit; trim shrinks it to the window's peak
// when that is under half of it, so a window that missed the largest
// plan by a little does not cost the next one a regrowth.
func (s *slab[T]) reset(trim bool) {
	clear(s.buf[:s.used])
	s.peak = max(s.peak, s.demand)
	if s.demand > len(s.buf) || trim && 2*s.peak < len(s.buf) {
		s.buf = make([]T, s.peak)
	}
	if trim {
		s.peak = 0
	}
	s.used, s.demand = 0, 0
}

// scratches is the free list: at most runtime.GOMAXPROCS(0) idle
// scratches, the most recently released on top. It is a plain list, not
// a sync.Pool, whose contents the collector drops at any collection: a
// scratch leaves this list only when no run took it between two
// collections (sweep), or when a more recently released one needs its
// place, so while runs keep coming what each allocates does not depend
// on when the collector ran. The trim gives back what a busy scratch no
// longer needs; the sweep, what an idle one holds.
var scratches struct {
	sync.Mutex
	free []*scratch
}

// takeScratch returns an idle scratch, or a new empty one.
func takeScratch() *scratch {
	scratches.Lock()
	defer scratches.Unlock()
	n := len(scratches.free)
	if n == 0 {
		return new(scratch)
	}
	s := scratches.free[n-1]
	scratches.free[n-1] = nil
	scratches.free = scratches.free[:n-1]
	return s
}

// release zeroes s and puts it on top of the free list, dropping the
// least recently released scratch when the list already holds one per
// P. Nothing lent from s may be read afterwards.
func (s *scratch) release() {
	s.reset()
	s.idle = false
	scratches.Lock()
	defer scratches.Unlock()
	if n := len(scratches.free) + 1 - runtime.GOMAXPROCS(0); n > 0 {
		scratches.free = slices.Delete(scratches.free, 0, n)
	}
	scratches.free = append(scratches.free, s)
}

// trimRuns is how many runs a scratch serves between trims: enough that
// a window sees the plans a workload repeats, few enough that memory one
// large run sized is given back soon after.
const trimRuns = 64

// reset zeroes everything s lent and sizes each slab for the run it
// served, trimming once every trimRuns runs.
func (s *scratch) reset() {
	s.runs++
	trim := s.runs%trimRuns == 0
	s.rows.reset(trim)
	s.ords.reset(trim)
	s.words.reset(trim)
	s.spans.reset(trim)
}

// sweep drops the scratches no run has taken since the last sweep, so a
// process that stops running plans does not keep their memory.
func sweep() {
	scratches.Lock()
	defer scratches.Unlock()
	scratches.free = dropIdle(scratches.free)
}

// dropIdle returns free without the scratches still idle since the last
// call, and marks the rest idle until their next release.
func dropIdle(free []*scratch) []*scratch {
	kept := free[:0]
	for _, s := range free {
		if !s.idle {
			s.idle = true
			kept = append(kept, s)
		}
	}
	clear(free[len(kept):])
	return kept
}

// gcToken is an object no one keeps: its cleanup runs after the next
// collection. The pointer keeps it out of the tiny allocator, whose
// batched objects may never be cleaned up.
type gcToken struct{ _ *gcToken }

// sweepAfterEachGC arranges for sweep to run after the next collection,
// and re-arms itself from there.
func sweepAfterEachGC() {
	runtime.AddCleanup(new(gcToken), func(struct{}) {
		sweep()
		sweepAfterEachGC()
	}, struct{}{})
}

func init() { sweepAfterEachGC() }
