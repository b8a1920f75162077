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
	lease
}

// slab lends a run's buffers of T from one backing array, carved in the
// order the run asks for them. A request the array cannot meet is
// allocated on its own; the release of the scratch or History that owns
// the slab then regrows the array to everything the run asked for. Every
// trimRuns runs the array may shrink to the most any of those runs asked
// for, so the owner keeps what the plans it serves now need, not what
// the largest run it ever served did.
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

// lease is what a free list knows of the memory it lends: how many runs
// took it, for the slabs' trim, and whether it sat in the list through a
// whole sweep interval.
type lease struct {
	runs int  // runs served, for the slabs' trim
	idle bool // listed since the last sweep, no run took it
}

func (l *lease) lent() *lease { return l }

// trimRuns is how many runs a lease serves between trims: enough that a
// window sees the plans a workload repeats, few enough that memory one
// large run sized is given back soon after.
const trimRuns = 64

// renew counts a finished run and reports whether its slabs trim.
func (l *lease) renew() (trim bool) {
	l.runs++
	return l.runs%trimRuns == 0
}

// freeList holds at most runtime.GOMAXPROCS(0) idle leased values, the
// most recently released on top. It is a plain list, not a sync.Pool,
// whose contents the collector drops at any collection: a value leaves
// this list only when no run took it between two collections (sweep),
// or when a more recently released one needs its place, so while runs
// keep coming what each allocates does not depend on when the collector
// ran. The trim gives back what a busy value no longer needs; the sweep,
// what an idle one holds.
type freeList[P interface{ lent() *lease }] struct {
	sync.Mutex
	free []P
}

// take returns the most recently released value, or ok false when the
// list is empty.
func (l *freeList[P]) take() (p P, ok bool) {
	l.Lock()
	defer l.Unlock()
	n := len(l.free)
	if n == 0 {
		return p, false
	}
	p = l.free[n-1]
	l.free = slices.Delete(l.free, n-1, n)
	return p, true
}

// put lists p on top, dropping the least recently released value when
// the list already holds one per P.
func (l *freeList[P]) put(p P) {
	p.lent().idle = false
	l.Lock()
	defer l.Unlock()
	if n := len(l.free) + 1 - runtime.GOMAXPROCS(0); n > 0 {
		l.free = slices.Delete(l.free, 0, n)
	}
	l.free = append(l.free, p)
}

// sweep drops the values no run has taken since the last sweep, so a
// process that stops running plans does not keep their memory.
func (l *freeList[P]) sweep() {
	l.Lock()
	defer l.Unlock()
	l.free = dropIdle(l.free)
}

// dropIdle returns free without the values still idle since the last
// call, and marks the rest idle until their next release.
func dropIdle[P interface{ lent() *lease }](free []P) []P {
	kept := free[:0]
	for _, p := range free {
		if l := p.lent(); !l.idle {
			l.idle = true
			kept = append(kept, p)
		}
	}
	clear(free[len(kept):])
	return kept
}

// scratches is the free list of operator memory.
var scratches freeList[*scratch]

// takeScratch returns an idle scratch, or a new empty one.
func takeScratch() *scratch {
	if s, ok := scratches.take(); ok {
		return s
	}
	return new(scratch)
}

// release zeroes s and puts it on top of the free list. Nothing lent
// from s may be read afterwards.
func (s *scratch) release() {
	s.reset()
	scratches.put(s)
}

// reset zeroes everything s lent and sizes each slab for the run it
// served, trimming once every trimRuns runs.
func (s *scratch) reset() {
	trim := s.renew()
	s.rows.reset(trim)
	s.ords.reset(trim)
	s.words.reset(trim)
	s.spans.reset(trim)
}

// sweep runs both free lists' sweeps.
func sweep() {
	scratches.sweep()
	histories.sweep()
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
