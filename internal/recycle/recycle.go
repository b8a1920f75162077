// Package recycle holds the one set of rules by which a run borrows
// memory and hands it back: a Slab lends one run's buffers of a type
// from one backing array, a Lease counts the runs a borrowed value
// served for its slabs' trim, and a List keeps the idle values between
// runs. The executor's operator scratches and snapshot histories and
// the estimators' views all recycle this way.
package recycle

import (
	"runtime"
	"slices"
	"sync"
)

// Slab lends a run's buffers of T from one backing array, carved in the
// order the run asks for them. A request the array cannot meet is
// allocated on its own; the Reset that ends the run then regrows the
// array to everything the run asked for. Every TrimRuns runs the array
// may shrink to the most any of those runs asked for, so the owner keeps
// what the plans it serves now need, not what the largest run it ever
// served did.
type Slab[T any] struct {
	buf    []T // zero beyond used
	used   int // elements lent this run
	demand int // elements asked for this run, lent or allocated
	peak   int // the largest demand since the last trim
}

// Take returns n zero elements with capacity n.
func (s *Slab[T]) Take(n int) []T {
	s.demand += n
	if s.used+n > len(s.buf) {
		return make([]T, n)
	}
	b := s.buf[s.used : s.used+n : s.used+n]
	s.used += n
	return b
}

// Grow returns b with room for one more element: b itself, or b copied
// into a buffer of twice its capacity taken from s.
func (s *Slab[T]) Grow(b []T) []T {
	if len(b) < cap(b) {
		return b
	}
	nb := s.Take(max(2*cap(b), 8))[:len(b)]
	copy(nb, b)
	return nb
}

// Reset zeroes what the run was lent and regrows the array to the run's
// demand when that did not fit; trim shrinks it to the window's peak
// when that is under half of it, so a window that missed the largest
// plan by a little does not cost the next one a regrowth.
func (s *Slab[T]) Reset(trim bool) {
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

// Lent returns how many elements the current run was lent.
func (s *Slab[T]) Lent() int { return s.used }

// Array returns the whole backing array, what the slab keeps between
// runs, so a test can check that a released owner holds nothing.
func (s *Slab[T]) Array() []T { return s.buf[:cap(s.buf)] }

// Lease counts the runs a borrowed value served, for its slabs' trim.
type Lease struct{ runs int }

// TrimRuns is how many runs a lease serves between trims: enough that a
// window sees the plans a workload repeats, few enough that memory one
// large run sized is given back soon after.
const TrimRuns = 64

// Renew counts a finished run and reports whether its slabs trim.
func (l *Lease) Renew() (trim bool) {
	l.runs++
	return l.runs%TrimRuns == 0
}

// List holds at most runtime.GOMAXPROCS(0) idle values, the most
// recently released on top. It is a plain list, not a sync.Pool, whose
// contents the collector drops at any collection: a value leaves the
// list only when no run took it between two sweeps, or when a more
// recently released one needs its place, so while runs keep coming what
// each allocates does not depend on when the collector ran. The trim
// gives back what a busy value no longer needs; the sweep, what an idle
// one holds. A List from NewList is swept after every collection; the
// zero List is swept only by its own Sweep calls.
type List[P any] struct {
	mu   sync.Mutex
	free []listed[P]
}

// listed is a value in a List: idle once a sweep passed over it.
type listed[P any] struct {
	p    P
	idle bool
}

// NewList returns an empty List that the sweep after each collection
// passes over.
func NewList[P any]() *List[P] {
	l := new(List[P])
	swept.Lock()
	defer swept.Unlock()
	swept.lists = append(swept.lists, l)
	return l
}

// Take returns the most recently released value, or ok false when the
// list is empty.
func (l *List[P]) Take() (p P, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return p, false
	}
	p = l.free[n-1].p
	l.free = slices.Delete(l.free, n-1, n)
	return p, true
}

// Put lists p on top, dropping the least recently released value when
// the list already holds one per P.
func (l *List[P]) Put(p P) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free) + 1 - runtime.GOMAXPROCS(0); n > 0 {
		l.free = slices.Delete(l.free, 0, n)
	}
	l.free = append(l.free, listed[P]{p: p})
}

// Sweep drops the values no run has taken since the last sweep, and
// marks the rest idle until their next release, so a process that stops
// running plans does not keep their memory.
func (l *List[P]) Sweep() {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.free[:0]
	for _, v := range l.free {
		if !v.idle {
			v.idle = true
			kept = append(kept, v)
		}
	}
	clear(l.free[len(kept):])
	l.free = kept
}

// Idle calls f with every listed value, most recently released last.
func (l *List[P]) Idle(f func(P)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, v := range l.free {
		f(v.p)
	}
}

// swept is every List from NewList.
var swept struct {
	sync.Mutex
	lists []interface{ Sweep() }
}

// sweep runs every swept list's sweep.
func sweep() {
	swept.Lock()
	defer swept.Unlock()
	for _, l := range swept.lists {
		l.Sweep()
	}
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
