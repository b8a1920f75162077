package recycle

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestSlabRegrowsToDemandAndTrims lends a run more than the array holds,
// resets, and checks the next run of the same demand is lent all of it
// from the regrown array, zeroed; after a window of TrimRuns small runs
// the array shrinks to their peak.
func TestSlabRegrowsToDemandAndTrims(t *testing.T) {
	var s Slab[int]
	var l Lease
	a := s.Take(10)
	b := s.Grow(a) // a is full: b doubles it
	if s.Lent() != 0 || len(b) != 10 || cap(b) != 20 {
		t.Fatalf("an empty slab lent %d; grown buffer len %d cap %d", s.Lent(), len(b), cap(b))
	}
	b[0] = 7
	s.Reset(l.Renew())
	if len(s.Array()) != 30 {
		t.Fatalf("the array regrew to %d elements, want the run's demand 30", len(s.Array()))
	}
	a = s.Take(10)
	a[3] = 1
	b = s.Grow(a)
	b = append(b, 5)
	if s.Lent() != 30 || &b[0] != &s.Array()[10] {
		t.Fatalf("a run of the same demand was lent %d of 30", s.Lent())
	}
	s.Reset(l.Renew())
	if i := slices.IndexFunc(s.Array(), func(v int) bool { return v != 0 }); i >= 0 {
		t.Fatalf("the reset array holds %d at %d", s.Array()[i], i)
	}
	// The window the runs above opened still saw 30; the next one sees
	// only small runs.
	for trims := 0; trims < 2; {
		s.Take(4)
		trim := l.Renew()
		s.Reset(trim)
		if trim {
			trims++
		}
	}
	if len(s.Array()) != 4 {
		t.Fatalf("after a window of small runs the array keeps %d elements, want 4", len(s.Array()))
	}
}

// TestListKeepsTheMostRecentPerP puts more values than GOMAXPROCS: the
// list keeps the most recently released ones and hands them back most
// recent first.
func TestListKeepsTheMostRecentPerP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var l List[*int]
	vs := []*int{new(int), new(int), new(int)}
	for _, v := range vs {
		l.Put(v)
	}
	for _, want := range []*int{vs[2], vs[1]} {
		if got, ok := l.Take(); !ok || got != want {
			t.Fatalf("Take = %p, %v; want %p", got, ok, want)
		}
	}
	if got, ok := l.Take(); ok {
		t.Fatalf("a list bounded by two values handed back a third, %p", got)
	}
}

// TestSweepDropsOnlyIdle sweeps a list of two released values twice,
// releasing one of them again in between: the one no run took across
// both sweeps is dropped, the other kept. Then it checks the sweep is
// wired to the collector: a value left idle in a list from NewList goes
// once collections run.
func TestSweepDropsOnlyIdle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var l List[*int]
	idle, busy := new(int), new(int)
	l.Put(idle)
	l.Put(busy)
	l.Sweep()
	if n := len(l.free); n != 2 {
		t.Fatalf("one sweep kept %d of two values released since the last", n)
	}
	if got, _ := l.Take(); got != busy {
		t.Fatal("the list did not hand back the value released last")
	}
	l.Put(busy)
	l.Sweep()
	if len(l.free) != 1 || l.free[0].p != busy {
		t.Fatalf("second sweep kept %d values; want only the one released in between", len(l.free))
	}

	swept := NewList[*int]()
	v := new(int)
	swept.Put(v)
	listed := func() (in bool) {
		swept.Idle(func(p *int) { in = in || p == v })
		return in
	}
	for deadline := time.Now().Add(10 * time.Second); listed(); {
		if time.Now().After(deadline) {
			t.Fatal("an idle value is still listed after collections ran for 10 s")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
