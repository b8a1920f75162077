package exec

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"progressest/internal/catalog"
	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/storage"
)

// TestReleasedHistoryHoldsNoHeaders records three runs of two plans of
// different node counts — two thinning — on one History through the
// free list. Every run's trace must be the one recorded on memory of its
// own; a released History must hold no non-zero Snapshot header over the
// header slab's or the delivery window's whole capacity, or it would pin
// the rows of a finished run, and no counter word, activity time or
// pipeline flag; and the released trace must have lost its headers and
// the counters it aliased.
func TestReleasedHistoryHoldsNoHeaders(t *testing.T) {
	db := testDB(t, catalog.PartiallyTuned, 1)
	join := mustPlan(t, db, joinSpec())
	fdb, fixture, _ := scratchFixture()
	if join.NumNodes() == fixture.NumNodes() {
		t.Fatal("the two plans share a node count")
	}
	thinning := Options{TargetObservations: 4000, MaxObservations: 300}
	runs := []struct {
		db   *storage.Database
		p    *plan.Plan
		opts Options
	}{{db, join, Options{}}, {fdb, fixture, thinning}, {db, join, thinning}}
	h := BorrowHistory()
	for i, r := range runs {
		pipes := pipeline.Decompose(r.p)
		want := RunDecomposed(r.db, r.p, pipes, r.opts)
		// An observer makes the run deliver through the History's window.
		opts := r.opts
		opts.Observer = BaseObserver{}
		tr := h.Run(r.db, r.p, pipes, opts)
		if len(tr.Snapshots) == 0 || !slices.EqualFunc(tr.Snapshots, want.Snapshots, sameSnapshot) {
			t.Fatalf("run %d: the trace recorded on a recycled history differs from its own", i)
		}
		if !slices.Equal(tr.N, want.N) || !slices.Equal(tr.FinalR, want.FinalR) || !slices.Equal(tr.FinalW, want.FinalW) ||
			!slices.Equal(tr.DriverTotal, want.DriverTotal) || !slices.Equal(tr.DriverTotalsKnown, want.DriverTotalsKnown) ||
			!slices.Equal(tr.PipeSpans, want.PipeSpans) {
			t.Fatalf("run %d: the counters recorded on a recycled history differ from their own", i)
		}
		// The second plan's counter block may outgrow the first's; the
		// third run's fits what the two sized.
		if i > 0 && (h.words.Lent() == 0 || h.heads.Lent() == 0) || i == 2 && (h.times.Lent() == 0 || h.flags.Lent() == 0) {
			t.Fatalf("run %d lent words %d, times %d, flags %d, headers %d: a slab went unused",
				i, h.words.Lent(), h.times.Lent(), h.flags.Lent(), h.heads.Lent())
		}
		h.Release(tr)
		if tr.Snapshots != nil || tr.N != nil || tr.FinalR != nil || tr.FinalW != nil || tr.DriverTotal != nil || tr.DriverTotalsKnown != nil {
			t.Fatalf("run %d: the released trace keeps its headers or counters", i)
		}
		if BorrowHistory() != h {
			t.Fatalf("run %d: the free list did not hand back the history just released", i)
		}
		if len(h.words.Array()) == 0 || len(h.heads.Array()) == 0 {
			t.Fatalf("run %d: the released history keeps words %d, headers %d", i, len(h.words.Array()), len(h.heads.Array()))
		}
		if j, ok := zeroed(&h.heads, func(s Snapshot) bool {
			return s.Time == 0 && s.K == nil && s.R == nil && s.W == nil
		}); !ok {
			t.Fatalf("run %d: released header slab holds %+v at %d of %d", i, h.heads.Array()[j], j, len(h.heads.Array()))
		}
		if win := h.win[:cap(h.win)]; len(h.win) != 0 || len(win) == 0 || slices.ContainsFunc(win, func(s Snapshot) bool {
			return s.Time != 0 || s.K != nil || s.R != nil || s.W != nil
		}) {
			t.Fatalf("run %d: the released history's delivery window is %d of %d headers, not kept empty and zeroed", i, len(h.win), cap(h.win))
		}
		if j, ok := zeroed(&h.words, func(w int64) bool { return w == 0 }); !ok {
			t.Fatalf("run %d: released counters and row chunks hold %d at %d of %d", i, h.words.Array()[j], j, len(h.words.Array()))
		}
		if j, ok := zeroed(&h.times, func(v float64) bool { return v == 0 }); !ok {
			t.Fatalf("run %d: released activity spans hold %v at %d of %d", i, h.times.Array()[j], j, len(h.times.Array()))
		}
		if j, ok := zeroed(&h.flags, func(v bool) bool { return !v }); !ok {
			t.Fatalf("run %d: released pipeline flags hold true at %d of %d", i, j, len(h.flags.Array()))
		}
	}
	h.Release(nil)
}

func sameSnapshot(a, b Snapshot) bool {
	return a.Time == b.Time && slices.Equal(a.K, b.K) && slices.Equal(a.R, b.R) && slices.Equal(a.W, b.W)
}

// TestReadAfterReleasePanics: once its history is handed back, a trace
// has no snapshot to read — a stray read panics — even while the next
// run records over the same chunks.
func TestReadAfterReleasePanics(t *testing.T) {
	db := testDB(t, catalog.PartiallyTuned, 1)
	p := mustPlan(t, db, joinSpec())
	pipes := pipeline.Decompose(p)
	h := BorrowHistory()
	tr := h.Run(db, p, pipes, Options{})
	h.Release(tr)
	next := BorrowHistory()
	defer next.Release(next.Run(db, p, pipes, Options{}))
	for name, read := range map[string]func(){
		"Snapshots[0]":         func() { _ = tr.Snapshots[0].K[0] },
		"TrueProgress":         func() { tr.TrueProgress(0) },
		"TruePipelineProgress": func() { tr.TruePipelineProgress(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after release did not panic", name)
				}
			}()
			read()
		}()
	}
	if lo, hi := tr.ObsRange(0); lo != 0 || hi != 0 {
		t.Errorf("ObsRange after release = [%d, %d), want empty", lo, hi)
	}
}

// TestSweepDropsOnlyIdleHistories is TestSweepDropsOnlyIdleScratches for
// the history list: an idle history goes once collections run.
func TestSweepDropsOnlyIdleHistories(t *testing.T) {
	h := BorrowHistory()
	h.Release(nil)
	if !listed(histories, h) {
		t.Fatal("the free list did not keep a released history")
	}
	for deadline := time.Now().Add(10 * time.Second); listed(histories, h); {
		if time.Now().After(deadline) {
			t.Fatal("an idle history is still listed after collections ran for 10 s")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
