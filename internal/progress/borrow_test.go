package progress

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"progressest/internal/exec"
	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/recycle"
)

// zeroed reports the first non-zero element of a slab's whole array.
func zeroed[T any](s *recycle.Slab[T]) (int, bool) {
	i := slices.IndexFunc(s.Array(), func(v T) bool { return !reflect.ValueOf(&v).Elem().IsZero() })
	return i, i < 0
}

// servedReads is what a view served of its run, and its finished reads:
// the query series under each selectable kind, every pipeline's series
// and marker rows.
func servedReads(o *OnlineView) []float64 {
	var out []float64
	for k := range NumKinds {
		out = o.AppendQuerySeries(out, single(k))
		for p, pl := range o.Pipelines {
			if pl.Started {
				out = o.AppendSeries(out, p, k)
			}
		}
	}
	for _, pl := range o.Pipelines {
		if pl.Started {
			for _, m := range pl.Markers() {
				out = append(out, float64(m.Obs), m.Elapsed)
				out = append(out, m.Est[:]...)
			}
		}
	}
	return out
}

// TestReleasedViewHoldsNothing observes three runs of two plans of
// different pipeline counts — the third thinning — on one view memory
// through the free list, each borrowed view sharing a plan cache's start
// contexts and static prefixes and using everything a served run does: a
// policy's state, the feature vector, the marker rows and the finished
// table. Every run must read as a view on memory of its own does; a
// released view must keep no pointer into the memory, and the memory
// must be all zero over every slab's whole array — no pipeline may keep
// its plan-cache PipeContext or static prefix — while the cache's
// shared contexts stay as they were.
func TestReleasedViewHoldsNothing(t *testing.T) {
	db, multi := queryPlan(t)
	single := manualTrace()
	multiPipes := pipeline.Decompose(multi)
	if len(multiPipes.Pipelines) == len(single.Pipes.Pipelines) {
		t.Fatal("the two plans share a pipeline count")
	}
	run := func(opts exec.Options) func(*OnlineView) {
		return func(o *OnlineView) {
			opts.Observer = o
			exec.RunDecomposed(db, multi, multiPipes, opts)
		}
	}
	runs := []struct {
		plan  *plan.Plan
		pipes *pipeline.Decomposition
		cache *PlanCache
		feed  func(*OnlineView)
	}{
		{multi, multiPipes, NewPlanCache(multiPipes), run(exec.Options{SnapshotBatch: 8})},
		{single.Plan, single.Pipes, NewPlanCache(single.Pipes), func(o *OnlineView) { exec.Replay(single, o, 1) }},
		{multi, multiPipes, NewPlanCache(multiPipes), run(exec.Options{TargetObservations: 900, MaxObservations: 64})},
	}
	static := func(c *PipeContext) []float64 { return []float64{float64(len(c.Pipe.Nodes))} }
	var mem *viewMemory
	for i, r := range runs {
		fresh := NewOnlineView(r.plan, r.pipes)
		r.feed(fresh)

		o := BorrowOnlineView(r.plan, r.pipes, r.cache)
		if mem != nil && o.mem != mem {
			t.Fatalf("run %d: the free list did not hand back the memory just released", i)
		}
		mem = o.mem
		choice, marks := o.PickState(true)
		for p := range choice {
			choice[p], marks[p] = PMAX, p+1
		}
		r.feed(o)
		for _, pl := range o.Pipelines {
			if pl.Started {
				pl.StaticPrefix(static)
				buf := append(pl.FeatureBuffer(8), 1, 2, 3)
				if &buf[0] != &o.Pipelines[0].FeatureBuffer(8)[:1][0] {
					t.Fatalf("run %d: the pipelines of one view assemble their features in more than one buffer", i)
				}
			}
		}
		got, want := servedReads(o), servedReads(fresh)
		if len(want) == 0 || !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("run %d: the view on recycled memory reads otherwise than one on its own", i)
		}
		// The third run fits what the first two sized.
		if i == 2 && (mem.pipes.Lent() == 0 || mem.ptrs.Lent() == 0 || mem.sigs.Lent() == 0 || mem.floats.Lent() == 0 ||
			mem.marks.Lent() == 0 || mem.rows.Lent() == 0 || mem.kinds.Lent() == 0 || mem.ints.Lent() == 0) {
			t.Fatalf("run %d: a slab went unused", i)
		}

		o.Release()
		if o.Pipelines != nil || o.Trace != nil || o.wbuf != nil || o.feat != nil || o.mem != nil || o.cache != nil {
			t.Fatalf("run %d: the released view keeps a pointer into its memory", i)
		}
		if len(mem.pipes.Array()) == 0 || len(mem.rows.Array()) == 0 {
			t.Fatalf("run %d: the released memory keeps no pipeline or table", i)
		}
		for name, z := range map[string]func() (int, bool){
			"pipelines":   func() (int, bool) { return zeroed(&mem.pipes) },
			"pointers":    func() (int, bool) { return zeroed(&mem.ptrs) },
			"lastSig":     func() (int, bool) { return zeroed(&mem.sigs) },
			"floats":      func() (int, bool) { return zeroed(&mem.floats) },
			"marker rows": func() (int, bool) { return zeroed(&mem.marks) },
			"table":       func() (int, bool) { return zeroed(&mem.rows) },
			"choices":     func() (int, bool) { return zeroed(&mem.kinds) },
			"marks":       func() (int, bool) { return zeroed(&mem.ints) },
		} {
			if j, ok := z(); !ok {
				t.Fatalf("run %d: the released memory's %s slab holds a value at %d", i, name, j)
			}
		}
		for p, pl := range r.pipes.Pipelines {
			sc := r.cache.starts[p].Load()
			if sc == nil {
				continue
			}
			if len(sc.ctx.E0) == 0 || sc.ctx.Pipe != pl || sc.static.Load() == nil || (*sc.static.Load())[0] != float64(len(pl.Nodes)) {
				t.Fatalf("run %d: releasing the view cleared the plan cache's start context of pipeline %d", i, p)
			}
		}
	}
}

// TestSweepDropsOnlyIdleViews is TestSweepDropsOnlyIdleHistories for the
// view memory: a released view's memory is listed, and goes once
// collections run with no run taking it.
func TestSweepDropsOnlyIdleViews(t *testing.T) {
	tr := manualTrace()
	o := BorrowOnlineView(tr.Plan, tr.Pipes, nil)
	m := o.mem
	o.Release()
	listed := func() (in bool) {
		views.Idle(func(v *viewMemory) { in = in || v == m })
		return in
	}
	if !listed() {
		t.Fatal("the free list did not keep a released view's memory")
	}
	for deadline := time.Now().Add(10 * time.Second); listed(); {
		if time.Now().After(deadline) {
			t.Fatal("an idle view's memory is still listed after collections ran for 10 s")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
