package exec

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"progressest/internal/catalog"
	"progressest/internal/plan"
	"progressest/internal/recycle"
	"progressest/internal/storage"
)

// scratchFixture is a database and a plan that draws on every part of a
// scratch: a hash join whose build estimate is far too low (its buffer
// doubles), a semi join and a hash aggregate whose key indexes grow, and
// join output rows and aggregate states carved from the row arena.
func scratchFixture() (*storage.Database, *plan.Plan, []storage.Row) {
	two := func(name, c0, c1 string) *catalog.Table {
		return &catalog.Table{Name: name, Columns: []catalog.Column{{Name: c0, Width: 8}, {Name: c1, Width: 8}}}
	}
	db := storage.NewDatabase(&catalog.Schema{Name: "t", Tables: []*catalog.Table{
		two("a", "id", "k"), two("b", "k", "v"), two("c", "v", "x"),
	}})
	for id := int64(0); id < 300; id++ {
		db.MustTable("a").Append(storage.Row{id, id % 70})
	}
	for v := int64(0); v < 400; v++ {
		db.MustTable("b").Append(storage.Row{(v * 13) % 90, v})
	}
	for v := int64(0); v < 400; v += 3 {
		db.MustTable("c").Append(storage.Row{v, 0})
	}
	scan := func(name string, est float64) *plan.Node {
		return &plan.Node{Op: plan.TableScan, TableName: name, OutCols: 2, EstRows: est, RowWidth: 16}
	}
	join := &plan.Node{Op: plan.HashJoin, Children: []*plan.Node{scan("a", 300), scan("b", 10)},
		JoinLeftCol: 1, JoinRightCol: 0, OutCols: 4, EstRows: 100, RowWidth: 32}
	semi := &plan.Node{Op: plan.SemiJoin, Children: []*plan.Node{join, scan("c", 5)},
		JoinLeftCol: 3, JoinRightCol: 0, OutCols: 4, EstRows: 100, RowWidth: 32}
	agg := &plan.Node{Op: plan.HashAgg, Children: []*plan.Node{semi}, GroupCols: []int{3},
		Aggs: []plan.AggSpec{{Func: plan.AggCount}}, OutCols: 2, EstRows: 4, RowWidth: 16}

	// The reference: per b.v in c, the number of a rows sharing b's key.
	perKey := map[int64]int64{}
	for _, r := range db.MustTable("a").Rows {
		perKey[r[1]]++
	}
	var want []storage.Row
	for _, r := range db.MustTable("b").Rows {
		if n := perKey[r[0]]; n > 0 && r[1]%3 == 0 {
			want = append(want, storage.Row{r[1], n})
		}
	}
	return db, plan.Finalize(agg), want
}

// zeroed reports the first non-zero element of a slab's whole array.
func zeroed[T any](s *recycle.Slab[T], isZero func(T) bool) (int, bool) {
	i := slices.IndexFunc(s.Array(), func(v T) bool { return !isZero(v) })
	return i, i < 0
}

// TestReleasedScratchHoldsNoRows runs the fixture three times on one
// scratch through the free list. Every run must give the reference
// groups, the second and third on memory the first sized; and a
// released scratch must hold nothing at all — above all no row pointer,
// over the build buffers' whole capacity, or it would pin a finished
// run's arena chunks.
func TestReleasedScratchHoldsNoRows(t *testing.T) {
	db, p, want := scratchFixture()
	if len(want) < 40 {
		t.Fatalf("only %d reference groups", len(want))
	}
	sc := takeScratch()
	for run := 0; run < 3; run++ {
		got := runRowsOn(sc, db, p, Options{})
		if g, w := sortedRows(got), sortedRows(want); !slices.EqualFunc(g, w, slices.Equal) {
			t.Fatalf("run %d: %d groups, want %d\n got %v\nwant %v", run, len(g), len(w), head(g), head(w))
		}
		if run > 0 && (sc.rows.Lent() == 0 || sc.ords.Lent() == 0 || sc.words.Lent() == 0 || sc.spans.Lent() == 0 || sc.aggs.Lent() == 0) {
			t.Fatalf("run %d lent rows %d, ords %d, words %d, spans %d, groups %d: a slab went unused",
				run, sc.rows.Lent(), sc.ords.Lent(), sc.words.Lent(), sc.spans.Lent(), sc.aggs.Lent())
		}
		sc.release()
		if takeScratch() != sc {
			t.Fatalf("run %d: the free list did not hand back the scratch just released", run)
		}
		if len(sc.rows.Array()) == 0 {
			t.Fatalf("run %d: the released scratch keeps no build buffer", run)
		}
		if i, ok := zeroed(&sc.rows, func(r storage.Row) bool { return r == nil }); !ok {
			t.Fatalf("run %d: released build buffer holds a row at %d of %d", run, i, len(sc.rows.Array()))
		}
		if i, ok := zeroed(&sc.ords, func(o int32) bool { return o == 0 }); !ok {
			t.Fatalf("run %d: released slot tables hold %d at %d", run, sc.ords.Array()[i], i)
		}
		if i, ok := zeroed(&sc.words, func(w int64) bool { return w == 0 }); !ok {
			t.Fatalf("run %d: released keys and arena chunks hold %d at %d", run, sc.words.Array()[i], i)
		}
		if i, ok := zeroed(&sc.spans, func(sp rowSpan) bool { return sp == rowSpan{} }); !ok {
			t.Fatalf("run %d: released spans hold %v at %d", run, sc.spans.Array()[i], i)
		}
		if i, ok := zeroed(&sc.aggs, func(g aggState) bool { return g.out == nil && !g.inited }); !ok {
			t.Fatalf("run %d: released groups hold %v at %d", run, sc.aggs.Array()[i], i)
		}
	}
	sc.release()
}

// TestReusedSlotTableStartsEmpty fills an index, resets its scratch, and
// builds the next index on the same memory: it must start with every
// slot empty, find none of the last index's keys, and number its own
// keys from zero.
func TestReusedSlotTableStartsEmpty(t *testing.T) {
	var sc scratch
	fill := func() keyIndex {
		x := newKeyIndex(100, &sc)
		for k := int64(0); k < 100; k++ {
			x.insert(k * 7)
		}
		return x
	}
	fill()
	sc.reset() // sizes the slabs for the index above
	last := fill()
	sc.reset()
	x := newKeyIndex(100, &sc)
	if &x.slots[0] != &last.slots[0] || &x.keys[:1][0] != &last.keys[0] {
		t.Fatal("the index was not built on the last one's memory")
	}
	if i := slices.IndexFunc(x.slots, func(s int32) bool { return s != 0 }); i >= 0 {
		t.Fatalf("reused slot %d holds %d", i, x.slots[i])
	}
	for k := int64(0); k < 100; k++ {
		if o := x.find(k * 7); o != -1 {
			t.Fatalf("find(%d) = %d in a fresh index", k*7, o)
		}
	}
	for i, k := range []int64{14, 700, 3} {
		if o, added := x.insert(k); o != int32(i) || !added {
			t.Fatalf("insert(%d) = %d, %v; want %d, true", k, o, added, i)
		}
	}
}

// TestRecycledArenaChunkCarvesZeroedRows dirties every row a run's arena
// carves, resets the scratch, and carves again on the same chunks: every
// row must come out zero, since an aggregate state starts its
// accumulators from the zero its row is carved with.
func TestRecycledArenaChunkCarvesZeroedRows(t *testing.T) {
	var sc scratch
	carve := func() []storage.Row {
		a := rowArena{words: &sc.words}
		var rows []storage.Row
		for i := range 600 {
			rows = append(rows, a.row(1+i%7))
		}
		return rows
	}
	dirty := func(rows []storage.Row) {
		for _, r := range rows {
			for j := range r {
				r[j] = -1
			}
		}
	}
	dirty(carve())
	sc.reset() // sizes the slab for the chunks above
	last := carve()
	dirty(last)
	sc.reset()
	rows := carve()
	if &rows[0][0] != &last[0][0] {
		t.Fatal("the arena did not carve from the last run's chunks")
	}
	for i, r := range rows {
		if j := slices.IndexFunc(r, func(v int64) bool { return v != 0 }); j >= 0 {
			t.Fatalf("recycled row %d holds %d at column %d", i, r[j], j)
		}
	}
}

// TestSweepDropsOnlyIdleScratches checks the sweep is wired to the
// collector for the scratch list: a scratch left idle in the free list
// goes once collections run. (recycle.TestSweepDropsOnlyIdle checks
// which values a sweep drops.)
func TestSweepDropsOnlyIdleScratches(t *testing.T) {
	sc := takeScratch()
	sc.release()
	if !listed(scratches, sc) {
		t.Fatal("the free list did not keep a released scratch")
	}
	for deadline := time.Now().Add(10 * time.Second); listed(scratches, sc); {
		if time.Now().After(deadline) {
			t.Fatal("an idle scratch is still listed after collections ran for 10 s")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
