package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"progressest/internal/plan"
	"progressest/internal/recycle"
	"progressest/internal/storage"
)

// iter is the Volcano iterator contract. rebind repositions an iterator on
// the inner side of a nested-loop join for a new outer row; iterators that
// cannot appear there panic.
type iter interface {
	open()
	next() (storage.Row, bool)
	rebind(outer storage.Row)
	close()
}

// rowArena backs the rows a run keeps — aggregate states, the emitting
// buffers of joins and Project, and the copies operators retain of those
// buffers' rows — so a run pays one carve per chunk instead of one
// allocation per row. The chunks come from the run's scratch (words),
// which RunDecomposed zeroes and recycles once the root is closed:
// nothing carved here may be retained past RunDecomposed (the Trace
// holds counters only).
type rowArena struct {
	words *recycle.Slab[int64]
	free  []int64 // unused tail of the current chunk
	chunk int     // words in the current chunk; the next one doubles it
}

// The first chunk serves a short query whole; chunks double up to a size
// whose unused tail is small beside what a run that long allocates.
const (
	arenaFirstChunk = 512
	arenaMaxChunk   = 8192
)

// row carves a zeroed row of n columns.
func (a *rowArena) row(n int) storage.Row {
	if n > len(a.free) {
		a.chunk = min(max(2*a.chunk, arenaFirstChunk), arenaMaxChunk)
		a.free = a.words.Take(max(a.chunk, n))
	}
	r := a.free[:n:n]
	a.free = a.free[n:]
	return r
}

// concatInto writes left ++ right into buf, an emitting iterator's one
// output row, carving buf on first use, and returns it.
func (a *rowArena) concatInto(buf, left, right storage.Row) storage.Row {
	if len(buf) != len(left)+len(right) {
		buf = a.row(len(left) + len(right))
	}
	copy(buf, left)
	copy(buf[len(left):], right)
	return buf
}

// keep returns what an operator may hold of a child's row past the
// child's next call: the row itself, or — when the child is transient and
// will overwrite it — a copy carved here.
func (a *rowArena) keep(row storage.Row, transient bool) storage.Row {
	if !transient {
		return row
	}
	out := a.row(len(row))
	copy(out, row)
	return out
}

// transient reports whether the rows n's iterator emits live in a buffer
// it overwrites on its next call: a join's or Project's output row, or
// one a Filter, Top or SemiJoin passes through from such a child. An
// operator that holds a child's row past the child's next call copies it
// (rowArena.keep) when the child is transient; base-table rows and
// aggregate rows live as long as the run and are held as they are.
func transient(n *plan.Node) bool {
	switch n.Op {
	case plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin, plan.Project:
		return true
	case plan.Filter, plan.Top, plan.SemiJoin:
		return transient(n.Children[0])
	default:
		return false
	}
}

// --- scans ---

type tableScanIter struct {
	ctx   *context
	n     *plan.Node
	tbl   *storage.Table
	width float64
	pos   int
}

func newTableScan(ctx *context, n *plan.Node) *tableScanIter {
	tbl := ctx.db.MustTable(n.TableName)
	return &tableScanIter{ctx: ctx, n: n, tbl: tbl, width: float64(tbl.Meta.RowWidth())}
}

func (it *tableScanIter) open() { it.pos = 0 }

func (it *tableScanIter) next() (storage.Row, bool) {
	if it.pos >= len(it.tbl.Rows) {
		return nil, false
	}
	row := it.tbl.Rows[it.pos]
	it.pos++
	it.ctx.read(it.n, it.width)
	it.ctx.produced(it.n)
	return row, true
}

func (it *tableScanIter) rebind(storage.Row) { it.pos = 0 }
func (it *tableScanIter) close()             {}

type indexScanIter struct {
	ctx   *context
	n     *plan.Node
	tbl   *storage.Table
	ix    *storage.Index
	width float64
	pos   int
}

func newIndexScan(ctx *context, n *plan.Node) *indexScanIter {
	tbl := ctx.db.MustTable(n.TableName)
	ix := tbl.IndexOn(n.IndexColumn)
	if ix == nil {
		panic(fmt.Sprintf("exec: IndexScan on %s.%s without index", n.TableName, n.IndexColumn))
	}
	return &indexScanIter{ctx: ctx, n: n, tbl: tbl, ix: ix, width: float64(tbl.Meta.RowWidth())}
}

func (it *indexScanIter) open() { it.pos = 0 }

func (it *indexScanIter) next() (storage.Row, bool) {
	if it.pos >= it.ix.Len() {
		return nil, false
	}
	_, rowID := it.ix.Entry(it.pos)
	it.pos++
	it.ctx.read(it.n, it.width)
	it.ctx.produced(it.n)
	return it.tbl.Rows[rowID], true
}

func (it *indexScanIter) rebind(storage.Row) { it.pos = 0 }
func (it *indexScanIter) close()             {}

type indexSeekIter struct {
	ctx   *context
	n     *plan.Node
	tbl   *storage.Table
	ix    *storage.Index
	width float64
	pos   int
	end   int
}

func newIndexSeek(ctx *context, n *plan.Node) *indexSeekIter {
	tbl := ctx.db.MustTable(n.TableName)
	ix := tbl.IndexOn(n.IndexColumn)
	if ix == nil {
		panic(fmt.Sprintf("exec: IndexSeek on %s.%s without index", n.TableName, n.IndexColumn))
	}
	return &indexSeekIter{ctx: ctx, n: n, tbl: tbl, ix: ix, width: float64(tbl.Meta.RowWidth())}
}

func (it *indexSeekIter) open() {
	if it.n.SeekOuterCol < 0 {
		it.pos, it.end = it.ix.SeekRange(it.n.SeekLo, it.n.SeekHi)
		it.ctx.clock += seekOverhead
	} else {
		it.pos, it.end = 0, 0 // positioned by rebind
	}
}

func (it *indexSeekIter) next() (storage.Row, bool) {
	if it.pos >= it.end {
		return nil, false
	}
	_, rowID := it.ix.Entry(it.pos)
	it.pos++
	it.ctx.read(it.n, it.width)
	it.ctx.produced(it.n)
	return it.tbl.Rows[rowID], true
}

func (it *indexSeekIter) rebind(outer storage.Row) {
	key := outer[it.n.SeekOuterCol]
	it.pos, it.end = it.ix.SeekEqual(key)
	it.ctx.clock += seekOverhead
}

func (it *indexSeekIter) close() {}

// --- streaming unary operators ---

type filterIter struct {
	ctx   *context
	n     *plan.Node
	child iter
}

func (it *filterIter) open() { it.child.open() }

func (it *filterIter) next() (storage.Row, bool) {
	for {
		row, ok := it.child.next()
		if !ok {
			return nil, false
		}
		if it.n.Pred.Eval(row) {
			it.ctx.produced(it.n)
			return row, true
		}
		// Rejected rows still cost evaluation time.
		it.ctx.clock += cpuCost(plan.Filter) * 0.5
	}
}

func (it *filterIter) rebind(outer storage.Row) { it.child.rebind(outer) }
func (it *filterIter) close()                   { it.child.close() }

type projectIter struct {
	ctx   *context
	n     *plan.Node
	child iter
	out   storage.Row // the emitted row, rewritten by every call
}

func (it *projectIter) open() { it.child.open() }

func (it *projectIter) next() (storage.Row, bool) {
	row, ok := it.child.next()
	if !ok {
		return nil, false
	}
	if it.out == nil {
		it.out = it.ctx.rows.row(len(it.n.ProjCols))
	}
	for i, c := range it.n.ProjCols {
		it.out[i] = row[c]
	}
	it.ctx.produced(it.n)
	return it.out, true
}

func (it *projectIter) rebind(outer storage.Row) { it.child.rebind(outer) }
func (it *projectIter) close()                   { it.child.close() }

// --- joins ---

// mix64 is a finalizing hash for spill-partition assignment.
func mix64(x int64) uint64 {
	z := uint64(x)
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	return z ^ (z >> 33)
}

const spillPartitions = 16

// joinTable is a hash join's build side: every build row in one slice,
// grouped by join key, each group in build-arrival order, with one index
// from key to the group's span.
type joinTable struct {
	rows  []storage.Row
	spans []rowSpan // by the key's ordinal in index
	index keyIndex
}

// rowSpan is the half-open range of one key's rows in joinTable.rows.
type rowSpan struct{ lo, hi int32 }

// newJoinTable groups rows — in place, the table keeps the slice — by
// their key column: a stable counting sort on the key's first-arrival
// ordinal. One pass numbers each row's key, one counts each key's rows,
// one lays the spans out and gives every row its destination (a group
// fills in arrival order), and the last applies that permutation by
// following its cycles. Rows that arrive already grouped, as a key
// column's do, never move. The index, spans and destinations come from
// sc.
func newJoinTable(rows []storage.Row, key int, sc *scratch) joinTable {
	// The index grows with the distinct keys, not the rows: sized by the
	// row count it would hold two to four slots per build row however few
	// the keys, and the scratch would keep them.
	t := joinTable{rows: rows, index: newKeyIndex(0, sc)}
	dest := sc.ords.Take(len(rows)) // first the row's span ordinal, then its final position
	for i, row := range rows {
		dest[i], _ = t.index.insert(row[key])
	}
	t.spans = sc.spans.Take(len(t.index.keys))
	for _, o := range dest {
		t.spans[o].hi++ // a count until the spans are laid out below
	}
	at := int32(0)
	for i, sp := range t.spans {
		t.spans[i] = rowSpan{at, at}
		at += sp.hi
	}
	for i, o := range dest {
		dest[i] = t.spans[o].hi
		t.spans[o].hi++
	}
	for i := range rows {
		// dest[j] is where the row now at j belongs; each swap puts one
		// row in its final place.
		for d := dest[i]; d != int32(i); d = dest[i] {
			rows[i], rows[d] = rows[d], rows[i]
			dest[i], dest[d] = dest[d], d
		}
	}
	return t
}

// matches returns the build rows with the key, in build-arrival order.
func (t *joinTable) matches(k int64) []storage.Row {
	o := t.index.find(k)
	if o < 0 {
		return nil
	}
	sp := t.spans[o]
	return t.rows[sp.lo:sp.hi]
}

type hashJoinIter struct {
	ctx   *context
	n     *plan.Node
	probe iter
	build iter
	// copyProbe, copyBuild: the side is transient, so the rows buffered
	// from it are copies (rowArena.keep).
	copyProbe, copyBuild bool

	// table holds the whole build side. A key belongs to exactly one
	// partition, so the rows phase 1 probes (resident partitions) and the
	// rows phase 2 reads back (spilled ones) never share a group.
	table       joinTable
	spilledPart [spillPartitions]bool
	spillProbe  []storage.Row
	buildWidth  float64
	probeWidth  float64

	// phase-2 state: joining buffered spilled probe rows
	phase2    bool
	p2idx     int
	p2matches []storage.Row
	p2match   int
	p2row     storage.Row

	matches []storage.Row
	midx    int
	cur     storage.Row // the probe child is not advanced while it is read
	out     storage.Row // the emitted row, rewritten by every call
}

func (it *hashJoinIter) open() {
	it.probe.open()
	it.build.open()
	it.probeWidth = it.n.Children[0].RowWidth
	it.buildWidth = it.n.Children[1].RowWidth

	// Build phase: consume the entire build input. If the build side
	// exceeds the memory budget, later rows in spilled partitions are
	// written out (extra GetNext calls at this node, as the paper models
	// spills). The buffer, from the run's scratch, starts at the
	// optimizer's estimate of the build side plus an eighth: right, it is
	// the one buffer; low, it doubles; high, the bound caps what is
	// wasted.
	sc := it.ctx.scratch
	est := int(it.n.Children[1].EstRows)
	buildRows := sc.rows.Take(min(max(est+est/8, 16), 1<<14))[:0]
	for {
		row, ok := it.build.next()
		if !ok {
			break
		}
		it.ctx.consumed(it.n)
		buildRows = append(sc.rows.Grow(buildRows), it.ctx.rows.keep(row, it.copyBuild))
	}
	budget := it.ctx.opts.MemBudgetRows
	if budget > 0 && len(buildRows) > budget {
		// Choose how many of the 16 partitions must spill.
		frac := 1.0 - float64(budget)/float64(len(buildRows))
		nSpill := int(frac*spillPartitions + 0.999)
		if nSpill > spillPartitions-1 {
			nSpill = spillPartitions - 1
		}
		for p := 0; p < nSpill; p++ {
			it.spilledPart[p] = true
		}
		key := it.n.JoinRightCol
		for _, row := range buildRows {
			if it.spilledPart[mix64(row[key])%spillPartitions] {
				it.ctx.write(it.n, it.buildWidth)
				it.ctx.spillCall(it.n, it.buildWidth, false)
			}
		}
	}
	it.table = newJoinTable(buildRows, it.n.JoinRightCol, sc)
}

func (it *hashJoinIter) emit(probeRow, buildRow storage.Row) storage.Row {
	it.out = it.ctx.rows.concatInto(it.out, probeRow, buildRow)
	it.ctx.produced(it.n)
	return it.out
}

func (it *hashJoinIter) next() (storage.Row, bool) {
	for {
		// Drain pending matches for the current probe row.
		if it.midx < len(it.matches) {
			m := it.matches[it.midx]
			it.midx++
			return it.emit(it.cur, m), true
		}
		if it.phase2 {
			return it.nextPhase2()
		}
		row, ok := it.probe.next()
		if !ok {
			// Probe input exhausted: switch to spilled partitions.
			it.phase2 = true
			continue
		}
		k := row[it.n.JoinLeftCol]
		if it.spilledPart[mix64(k)%spillPartitions] {
			// Probe row in a spilled partition: write it out for phase 2.
			it.spillProbe = append(it.spillProbe, it.ctx.rows.keep(row, it.copyProbe))
			it.ctx.write(it.n, it.probeWidth)
			it.ctx.spillCall(it.n, it.probeWidth, true)
			continue
		}
		it.cur = row
		it.matches = it.table.matches(k)
		it.midx = 0
	}
}

func (it *hashJoinIter) nextPhase2() (storage.Row, bool) {
	for {
		if it.p2match < len(it.p2matches) {
			m := it.p2matches[it.p2match]
			it.p2match++
			return it.emit(it.p2row, m), true
		}
		if it.p2idx >= len(it.spillProbe) {
			return nil, false
		}
		row := it.spillProbe[it.p2idx]
		it.p2idx++
		// Read the probe row (and its matching build rows) back from
		// "disk": extra GetNext call + read I/O.
		it.ctx.read(it.n, it.probeWidth)
		it.ctx.spillCall(it.n, it.probeWidth, true)
		it.p2row = row
		it.p2matches = it.table.matches(row[it.n.JoinLeftCol])
		it.p2match = 0
	}
}

func (it *hashJoinIter) rebind(storage.Row) { panic("exec: hash join cannot be rebound") }
func (it *hashJoinIter) close()             { it.probe.close(); it.build.close() }

// semiJoinIter is a hash semi join: the build side is consumed into a key
// set; each probe row is emitted at most once, when its key is present.
// It implements EXISTS sub-queries, so its output schema is the probe
// row unchanged.
type semiJoinIter struct {
	ctx   *context
	n     *plan.Node
	probe iter
	build iter
	keys  keyIndex
}

func (it *semiJoinIter) open() {
	it.probe.open()
	it.build.open()
	it.keys = newKeyIndex(min(int(it.n.Children[1].EstRows), 1<<14), it.ctx.scratch)
	key := it.n.JoinRightCol
	for {
		row, ok := it.build.next()
		if !ok {
			break
		}
		it.ctx.consumed(it.n)
		it.keys.insert(row[key])
	}
}

func (it *semiJoinIter) next() (storage.Row, bool) {
	for {
		row, ok := it.probe.next()
		if !ok {
			return nil, false
		}
		if it.keys.find(row[it.n.JoinLeftCol]) >= 0 {
			it.ctx.produced(it.n)
			return row, true
		}
		// Misses still cost a hash probe.
		it.ctx.clock += cpuCost(plan.SemiJoin) * 0.4
	}
}

func (it *semiJoinIter) rebind(storage.Row) { panic("exec: semi join cannot be rebound") }
func (it *semiJoinIter) close()             { it.probe.close(); it.build.close() }

type mergeJoinIter struct {
	ctx   *context
	n     *plan.Node
	left  iter
	right iter
	// copyLeft, copyRight: the side is transient, so curLeft — read after
	// the left child advances — and the group rows are copies.
	copyLeft, copyRight bool

	lRow, rRow storage.Row // each child is not advanced while its row is read
	lOK, rOK   bool
	primed     bool

	group    []storage.Row // buffered right rows with the current key
	groupKey int64
	gidx     int
	curLeft  storage.Row
	out      storage.Row // the emitted row, rewritten by every call
}

func (it *mergeJoinIter) open() {
	it.left.open()
	it.right.open()
	// The first input rows are pulled lazily on the first next() call, so
	// that every blocking operator in the plan finishes filling before this
	// iterator's pipeline becomes active.
	it.primed = false
}

func (it *mergeJoinIter) next() (storage.Row, bool) {
	if !it.primed {
		it.primed = true
		it.lRow, it.lOK = it.left.next()
		it.rRow, it.rOK = it.right.next()
	}
	lc, rc := it.n.JoinLeftCol, it.n.JoinRightCol
	for {
		if it.gidx < len(it.group) {
			r := it.group[it.gidx]
			it.gidx++
			it.out = it.ctx.rows.concatInto(it.out, it.curLeft, r)
			it.ctx.produced(it.n)
			return it.out, true
		}
		if !it.lOK {
			return nil, false
		}
		// Advance the left row; reuse the buffered group if its key matches.
		if len(it.group) > 0 && it.lRow[lc] == it.groupKey {
			it.curLeft = it.ctx.rows.keep(it.lRow, it.copyLeft)
			it.gidx = 0
			it.lRow, it.lOK = it.left.next()
			continue
		}
		it.group = it.group[:0] // the buffer is reused by the next group
		// Advance right until rKey >= lKey.
		for it.rOK && it.rRow[rc] < it.lRow[lc] {
			it.rRow, it.rOK = it.right.next()
		}
		if !it.rOK {
			// Right exhausted; drain the remaining left side (no output).
			for it.lOK {
				it.lRow, it.lOK = it.left.next()
			}
			return nil, false
		}
		if it.rRow[rc] > it.lRow[lc] {
			it.lRow, it.lOK = it.left.next()
			continue
		}
		// Equal keys: buffer the full right group.
		it.groupKey = it.rRow[rc]
		for it.rOK && it.rRow[rc] == it.groupKey {
			it.group = append(it.group, it.ctx.rows.keep(it.rRow, it.copyRight))
			it.rRow, it.rOK = it.right.next()
		}
		it.curLeft = it.ctx.rows.keep(it.lRow, it.copyLeft)
		it.gidx = 0
		it.lRow, it.lOK = it.left.next()
	}
}

func (it *mergeJoinIter) rebind(storage.Row) { panic("exec: merge join cannot be rebound") }
func (it *mergeJoinIter) close()             { it.left.close(); it.right.close() }

type nlJoinIter struct {
	ctx   *context
	n     *plan.Node
	outer iter
	inner iter

	curOuter storage.Row // the outer child is not advanced while it is read
	haveCur  bool
	opened   bool
	out      storage.Row // the emitted row, rewritten by every call
}

func (it *nlJoinIter) open() {
	it.outer.open()
	it.inner.open()
	it.opened = true
}

func (it *nlJoinIter) next() (storage.Row, bool) {
	for {
		if !it.haveCur {
			row, ok := it.outer.next()
			if !ok {
				return nil, false
			}
			it.curOuter = row
			it.haveCur = true
			it.ctx.clock += cpuCost(plan.NestedLoopJoin) * 0.5
			it.inner.rebind(row)
		}
		innerRow, ok := it.inner.next()
		if !ok {
			it.haveCur = false
			continue
		}
		it.out = it.ctx.rows.concatInto(it.out, it.curOuter, innerRow)
		it.ctx.produced(it.n)
		return it.out, true
	}
}

func (it *nlJoinIter) rebind(storage.Row) { panic("exec: nested-loop join cannot be rebound") }
func (it *nlJoinIter) close()             { it.outer.close(); it.inner.close() }

// --- sorts ---

// sortRows sorts rows stably by the columns cols, in order.
func sortRows(rows []storage.Row, cols []int) {
	slices.SortStableFunc(rows, func(a, b storage.Row) int {
		for _, col := range cols {
			if c := cmp.Compare(a[col], b[col]); c != 0 {
				return c
			}
		}
		return 0
	})
}

type sortIter struct {
	ctx       *context
	n         *plan.Node
	child     iter
	copyChild bool // the child is transient: rows holds copies
	rows      []storage.Row
	pos       int
}

func (it *sortIter) open() {
	it.child.open()
	for {
		row, ok := it.child.next()
		if !ok {
			break
		}
		it.ctx.consumed(it.n)
		it.rows = append(it.rows, it.ctx.rows.keep(row, it.copyChild))
	}
	// Spill accounting when the input exceeds memory: one write + one read
	// of the whole input (external merge sort).
	budget := it.ctx.opts.MemBudgetRows
	if budget > 0 && len(it.rows) > budget {
		bytes := float64(len(it.rows)) * it.n.RowWidth
		it.ctx.write(it.n, bytes)
		it.ctx.read(it.n, bytes)
	}
	sortRows(it.rows, it.n.SortCols)
	// Charge the n log n comparison work.
	nr := float64(len(it.rows))
	if nr > 1 {
		it.ctx.clock += nr * log2(nr) * 0.12
	}
	it.ctx.filled(it.n, len(it.rows))
	it.pos = 0
}

func (it *sortIter) next() (storage.Row, bool) {
	if it.pos >= len(it.rows) {
		return nil, false
	}
	row := it.rows[it.pos]
	it.pos++
	it.ctx.produced(it.n)
	return row, true
}

func (it *sortIter) rebind(storage.Row) { panic("exec: sort cannot be rebound") }
func (it *sortIter) close()             { it.child.close() }

// batchSortIter implements the partial batch sort used to localise
// references in nested iterations (Section 5.1): it consumes BatchSize
// rows from its child, sorts them, emits them, then refills. The blocking
// happens per batch, which is what breaks driver-node-only estimators.
type batchSortIter struct {
	ctx       *context
	n         *plan.Node
	child     iter
	copyChild bool // the child is transient: buf holds copies
	buf       []storage.Row
	pos       int
	done      bool
}

// open takes the batch buffer from the run's scratch, sized as the hash
// join's build buffer is — the optimizer's estimate of the input plus an
// eighth, doubling should that be low, at most 1<<14 rows — and capped
// at the batch size.
func (it *batchSortIter) open() {
	it.child.open()
	if it.buf == nil {
		est := int(it.n.Children[0].EstRows)
		it.buf = it.ctx.scratch.rows.Take(min(it.n.BatchSize, max(est+est/8, 16), 1<<14))
	}
	it.buf = it.buf[:0]
	it.pos = 0
	it.done = false
}

func (it *batchSortIter) fill() {
	it.buf = it.buf[:0]
	it.pos = 0
	for len(it.buf) < it.n.BatchSize {
		row, ok := it.child.next()
		if !ok {
			it.done = true
			break
		}
		it.ctx.consumed(it.n)
		it.buf = append(it.ctx.scratch.rows.Grow(it.buf), it.ctx.rows.keep(row, it.copyChild))
	}
	sortRows(it.buf, it.n.SortCols)
	nb := float64(len(it.buf))
	if nb > 1 {
		it.ctx.clock += nb * log2(nb) * 0.12
	}
}

func (it *batchSortIter) next() (storage.Row, bool) {
	for {
		if it.pos < len(it.buf) {
			row := it.buf[it.pos]
			it.pos++
			it.ctx.produced(it.n)
			return row, true
		}
		if it.done {
			return nil, false
		}
		it.fill()
		if len(it.buf) == 0 {
			return nil, false
		}
	}
}

func (it *batchSortIter) rebind(storage.Row) { panic("exec: batch sort cannot be rebound") }
func (it *batchSortIter) close()             { it.child.close() }

// --- aggregation ---

// groupKey packs up to two group columns into one int64. Generated data
// keeps column values well below 2^31, so the packing is collision-free.
func groupKey(row storage.Row, cols []int) int64 {
	switch len(cols) {
	case 1:
		return row[cols[0]]
	case 2:
		return row[cols[0]]<<32 | (row[cols[1]] & 0xffffffff)
	default:
		panic(fmt.Sprintf("exec: %d group columns unsupported (max 2)", len(cols)))
	}
}

// aggState is one group's running aggregate. out is the group's output
// row — the group columns, then one accumulator per aggregate — carved
// from the row arena when the group's first row arrives and updated in
// place until the group is emitted.
type aggState struct {
	out    storage.Row
	inited bool
}

func newAggState(ctx *context, n *plan.Node, row storage.Row) aggState {
	out := ctx.rows.row(len(n.GroupCols) + len(n.Aggs))
	for i, c := range n.GroupCols {
		out[i] = row[c]
	}
	return aggState{out: out}
}

func (st *aggState) update(n *plan.Node, row storage.Row) {
	accs := st.out[len(n.GroupCols):]
	for i, a := range n.Aggs {
		switch a.Func {
		case AggCountFunc:
			accs[i]++
		case AggSumFunc:
			accs[i] += row[a.Col]
		case AggMinFunc:
			if !st.inited || row[a.Col] < accs[i] {
				accs[i] = row[a.Col]
			}
		case AggMaxFunc:
			if !st.inited || row[a.Col] > accs[i] {
				accs[i] = row[a.Col]
			}
		}
	}
	st.inited = true
}

// Aliases so the switch above reads naturally.
const (
	AggCountFunc = plan.AggCount
	AggSumFunc   = plan.AggSum
	AggMinFunc   = plan.AggMin
	AggMaxFunc   = plan.AggMax
)

type hashAggIter struct {
	ctx    *context
	n      *plan.Node
	child  iter
	groups []aggState // in first-arrival order of their keys
	pos    int
}

// open takes the groups from the run's scratch, sized as the hash
// join's build buffer is — the optimizer's estimate of the groups plus an
// eighth, doubling should that be low, at most 1<<14 groups.
func (it *hashAggIter) open() {
	it.child.open()
	sc := it.ctx.scratch
	est := int(it.n.EstRows)
	byKey := newKeyIndex(min(est, 1<<14), sc) // group key -> ordinal in groups
	it.groups = sc.aggs.Take(min(max(est+est/8, 16), 1<<14))[:0]
	for {
		row, ok := it.child.next()
		if !ok {
			break
		}
		it.ctx.consumed(it.n)
		g, added := byKey.insert(groupKey(row, it.n.GroupCols))
		if added {
			it.groups = append(sc.aggs.Grow(it.groups), newAggState(it.ctx, it.n, row))
		}
		it.groups[g].update(it.n, row)
	}
	it.ctx.filled(it.n, len(it.groups))
	it.pos = 0
}

func (it *hashAggIter) next() (storage.Row, bool) {
	if it.pos >= len(it.groups) {
		return nil, false
	}
	out := it.groups[it.pos].out
	it.pos++
	it.ctx.produced(it.n)
	return out, true
}

func (it *hashAggIter) rebind(storage.Row) { panic("exec: hash aggregate cannot be rebound") }
func (it *hashAggIter) close()             { it.child.close() }

type streamAggIter struct {
	ctx     *context
	n       *plan.Node
	child   iter
	pending storage.Row // the child is not advanced while it is read
	havePen bool
	done    bool
}

func (it *streamAggIter) open() {
	it.child.open()
	it.pending, it.havePen = it.child.next()
	if it.havePen {
		it.ctx.consumed(it.n)
	}
}

func (it *streamAggIter) next() (storage.Row, bool) {
	if !it.havePen || it.done {
		return nil, false
	}
	st := newAggState(it.ctx, it.n, it.pending)
	key := groupKey(it.pending, it.n.GroupCols)
	st.update(it.n, it.pending)
	for {
		row, ok := it.child.next()
		if !ok {
			it.havePen = false
			break
		}
		it.ctx.consumed(it.n)
		if groupKey(row, it.n.GroupCols) != key {
			it.pending = row
			break
		}
		st.update(it.n, row)
	}
	it.ctx.produced(it.n)
	return st.out, true
}

func (it *streamAggIter) rebind(storage.Row) { panic("exec: stream aggregate cannot be rebound") }
func (it *streamAggIter) close()             { it.child.close() }

type topIter struct {
	ctx     *context
	n       *plan.Node
	child   iter
	emitted int64
}

func (it *topIter) open() { it.child.open(); it.emitted = 0 }

func (it *topIter) next() (storage.Row, bool) {
	if it.emitted >= it.n.TopN {
		return nil, false
	}
	row, ok := it.child.next()
	if !ok {
		return nil, false
	}
	it.emitted++
	it.ctx.produced(it.n)
	return row, true
}

func (it *topIter) rebind(storage.Row) { panic("exec: top cannot be rebound") }
func (it *topIter) close()             { it.child.close() }

func log2(x float64) float64 { return math.Log2(x) }
