//go:build !race

package progressest

import (
	"runtime"
	"testing"

	"progressest/internal/exec"
	"progressest/internal/progress"
)

// The zero-alloc assertions live behind !race because testing.AllocsPerRun
// reports spurious allocations under the race detector's instrumentation.

// TestSnapshotUpdateCycleZeroAlloc asserts the tentpole property: at
// steady state, one full snapshot→estimate→update tick — including the
// synthetic thins a long-running query incurs — performs zero heap
// allocations, in both delivery modes, on settled pipelines and on
// pipelines whose every snapshot appends a table row.
func TestSnapshotUpdateCycleZeroAlloc(t *testing.T) {
	for _, mode := range cycleModes {
		for _, picking := range []bool{false, true} {
			name := mode.name
			if picking {
				name += "_picking"
			}
			t.Run(name, func(t *testing.T) {
				c := newSnapshotCycle(t, mode.batched, picking)
				if avg := testing.AllocsPerRun(200, c.tick); avg != 0 {
					t.Fatalf("%s snapshot→update cycle: %v allocs/op at steady state, want 0",
						name, avg)
				}
			})
		}
	}
}

// TestQueryEstimateZeroAlloc covers the satellite read-path fix: the live
// eq. 5 combination — over settled pipelines and over pipelines whose
// pick is open — and the scratch-buffer series read of a finished view
// allocate nothing once warm.
func TestQueryEstimateZeroAlloc(t *testing.T) {
	choose := func(int) progress.Kind { return progress.DNE }
	for _, picking := range []bool{false, true} {
		view := newSnapshotCycle(t, true, picking).obs.view
		view.QueryEstimate(choose) // warm (already warm via ticks; belt and braces)
		if avg := testing.AllocsPerRun(100, func() {
			view.QueryEstimate(choose)
		}); avg != 0 {
			t.Fatalf("QueryEstimate (picking %v): %v allocs/op, want 0", picking, avg)
		}
	}
	// A series is a finished-run read: the first one builds the table.
	w, err := Open(Config{Dataset: TPCH, Queries: 2, Scale: 0.08, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := w.planned(0)
	if err != nil {
		t.Fatal(err)
	}
	view := progress.Replay(exec.RunDecomposed(w.inner.DB, pq.plan, pq.pipes, exec.Options{}))
	scratch := view.Pipelines[0].AppendSeries(make([]float64, 0, 512), progress.DNE)
	if avg := testing.AllocsPerRun(100, func() {
		scratch = view.Pipelines[0].AppendSeries(scratch[:0], progress.DNE)
	}); avg != 0 {
		t.Fatalf("AppendSeries into scratch: %v allocs/op, want 0", avg)
	}
}

// startToDoneCost is the allocation count and heap bytes of one monitored
// query of BenchmarkMonitorStartToDone's fixture — Start, every update
// drained, Wait — once the plan entry is filled and the executor's
// scratch holds this query's operator memory, averaged the way
// testing.AllocsPerRun averages (on one P, the count truncated).
func startToDoneCost(t *testing.T, opts MonitorOptions) (allocs, bytes float64) {
	t.Helper()
	w, err := Open(Config{Dataset: TPCH, Queries: 2, Scale: 0.08, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	query := func() {
		m, err := w.Start(0, opts)
		if err != nil {
			t.Fatal(err)
		}
		for range m.Updates {
		}
		if _, err := m.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The first run plans the query and fills its entry. The executor's
	// scratch may come in sized by larger plans of earlier tests, and it
	// shrinks an oversized slab once every 64 runs: two windows of this
	// query alone leave the measured runs nothing to regrow or trim.
	for range 2*64 + 1 {
		query()
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		query()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / runs), float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// startToDoneAllocCeiling bounds a whole monitored query about 15 % over
// the 39 allocations it measures today (54 while every run allocated its
// hash-join buffers, key indexes and row-arena chunks afresh; 64 while
// every pipeline kept a row of every estimate for every snapshot after
// its pick was final; 78 while the hash operators indexed keys in Go
// maps and every join and Project output row was carved from the row
// arena; 81 while Wait built a second eq. 5 over the finished view and a
// fixed estimator carried marker cursors; 95 while Wait rebuilt every
// pipeline context to replay the trace offline; 123 while every run
// rebuilt its pipeline contexts and carved nothing from slabs; 959
// before a run's rows, join table, snapshot sink and observation tables
// stopped being allocated row by row). The executor's operator memory —
// hash-join build buffers, slot tables, keys, spans and destinations,
// the semi join's key set, the hash aggregate's group index and the row
// arena's chunks — is recycled: a run takes a scratch from a free list
// of at most GOMAXPROCS and hands it back zeroed. The list is a plain
// mutex-guarded slice, not a sync.Pool, which the collector empties at
// any collection; here a collection drops only a scratch no run took
// since the one before, so on one P the measured runs always find the
// scratch the last one released, and the count does not move with the
// collector's timing. Everything else a run allocates is sized by the
// run.
const startToDoneAllocCeiling = 45

// startToDoneByteCeiling bounds the same query's heap bytes about 4 % over
// the 46.4 KB it measured when set (46.6 KB today, each pipeline's latest
// row now as wide as a row of every estimate; 98.4 KB while every run allocated its
// operator memory afresh; 132.3 KB while every pipeline kept a row of
// every estimate after its pick was final; 144.7 KB while the hash
// operators indexed keys in Go maps and every join and Project output row
// was carved from the row arena). The bytes repeat to a few bytes run to
// run, and a row-arena chunk allocated per run again (4 KB or more)
// reads over, so only a ceiling this close sees it.
const startToDoneByteCeiling = 48_300

// TestStartToDoneAllocBudget gates what BENCH_baseline.json only records:
// a query's set-up and working memory, the dominant per-query cost once
// the snapshot→update cycle allocates nothing — in allocations and in
// bytes, so rows an operator drops creeping back into the row arena fail
// here.
func TestStartToDoneAllocBudget(t *testing.T) {
	avg, bytes := startToDoneCost(t, MonitorOptions{})
	if avg > startToDoneAllocCeiling {
		t.Fatalf("monitored query start-to-done: %v allocs, ceiling %d", avg, startToDoneAllocCeiling)
	}
	if bytes > startToDoneByteCeiling {
		t.Fatalf("monitored query start-to-done: %.0f bytes, ceiling %d", bytes, startToDoneByteCeiling)
	}
	t.Logf("monitored query start-to-done: %v allocs (ceiling %d), %.0f bytes (ceiling %d)",
		avg, startToDoneAllocCeiling, bytes, startToDoneByteCeiling)
}

// learningStartToDoneAllocCeiling bounds the same query with Learning
// attached — its finished run labelled and appended to the corpus before
// Wait returns — about 15 % over the 68 allocations it measures today
// (69 while each pipeline assembled its features in a buffer of its own;
// 77 while the live view kept a table of every row before a pick
// settled; 92 while every run allocated its operator memory afresh; 105 while
// the hash operators indexed keys in Go maps and join and Project
// outputs were carved per row; 108 while Wait built a second eq. 5 over
// the finished view; 122 while Wait replayed the trace offline; 176
// while every run rebuilt its pipeline contexts; 266 while harvest
// replayed every estimator through an offline view of the trace).
const learningStartToDoneAllocCeiling = 79

// learningStartToDoneByteCeiling bounds the same query's heap bytes about
// 4 % over the 86.9 KB it measures today (88.8 KB while each pipeline
// assembled its features in a buffer of its own; 99.8 KB while the live view
// kept a table of every row before a pick settled; 151.7 KB while every
// run allocated its operator memory afresh). Harvest builds the view's
// table from the trace, once; this ceiling holds that build to what it
// costs today.
const learningStartToDoneByteCeiling = 92_300

// TestLearningStartToDoneAllocBudget gates what harvest adds to a
// monitored query: labelling reads the monitor's own view, whose table
// it builds from the trace once — the same row function the live feed
// runs — not a second replay of every estimator through a fresh view.
func TestLearningStartToDoneAllocBudget(t *testing.T) {
	lrn, err := OpenLearning(LearningConfig{Dir: t.TempDir(), DisableBackground: true, DisableGate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn.Close()
	avg, bytes := startToDoneCost(t, MonitorOptions{Learning: lrn})
	if st := lrn.HarvestStats(); st.Examples == 0 || st.Errors != 0 {
		t.Fatalf("harvest stats %+v: the query must land examples in the corpus", st)
	}
	if avg > learningStartToDoneAllocCeiling {
		t.Fatalf("learning query start-to-done: %v allocs, ceiling %d", avg, learningStartToDoneAllocCeiling)
	}
	if bytes > learningStartToDoneByteCeiling {
		t.Fatalf("learning query start-to-done: %.0f bytes, ceiling %d", bytes, learningStartToDoneByteCeiling)
	}
	t.Logf("learning query start-to-done: %v allocs (ceiling %d), %.0f bytes (ceiling %d)",
		avg, learningStartToDoneAllocCeiling, bytes, learningStartToDoneByteCeiling)
}

// selectorStartToDoneAllocCeiling bounds the same query served by a
// trained selector — native_closed's configuration: a pick at every
// pipeline start and marker crossing — about 15 % over the 42
// allocations it measures today (43 while each pipeline assembled its
// features in a buffer of its own; 46 while every pipeline kept a table of
// every row until its last marker crossing; 61 while every run allocated its
// operator memory afresh; 67 while every pipeline kept a row of every
// estimate after its last marker crossing; 81 while the hash operators
// indexed keys in Go maps and join and Project outputs were carved per
// row; 83 while Wait built a second eq. 5 over the finished view; 97
// while Wait replayed the trace offline; 151 while every run rebuilt its
// pipeline contexts and static feature prefixes).
const selectorStartToDoneAllocCeiling = 49

// selectorStartToDoneByteCeiling bounds the same query's heap bytes about
// 4 % over the 50.7 KB it measures today (52.5 KB while each pipeline
// assembled its features in a buffer of its own; 63.6 KB while every pipeline
// kept a table of every row until its last marker crossing; 115.6 KB
// while every run
// allocated its operator memory afresh; 135.9 KB while every pipeline
// kept a row of every estimate after its last marker crossing; 148.3 KB
// before that; 144.1 KB with join and Project outputs carved per row
// again) — see startToDoneByteCeiling.
const selectorStartToDoneByteCeiling = 54_600

// TestSelectorStartToDoneAllocBudget gates what selection adds to a
// monitored query: the static prefix comes from the plan entry, so a
// pick must stay a copy into the view's one feature buffer.
func TestSelectorStartToDoneAllocBudget(t *testing.T) {
	avg, bytes := startToDoneCost(t, MonitorOptions{Selector: trainedSelector(t)})
	if avg > selectorStartToDoneAllocCeiling {
		t.Fatalf("selector-served query start-to-done: %v allocs, ceiling %d", avg, selectorStartToDoneAllocCeiling)
	}
	if bytes > selectorStartToDoneByteCeiling {
		t.Fatalf("selector-served query start-to-done: %.0f bytes, ceiling %d", bytes, selectorStartToDoneByteCeiling)
	}
	t.Logf("selector-served query start-to-done: %v allocs (ceiling %d), %.0f bytes (ceiling %d)",
		avg, selectorStartToDoneAllocCeiling, bytes, selectorStartToDoneByteCeiling)
}

// observeAllocCeiling bounds one POST …/observations of
// BenchmarkSessionObserve's fixture — request and recorder included —
// about 15 % over the 22 allocations it measures today (97 while the
// batch was decoded by reflection into per-snapshot structs and the
// session kept a fresh row per snapshot). The decode scratch is pooled,
// so a collection mid-measurement costs a few allocations once; the
// average over the runs does not see it.
const observeAllocCeiling = 25

// TestObserveAllocBudget gates the session wire the way
// TestStartToDoneAllocBudget gates the native path: a per-snapshot or
// per-delta allocation creeping back into the body read, the decoder or
// the Runner's history fails here, not in a benchmark someone has to
// read.
func TestObserveAllocBudget(t *testing.T) {
	f := newObserveFixture(t)
	f.post() // the first batch starts the pipelines
	avg := testing.AllocsPerRun(200, f.post)
	if avg > observeAllocCeiling {
		t.Fatalf("observation batch through ServeHTTP: %v allocs, ceiling %d", avg, observeAllocCeiling)
	}
	t.Logf("observation batch through ServeHTTP: %v allocs (ceiling %d)", avg, observeAllocCeiling)
}

// serverCost is the allocation count and heap bytes of one op through
// ServeHTTP on the server fixture — a native query or a session, start
// to done — averaged as startToDoneCost averages, on one P. The warm-up
// runs the op past the query table's retention bound, so every submit
// evicts one finished run, and past two trim windows, so the executor's
// scratch and the run's snapshot history hold what this plan needs.
func serverCost(t *testing.T, op func()) (allocs, bytes float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range defaultMaxKept + 2*64 + 1 {
		op()
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / runs), float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// serverStartToDoneAllocCeiling bounds one native query through
// ServeHTTP — submit, the run, one progress read, request and recorder
// included — about 15 % over the 83 allocations it measures today.
// The run belongs to the server, which never reads its trace or its view
// after the final update: it records its snapshot history — counter
// block, row chunks, trace headers and delivery window — on memory
// borrowed from the executor's free list, keeps its estimator state —
// pipelines, marker rows, feature vector, policy state — on view memory
// borrowed from the estimators' free list, and hands both back once
// finished (91 allocations while every served view and counter block
// was allocated per run, 95 while every run grew its own delivery
// window, 99 while every served run allocated its whole history).
const serverStartToDoneAllocCeiling = 95

// serverStartToDoneByteCeiling bounds the same op's heap bytes about 4 %
// over the 17.5 KB it measures today (18.7 KB while every served view
// and counter block was allocated per run; 19.8 KB while every run grew
// its own delivery window; 61.3 KB while every served run allocated its
// row chunks and trace headers): a history allocated per run again reads
// far over.
const serverStartToDoneByteCeiling = 18_200

// TestServerStartToDoneAllocBudget gates the served path the way
// TestStartToDoneAllocBudget gates the library one. Library runs keep
// their trace for Wait, so only a run through the server shows whether
// its history goes back to the free list.
func TestServerStartToDoneAllocBudget(t *testing.T) {
	f := newServerFixture(t, MonitorOptions{})
	avg, bytes := serverCost(t, f.query)
	if avg > serverStartToDoneAllocCeiling {
		t.Fatalf("served query start-to-done: %v allocs, ceiling %d", avg, serverStartToDoneAllocCeiling)
	}
	if bytes > serverStartToDoneByteCeiling {
		t.Fatalf("served query start-to-done: %.0f bytes, ceiling %d", bytes, serverStartToDoneByteCeiling)
	}
	t.Logf("served query start-to-done: %v allocs (ceiling %d), %.0f bytes (ceiling %d)",
		avg, serverStartToDoneAllocCeiling, bytes, serverStartToDoneByteCeiling)
}

// selectorServerStartToDoneAllocCeiling bounds the same native query
// through ServeHTTP served by a trained selector — native_closed's
// configuration: a pick at every pipeline start and marker crossing,
// every pipeline's marker rows kept until its last crossing — about 15 %
// over the 83 allocations it measures today, as many as the fixed
// estimator's: the marker rows, the feature vector and the policy's
// state are carved from the borrowed view memory (95 while every served
// view allocated them and each pipeline its own feature vector, 102
// while every pipeline kept a table of every row until then).
const selectorServerStartToDoneAllocCeiling = 95

// selectorServerStartToDoneByteCeiling bounds the same op's heap bytes
// about 4 % over the 17.5 KB it measures today (24.6 KB while every
// served view allocated its marker rows and each pipeline its own
// feature vector; 37.0 KB while every pipeline kept a table of every
// row until its last crossing): marker rows or a feature vector
// allocated per run again read over.
const selectorServerStartToDoneByteCeiling = 18_200

// TestSelectorServerStartToDoneAllocBudget gates the served path before
// a pick settles. A fixed estimator settles every pipeline at its start,
// so TestServerStartToDoneAllocBudget never sees what an open pick
// keeps; a selector's pipelines keep it until their last marker
// crossing.
func TestSelectorServerStartToDoneAllocBudget(t *testing.T) {
	f := newServerFixture(t, MonitorOptions{Selector: trainedSelector(t)})
	avg, bytes := serverCost(t, f.query)
	if avg > selectorServerStartToDoneAllocCeiling {
		t.Fatalf("selector-served query through the server: %v allocs, ceiling %d", avg, selectorServerStartToDoneAllocCeiling)
	}
	if bytes > selectorServerStartToDoneByteCeiling {
		t.Fatalf("selector-served query through the server: %.0f bytes, ceiling %d", bytes, selectorServerStartToDoneByteCeiling)
	}
	t.Logf("selector-served query through the server: %v allocs (ceiling %d), %.0f bytes (ceiling %d)",
		avg, selectorServerStartToDoneAllocCeiling, bytes, selectorServerStartToDoneByteCeiling)
}

// sessionStartToDoneAllocCeiling bounds one session through ServeHTTP —
// open, every observation batch of the fixture's query, the last one
// done, one progress read — about 15 % over the 236 allocations it
// measures today (241 while every session allocated its view; 245 while
// every session grew its own delivery window; 249 while every session
// allocated its snapshot history).
const sessionStartToDoneAllocCeiling = 271

// sessionStartToDoneByteCeiling bounds the same session's heap bytes
// about 4 % over the 42.4 KB it measures today (43.3 KB while every
// session allocated its view; 44.4 KB while every session grew its own
// delivery window; 85.9 KB while every session allocated its row chunks
// and trace headers).
const sessionStartToDoneByteCeiling = 44_100

// TestSessionStartToDoneAllocBudget gates a whole session the way
// TestObserveAllocBudget gates one of its batches: a completed session
// hands its history and view memory back, and an open one borrows them
// at open.
func TestSessionStartToDoneAllocBudget(t *testing.T) {
	f := newServerFixture(t, MonitorOptions{})
	avg, bytes := serverCost(t, f.session)
	if avg > sessionStartToDoneAllocCeiling {
		t.Fatalf("session open-to-done: %v allocs, ceiling %d", avg, sessionStartToDoneAllocCeiling)
	}
	if bytes > sessionStartToDoneByteCeiling {
		t.Fatalf("session open-to-done: %.0f bytes, ceiling %d", bytes, sessionStartToDoneByteCeiling)
	}
	t.Logf("session open-to-done: %v allocs (ceiling %d), %.0f bytes (ceiling %d)",
		avg, sessionStartToDoneAllocCeiling, bytes, sessionStartToDoneByteCeiling)
}
