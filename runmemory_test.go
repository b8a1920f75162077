package progressest

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"progressest/internal/exec"
	"progressest/internal/progress"
)

// TestWaitBuildsRunOnceForEveryCaller covers the finish/Wait split: the
// executing goroutine no longer builds the QueryRun nobody may ask for;
// the first Wait does, once, and every caller — concurrent ones included —
// gets that one run. An aborted run still yields its cause to every
// caller.
func TestWaitBuildsRunOnceForEveryCaller(t *testing.T) {
	w, err := Open(Config{Dataset: TPCH, Queries: 2, Scale: 0.08, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.Start(0, MonitorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for range m.Updates {
	}
	<-m.done
	if m.run != nil {
		t.Fatal("finish built the QueryRun before anyone waited")
	}
	runs := make([]*QueryRun, 2)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run, err := m.Wait()
			if err != nil {
				t.Error(err)
			}
			runs[i] = run
		}()
	}
	wg.Wait()
	if runs[0] == nil || runs[0] != runs[1] {
		t.Fatalf("concurrent Waits returned %p and %p, want one run", runs[0], runs[1])
	}
	if again, _ := m.Wait(); again != runs[0] {
		t.Fatal("a later Wait built a second run")
	}
	if runs[0].NumPipelines() == 0 || runs[0].Observations(0) == 0 {
		t.Fatal("the run Wait built has no replayable observations")
	}

	pq, err := w.planned(1)
	if err != nil {
		t.Fatal(err)
	}
	aborted, err := newMonitor(pq.plan, pq.pipes, pq.starts, "", "", 1, MonitorOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("aborted")
	aborted.finish(nil, cause)
	for i := 0; i < 2; i++ {
		if run, err := aborted.Wait(); run != nil || !errors.Is(err, cause) {
			t.Fatalf("Wait on an aborted run: (%v, %v), want (nil, %v)", run, err, cause)
		}
	}
}

// entryStream executes query qi synchronously under a monitor set up the
// way Start does — through the plan entry, UpdateEvery 4, batched
// delivery — returning the exact update stream (the deliver hook
// bypasses conflation) and the view that served it. With private set,
// the monitor ignores the entry's start contexts and builds its own.
// Unlike collectUpdates it reports errors instead of failing the test,
// so goroutines may call it.
func entryStream(w *Workload, qi int, sel *Selector, private bool, execOpts exec.Options) ([]ProgressUpdate, *progress.OnlineView, error) {
	pq, err := w.planned(qi)
	if err != nil {
		return nil, nil, err
	}
	starts := pq.starts
	if private {
		starts = nil
	}
	m, err := newMonitor(pq.plan, pq.pipes, starts, "", "", qi, MonitorOptions{Selector: sel, UpdateEvery: 4}, false)
	if err != nil {
		return nil, nil, err
	}
	var got []ProgressUpdate
	m.obs.deliver = func(u ProgressUpdate) {
		u.Pipelines = append([]PipelineProgress(nil), u.Pipelines...)
		got = append(got, u)
	}
	execOpts.Observer, execOpts.SnapshotBatch = m.obs, m.obs.every
	exec.RunDecomposed(w.inner.DB, pq.plan, pq.pipes, execOpts)
	m.obs.emit(true)
	return got, m.obs.view, nil
}

// runFingerprint reads everything a QueryRun replays.
func runFingerprint(run *QueryRun) [][]float64 {
	var out [][]float64
	for p := 0; p < run.NumPipelines(); p++ {
		for _, e := range AllEstimators() {
			l1, l2 := run.Errors(p, e)
			out = append(out, run.Estimates(p, e), []float64{l1, l2})
		}
		out = append(out, run.Features(p), run.TrueProgress(p))
	}
	return out
}

// TestRunsShareNoWorkingMemory pins the ownership rule the per-run
// memory rests on: a run's row arena, join tables, snapshot sink and
// observation tables belong to that run alone while it runs. (The
// executor's operator memory — row-arena chunks, join tables, key
// indexes — is recycled through a free list once the run's root is
// closed; recycling observation storage was measured and left out — see
// README, hot path.) A QueryRun reads the same series, errors and
// features after 200 later runs of other plans as before them; and the
// update streams of queries running concurrently — natively on eight
// goroutines while external sessions replay through the ingestion path —
// equal their sequential references update for update.
func TestRunsShareNoWorkingMemory(t *testing.T) {
	w, err := Open(Config{Dataset: TPCH, Queries: 8, Scale: 0.08, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	examples, err := w.Harvest()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := TrainSelector(examples, SelectorConfig{Trees: 12})
	if err != nil {
		t.Fatal(err)
	}

	first, err := w.Start(0, MonitorOptions{Selector: sel})
	if err != nil {
		t.Fatal(err)
	}
	for range first.Updates {
	}
	run, err := first.Wait()
	if err != nil {
		t.Fatal(err)
	}
	before := runFingerprint(run)
	for i := 0; i < 200; i++ {
		m, err := w.Start(1+i%(w.NumQueries()-1), MonitorOptions{Selector: sel})
		if err != nil {
			t.Fatal(err)
		}
		for range m.Updates {
		}
	}
	if !reflect.DeepEqual(before, runFingerprint(run)) {
		t.Fatal("a finished QueryRun reads differently after 200 later runs")
	}

	// Sequential references, then the same streams under concurrency.
	n := w.NumQueries()
	want := make([][]ProgressUpdate, n)
	traces := make([]*exec.Trace, n)
	for qi := range want {
		if want[qi], _, err = entryStream(w, qi, sel, false, exec.Options{}); err != nil {
			t.Fatal(err)
		}
		pq, err := w.planned(qi)
		if err != nil {
			t.Fatal(err)
		}
		traces[qi] = exec.RunDecomposed(w.inner.DB, pq.plan, pq.pipes, exec.Options{})
	}
	const goroutines, perGoroutine = 8, 50
	var wg sync.WaitGroup
	failed := make(chan int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				qi := (g + i) % n
				if got, _, err := entryStream(w, qi, sel, false, exec.Options{}); err != nil || !reflect.DeepEqual(got, want[qi]) {
					failed <- qi
					return
				}
			}
		}()
	}
	for round := 0; round < 3; round++ {
		for qi, tr := range traces {
			ingested, _ := ingestedUpdates(t, tr, sel, 4, 5)
			assertSameUpdates(t, qi, replayedUpdates(tr, sel, 4), ingested)
		}
	}
	wg.Wait()
	close(failed)
	for qi := range failed {
		t.Errorf("query %d: a concurrent run's update stream differs from its sequential reference", qi)
	}
}
