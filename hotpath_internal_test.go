package progressest

import (
	"sync"
	"testing"

	"progressest/internal/exec"
)

// collectUpdates drives a monitorObserver through a synchronous execution
// of query qi, capturing the exact update stream through the deliver test
// hook (no conflation, no goroutine), in batched or per-snapshot delivery
// mode. The final Done update is included.
func collectUpdates(t testing.TB, w *Workload, qi int, sel *Selector, unbatched bool, execOpts exec.Options) []ProgressUpdate {
	t.Helper()
	const every = 4
	obs, pq := newTestObserver(t, w, qi, sel, every)
	var got []ProgressUpdate
	obs.deliver = func(u ProgressUpdate) {
		u.Pipelines = append([]PipelineProgress(nil), u.Pipelines...)
		got = append(got, u)
	}
	execOpts.Observer = obs
	if !unbatched {
		execOpts.SnapshotBatch = every
	}
	exec.RunDecomposed(w.inner.DB, pq.plan, pq.pipes, execOpts)
	obs.emit(true)
	return got
}

// newTestObserver builds query qi's monitorObserver through the shared
// set-up Start uses — the plan entry's cached start contexts included —
// without starting an executor. sel, when non-nil, picks the estimators.
func newTestObserver(t testing.TB, w *Workload, qi int, sel *Selector, every int) (*monitorObserver, *plannedQuery) {
	t.Helper()
	pq, err := w.planned(qi)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMonitor(pq.plan, pq.pipes, pq.starts, "", "", qi, MonitorOptions{Selector: sel, UpdateEvery: every}, false)
	if err != nil {
		t.Fatal(err)
	}
	return m.obs, pq
}

// TestBatchedMonitorMatchesUnbatched is the monitor-level equivalence
// proof of the batched hot path: across every dataset family — with a
// fixed estimator and with a trained selector re-picking at marker
// crossings, and under forced thinning — the delivered update stream is
// bit-identical between batched and per-snapshot delivery.
func TestBatchedMonitorMatchesUnbatched(t *testing.T) {
	sel := trainedSelector(t)
	for _, ds := range []Dataset{TPCH, TPCDS, Real1, Real2} {
		t.Run(ds.String(), func(t *testing.T) {
			w, err := Open(Config{Dataset: ds, Queries: 4, Scale: 0.08, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			for qi := 0; qi < w.NumQueries(); qi++ {
				for _, s := range []*Selector{nil, sel} {
					for _, execOpts := range []exec.Options{
						{},
						{TargetObservations: 900, MaxObservations: 64}, // forces thinning
					} {
						batched := collectUpdates(t, w, qi, s, false, execOpts)
						unbatched := collectUpdates(t, w, qi, s, true, execOpts)
						assertSameUpdates(t, qi, batched, unbatched)
					}
				}
			}
		})
	}
}

func assertSameUpdates(t *testing.T, qi int, a, b []ProgressUpdate) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("query %d: %d batched updates, %d unbatched", qi, len(a), len(b))
	}
	for i := range a {
		ua, ub := a[i], b[i]
		if ua.Seq != ub.Seq || ua.Time != ub.Time || ua.Query != ub.Query ||
			ua.Done != ub.Done || ua.TrueProgress != ub.TrueProgress {
			t.Fatalf("query %d update %d diverges:\nbatched   %+v\nunbatched %+v", qi, i, ua, ub)
		}
		if len(ua.Pipelines) != len(ub.Pipelines) {
			t.Fatalf("query %d update %d: pipeline counts diverge", qi, i)
		}
		for p := range ua.Pipelines {
			if ua.Pipelines[p] != ub.Pipelines[p] {
				t.Fatalf("query %d update %d: pipeline %d diverges:\nbatched   %+v\nunbatched %+v",
					qi, i, p, ua.Pipelines[p], ub.Pipelines[p])
			}
		}
	}
}

// TestPlanCacheReusesPlans checks the per-workload plan table: repeated
// runs of one query share the cached plan and decomposition.
func TestPlanCacheReusesPlans(t *testing.T) {
	w, err := Open(Config{Dataset: TPCH, Queries: 2, Scale: 0.08, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pq1, err := w.planned(0)
	if err != nil {
		t.Fatal(err)
	}
	pq2, err := w.planned(0)
	if err != nil {
		t.Fatal(err)
	}
	if pq1 != pq2 || pq1.plan != pq2.plan || pq1.pipes != pq2.pipes {
		t.Fatal("second planning of the same query did not hit the cache")
	}
	if _, err := w.Run(0); err != nil {
		t.Fatal(err)
	}
	if pq3, _ := w.planned(0); pq3 != pq1 {
		t.Fatal("Run evicted or replaced the cached plan")
	}
}

// TestPlanTableColdRace (run under -race in CI): goroutines planning the
// same cold query concurrently — every engine shard shares the one table
// — all come back with the same entry, and neither Run nor Start ever
// replaces it.
func TestPlanTableColdRace(t *testing.T) {
	w, err := Open(Config{Dataset: TPCH, Queries: 4, Scale: 0.08, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < w.NumQueries(); qi++ {
		const planners = 8
		got := make([]*plannedQuery, planners)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				pq, err := w.planned(qi)
				if err != nil {
					t.Error(err)
				}
				got[g] = pq
			}()
		}
		close(start)
		wg.Wait()
		for g, pq := range got {
			if pq == nil || pq != got[0] {
				t.Fatalf("query %d: planner %d got entry %p, planner 0 got %p", qi, g, pq, got[0])
			}
		}
		if _, err := w.Run(qi); err != nil {
			t.Fatal(err)
		}
		m, err := w.Start(qi, MonitorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(); err != nil {
			t.Fatal(err)
		}
		if pq, _ := w.planned(qi); pq != got[0] {
			t.Fatalf("query %d: Run/Start replaced the published plan entry", qi)
		}
	}
}
