package progressest

import (
	"testing"

	"progressest/internal/exec"
	"progressest/internal/progress"
	"progressest/internal/selection"
)

// servedStream executes query qi synchronously under a monitor set up the
// way Start does — the plan entry, batched delivery, finish — and returns
// the exact update stream (the deliver hook bypasses conflation; the
// final Done update included) and the QueryRun Wait hands back.
func servedStream(t *testing.T, w *Workload, qi int, opts MonitorOptions, execOpts exec.Options) ([]ProgressUpdate, *QueryRun) {
	t.Helper()
	pq, err := w.planned(qi)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMonitor(pq.plan, pq.pipes, pq.starts, w.inner.Spec.Name, w.inner.QueryFamily(qi), qi, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got []ProgressUpdate
	m.obs.deliver = func(u ProgressUpdate) {
		u.Pipelines = append([]PipelineProgress(nil), u.Pipelines...)
		got = append(got, u)
	}
	execOpts.Observer, execOpts.SnapshotBatch = m.obs, m.obs.every
	m.finish(exec.RunDecomposed(w.inner.DB, pq.plan, pq.pipes, execOpts), nil)
	run, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return got, run
}

// TestFinishedQuerySeriesIsServed pins the one eq. 5: the whole-query
// series a finished QueryRun reports is the one its monitor served. Every
// non-Done update's Query equals, bit for bit, the series element at the
// retained snapshot of the same time, and the Done update equals the last
// element, 1 — for fixed estimators on every query of the four dataset
// families, per-snapshot and batched, with and without thinning.
//
// Two served values have no element to match. An update whose snapshot
// a later thin dropped is not in the finished trace. And the final
// snapshot is served twice when the update cadence lands on it — as a
// tick, then as the Done update — and the series holds the Done value.
func TestFinishedQuerySeriesIsServed(t *testing.T) {
	for _, ds := range []Dataset{TPCH, TPCDS, Real1, Real2} {
		t.Run(ds.String(), func(t *testing.T) {
			w, err := Open(Config{Dataset: ds, Queries: 16, Scale: 0.08, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			checked, total := 0, 0
			for qi := 0; qi < w.NumQueries(); qi++ {
				for _, e := range []Estimator{DNE, TGN, LUO} {
					for _, every := range []int{1, 8} {
						for _, execOpts := range []exec.Options{
							{},
							{TargetObservations: 900, MaxObservations: 64}, // forces thinning
						} {
							updates, run := servedStream(t, w, qi, MonitorOptions{Estimator: e, UpdateEvery: every}, execOpts)
							series := run.QueryEstimates(e)
							snaps := run.view.Trace.Snapshots
							if len(series) != len(snaps) {
								t.Fatalf("query %d %v: %d query estimates over %d snapshots", qi, e, len(series), len(snaps))
							}
							at := make(map[float64]int, len(snaps))
							for g := range snaps {
								at[snaps[g].Time] = g
							}
							last := len(series) - 1
							for _, u := range updates {
								total++
								if u.Done {
									if u.Query != 1 || series[last] != 1 {
										t.Fatalf("query %d %v: Done update %v, series ends at %v; want 1", qi, e, u.Query, series[last])
									}
									continue
								}
								g, ok := at[u.Time]
								if !ok || g == last {
									continue
								}
								if u.Query != series[g] {
									t.Fatalf("query %d %v every %d %+v: served %v at t=%v, finished series %v at snapshot %d",
										qi, e, every, execOpts, u.Query, u.Time, series[g], g)
								}
								checked++
							}
						}
					}
				}
			}
			if checked == 0 {
				t.Fatal("no served update checked")
			}
			t.Logf("checked %d of %d", checked, total)
		})
	}
}

// TestServedPicksAreReplayedPicks pins the one pick policy: a finished
// trace replayed through a fresh view under selection.Policy — what the
// online experiment scores — picks, snapshot by snapshot, exactly the
// estimators a selector-served monitor with UpdateEvery 1 delivered.
func TestServedPicksAreReplayedPicks(t *testing.T) {
	sel := trainedSelector(t)
	for _, ds := range []Dataset{TPCH, TPCDS, Real1, Real2} {
		t.Run(ds.String(), func(t *testing.T) {
			w, err := Open(Config{Dataset: ds, Queries: 16, Scale: 0.08, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for qi := 0; qi < w.NumQueries(); qi++ {
				updates, run := servedStream(t, w, qi, MonitorOptions{Selector: sel, UpdateEvery: 1}, exec.Options{})
				tr := run.view.Trace
				if len(updates) != len(tr.Snapshots)+1 {
					// A thin dropped served snapshots: the replay sees only
					// the retained history, which the picks before the
					// thin were not made on.
					continue
				}
				pol := selection.NewPolicy(sel.inner, run.NumPipelines(), DNE)
				g := 0
				pol.Replay(tr, func(*progress.OnlineView) {
					for p, pp := range updates[g].Pipelines {
						if got := pol.Choice(p).String(); got != pp.EstimatorName {
							t.Fatalf("query %d snapshot %d pipeline %d: replay picked %s, monitor served %s",
								qi, g, p, got, pp.EstimatorName)
						}
					}
					g++
				})
				checked += g
			}
			if checked == 0 {
				t.Fatal("no snapshot checked")
			}
		})
	}
}
