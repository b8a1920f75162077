package progressest

import (
	"crypto/sha256"
	"reflect"
	"testing"

	"progressest/internal/exec"
	"progressest/internal/features"
	"progressest/internal/mart"
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
	m, err := newMonitor(pq.plan, pq.pipes, pq.starts, w.inner.Spec.Name, w.inner.QueryFamily(qi), qi, opts, false)
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
					sel, err := FixedSelector(e)
					if err != nil {
						t.Fatal(err)
					}
					for _, every := range []int{1, 8} {
						for _, execOpts := range []exec.Options{
							{},
							{TargetObservations: 900, MaxObservations: 64}, // forces thinning
						} {
							updates, run := servedStream(t, w, qi, MonitorOptions{Selector: sel, UpdateEvery: every}, execOpts)
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
// estimators a selector-served monitor with UpdateEvery 1 delivered: for
// a trained selector, and for the one-candidate selectors that settle at
// start.
func TestServedPicksAreReplayedPicks(t *testing.T) {
	sels := oneCandidateSelectors(t)
	sels["trained"] = trainedSelector(t)
	for _, ds := range []Dataset{TPCH, TPCDS, Real1, Real2} {
		t.Run(ds.String(), func(t *testing.T) {
			for name, sel := range sels {
				t.Run(name, func(t *testing.T) { checkServedPicks(t, sel, ds) })
			}
		})
	}
}

func checkServedPicks(t *testing.T, sel *Selector, ds Dataset) {
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
		pol := selection.NewPolicy(sel.inner, run.NumPipelines())
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
}

// oneCandidateSelectors are the selectors with one candidate, DNE: the
// fixed one and one trained on DNE alone. Both settle every pipeline at
// its start.
func oneCandidateSelectors(tb testing.TB) map[string]*Selector {
	tb.Helper()
	fixed, err := FixedSelector(DNE)
	if err != nil {
		tb.Fatal(err)
	}
	tw, err := Open(Config{Dataset: TPCH, Queries: 4, Scale: 0.08, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	examples, err := tw.Harvest()
	if err != nil {
		tb.Fatal(err)
	}
	trained, err := TrainSelector(examples, SelectorConfig{Candidates: []Estimator{DNE}, Trees: 8})
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*Selector{"fixed": fixed, "trained-DNE": trained}
}

// repickingDNE is a two-candidate selector whose models always rank DNE
// first: it picks what the one-candidate selectors pick, but on the
// re-picking path — a pick at every start and marker crossing, settling
// only at the last marker.
func repickingDNE() *Selector {
	n := len(features.Names())
	return &Selector{inner: &selection.Selector{
		Kinds:   []Estimator{DNE, LUO},
		Dynamic: true,
		Models:  map[Estimator]*mart.Model{DNE: {NumFeature: n}, LUO: {Bias: 1, NumFeature: n}},
	}}
}

// TestOneCandidateSelectorsSettleLikeRepicking: a one-candidate selector
// settles its pipelines at start, without reading features, and serves
// exactly what the re-picking path serves — the update stream and every
// QueryRun output bit for bit, for every query of the four dataset kinds,
// delivered one and eight snapshots at a time, with and without thinning.
// The default options (no selector, no learning) serve the same stream.
func TestOneCandidateSelectorsSettleLikeRepicking(t *testing.T) {
	sels := oneCandidateSelectors(t)
	sels["default"] = nil
	ref := repickingDNE()
	digest := func(run *QueryRun) [2]string {
		pipes, query := sha256.New(), sha256.New()
		runDigest(pipes, query, run)
		return [2]string{string(pipes.Sum(nil)), string(query.Sum(nil))}
	}
	for _, ds := range []Dataset{TPCH, TPCDS, Real1, Real2} {
		w, err := Open(Config{Dataset: ds, Queries: 8, Scale: 0.08, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < w.NumQueries(); qi++ {
			for _, every := range []int{1, 8} {
				for _, execOpts := range []exec.Options{{}, {TargetObservations: 900, MaxObservations: 64}} {
					want, wantRun := servedStream(t, w, qi, MonitorOptions{Selector: ref, UpdateEvery: every}, execOpts)
					for name, sel := range sels {
						got, run := servedStream(t, w, qi, MonitorOptions{Selector: sel, UpdateEvery: every}, execOpts)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %s query %d every %d %+v: update stream differs from the re-picking path's", name, ds, qi, every, execOpts)
						}
						if digest(run) != digest(wantRun) {
							t.Fatalf("%s %s query %d every %d %+v: QueryRun differs from the re-picking path's", name, ds, qi, every, execOpts)
						}
					}
				}
			}
		}
	}
}
