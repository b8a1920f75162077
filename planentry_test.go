package progressest

import (
	"reflect"
	"sync"
	"testing"

	"progressest/internal/exec"
	"progressest/internal/features"
	"progressest/internal/progress"
)

// trainedSelector fits a small selector on a TPCH workload's harvest.
func trainedSelector(tb testing.TB) *Selector {
	tb.Helper()
	tw, err := Open(Config{Dataset: TPCH, Queries: 4, Scale: 0.08, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	examples, err := tw.Harvest()
	if err != nil {
		tb.Fatal(err)
	}
	sel, err := TrainSelector(examples, SelectorConfig{Trees: 24})
	if err != nil {
		tb.Fatal(err)
	}
	return sel
}

// TestPlanEntryIsInvisible: the start contexts and static feature
// prefixes cached on a plan entry change no update. Per query, the first
// runs fill the entry — the first nil-selector run its contexts, the
// first selector run its static prefixes — and every later run is served
// from it; each stream equals, bit for bit, the one a freshly opened
// Workload delivers with every context built privately. All four dataset
// families, a fixed estimator and a trained selector, with and without
// thinning.
func TestPlanEntryIsInvisible(t *testing.T) {
	sel := trainedSelector(t)
	for _, ds := range []Dataset{TPCH, TPCDS, Real1, Real2} {
		t.Run(ds.String(), func(t *testing.T) {
			cfg := Config{Dataset: ds, Queries: 4, Scale: 0.08, Seed: 7}
			w, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for qi := 0; qi < w.NumQueries(); qi++ {
				for _, s := range []*Selector{nil, sel} {
					for _, execOpts := range []exec.Options{
						{},
						{TargetObservations: 900, MaxObservations: 64}, // forces thinning
					} {
						want, _, err := entryStream(fresh, qi, s, true, execOpts)
						if err != nil {
							t.Fatal(err)
						}
						var views [2]*progress.OnlineView
						for run := range views {
							got, view, err := entryStream(w, qi, s, false, execOpts)
							if err != nil {
								t.Fatal(err)
							}
							assertSameUpdates(t, qi, want, got)
							views[run] = view
						}
						for pi, p := range views[1].Pipelines {
							if !p.Started {
								continue
							}
							first := views[0].Pipelines[pi]
							if p.PipeContext != first.PipeContext {
								t.Fatalf("query %d pipeline %d: a later run built its own context", qi, pi)
							}
							if s != nil && &features.OnlineStatic(p)[0] != &features.OnlineStatic(first)[0] {
								t.Fatalf("query %d pipeline %d: a later run built its own static prefix", qi, pi)
							}
						}
					}
				}
			}
		})
	}
}

// TestPlanEntryColdStartRace (run under -race in CI): runs of a query
// nobody has run yet race to fill its plan entry's start contexts and
// static prefixes — half through Start, half synchronously with their
// exact streams captured. Every captured stream equals the stream of a
// run that builds its contexts privately.
func TestPlanEntryColdStartRace(t *testing.T) {
	sel := trainedSelector(t)
	w, err := Open(Config{Dataset: TPCH, Queries: 4, Scale: 0.08, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < w.NumQueries(); qi++ {
		want, _, err := entryStream(w, qi, sel, true, exec.Options{}) // leaves the entry cold
		if err != nil {
			t.Fatal(err)
		}
		const racers = 8
		got := make([][]ProgressUpdate, racers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if g%2 == 0 {
					m, err := w.Start(qi, MonitorOptions{Selector: sel, UpdateEvery: 4})
					if err != nil {
						t.Error(err)
						return
					}
					for range m.Updates {
					}
					if _, err := m.Wait(); err != nil {
						t.Error(err)
					}
					return
				}
				var err error
				if got[g], _, err = entryStream(w, qi, sel, false, exec.Options{}); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		for g := 1; g < racers; g += 2 {
			if !reflect.DeepEqual(got[g], want) {
				t.Fatalf("query %d: racer %d's update stream differs from a private run's", qi, g)
			}
		}
	}
}
