package progress_test

import (
	"testing"

	"progressest/internal/datagen"
	"progressest/internal/exec"
	"progressest/internal/features"
	"progressest/internal/pipeline"
	"progressest/internal/progress"
	"progressest/internal/workload"
)

// runOnline executes query qi of the workload with a streaming OnlineView
// attached and returns both the view and the finished trace.
func runOnline(t *testing.T, w *workload.Workload, qi int, opts exec.Options) (*progress.OnlineView, *exec.Trace) {
	t.Helper()
	pl, err := w.Planner.Plan(w.Queries[qi])
	if err != nil {
		t.Fatalf("plan query %d: %v", qi, err)
	}
	ov := progress.NewOnlineView(pl, pipeline.Decompose(pl))
	opts.Observer = ov
	tr := exec.Run(w.DB, pl, opts)
	if !ov.Done() {
		t.Fatalf("query %d: OnDone never fired", qi)
	}
	return ov, tr
}

// TestOnlineMatchesOfflineAllKinds is the equivalence proof of the one
// estimator implementation: for several queries across all four dataset
// families, the series the OnlineView accumulated incrementally while
// the query ran are identical — bit for bit — to the test-side reference
// that evaluates every estimator snapshot by snapshot from the finished
// trace, the oracle models included.
func TestOnlineMatchesOfflineAllKinds(t *testing.T) {
	kinds := []datagen.DatasetKind{
		datagen.TPCHLike, datagen.TPCDSLike, datagen.Real1Like, datagen.Real2Like,
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			w, err := workload.Build(workload.Spec{
				Name: kind.String(), Kind: kind, Queries: 6, Scale: 0.08, Zipf: 1, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			for qi := range w.Queries {
				ov, tr := runOnline(t, w, qi, exec.Options{})
				assertOnlineEqualsReference(t, ov, tr, qi)
			}
		})
	}
}

// TestOnlineMatchesOfflineUnderThinning forces aggressive trace thinning
// so the OnlineView's history rebuild (dropping even ordinals and
// recomputing the fan-out bound of PMAX/SAFE) is exercised.
func TestOnlineMatchesOfflineUnderThinning(t *testing.T) {
	w, err := workload.Build(workload.Spec{
		Name: "tpch", Kind: datagen.TPCHLike, Queries: 4, Scale: 0.08, Zipf: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range w.Queries {
		ov, tr := runOnline(t, w, qi, exec.Options{TargetObservations: 900, MaxObservations: 64})
		if len(tr.Snapshots) > 64+1 {
			t.Fatalf("query %d: thinning did not bound snapshots: %d", qi, len(tr.Snapshots))
		}
		assertOnlineEqualsReference(t, ov, tr, qi)
	}
}

func assertOnlineEqualsReference(t *testing.T, ov *progress.OnlineView, tr *exec.Trace, qi int) {
	t.Helper()
	for p := range tr.Pipes.Pipelines {
		ref := progress.NewReferencePipeline(tr, p)
		op := ov.Pipelines[p]
		if op.NumObs() != ref.NumObs() {
			t.Fatalf("query %d pipeline %d: online %d obs, reference %d obs",
				qi, p, op.NumObs(), ref.NumObs())
		}
		for _, kind := range progress.AllKinds() {
			want := ref.Series(kind)
			got := ov.AppendSeries(nil, p, kind)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("query %d pipeline %d %v obs %d: online %v != reference %v",
						qi, p, kind, i, got[i], want[i])
				}
			}
		}
		// What the dynamic features read besides the series.
		truth := ov.AppendTrueSeries(nil, p)
		rows := op.Rows()
		for i, want := range ref.TrueSeries() {
			if rows.DriverFraction(i) != ref.DriverFraction(i) || rows.TimeSinceStart(i) != ref.TimeSinceStart(i) || truth[i] != want {
				t.Fatalf("query %d pipeline %d obs %d: driver fraction, elapsed time or truth diverges", qi, p, i)
			}
		}
		// The static context the online view froze at pipeline start must
		// agree with what the reference derives from the finished trace.
		ctx := ov.Context(p)
		if ctx.DriverKnown != ref.DriverKnown {
			t.Fatalf("query %d pipeline %d: DriverKnown online %v reference %v",
				qi, p, ctx.DriverKnown, ref.DriverKnown)
		}
		for id := range ref.E0 {
			if ctx.E0[id] != ref.E0[id] || ctx.UB[id] != ref.UB[id] {
				t.Fatalf("query %d pipeline %d node %d: context diverges", qi, p, id)
			}
		}
	}
}

// TestOnlineBatchedDeliveryMatches checks the zero-alloc hot path's
// delivery conflation: an OnlineView fed through batched OnSnapshots
// calls (exec.Options.SnapshotBatch) accumulates bit-identical series —
// and an identical trace — to one fed snapshot by snapshot, across every
// dataset family and under forced thinning.
func TestOnlineBatchedDeliveryMatches(t *testing.T) {
	kinds := []datagen.DatasetKind{
		datagen.TPCHLike, datagen.TPCDSLike, datagen.Real1Like, datagen.Real2Like,
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			w, err := workload.Build(workload.Spec{
				Name: kind.String(), Kind: kind, Queries: 6, Scale: 0.08, Zipf: 1, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			for qi := range w.Queries {
				for _, opts := range []exec.Options{
					{SnapshotBatch: 8},
					{SnapshotBatch: 8, TargetObservations: 900, MaxObservations: 64}, // thinning
				} {
					plain, trPlain := runOnline(t, w, qi, exec.Options{
						TargetObservations: opts.TargetObservations,
						MaxObservations:    opts.MaxObservations,
					})
					batched, trBatch := runOnline(t, w, qi, opts)
					if len(trPlain.Snapshots) != len(trBatch.Snapshots) {
						t.Fatalf("query %d: trace lengths diverge: %d vs %d",
							qi, len(trPlain.Snapshots), len(trBatch.Snapshots))
					}
					for p := range trPlain.Pipes.Pipelines {
						a, b := plain.Pipelines[p], batched.Pipelines[p]
						if a.NumObs() != b.NumObs() {
							t.Fatalf("query %d pipeline %d: %d obs unbatched, %d batched",
								qi, p, a.NumObs(), b.NumObs())
						}
						for _, k := range progress.Kinds() {
							sa, sb := a.Series(k), b.Series(k)
							for i := range sa {
								if sa[i] != sb[i] {
									t.Fatalf("query %d pipeline %d %v obs %d: unbatched %v != batched %v",
										qi, p, k, i, sa[i], sb[i])
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestOnlineFeaturesConvergeToOffline checks the feature split: the
// cached static prefix plus the dynamic suffix of the view that watched
// the run live equals the vector of the same trace replayed through a
// fresh view in one batch, whose inputs assertOnlineEqualsReference pins to
// the reference. Every pipeline of one view assembles its vector in the
// view's one buffer.
func TestOnlineFeaturesConvergeToOffline(t *testing.T) {
	w, err := workload.Build(workload.Spec{
		Name: "real1", Kind: datagen.Real1Like, Queries: 5, Scale: 0.1, Zipf: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checked, shared := 0, 0
	for qi := range w.Queries {
		ov, tr := runOnline(t, w, qi, exec.Options{})
		replayed := progress.Replay(tr)
		assertOnlineEqualsReference(t, replayed, tr, qi)
		var buf *float64
		for p, rp := range replayed.Pipelines {
			if rp.NumObs() < 8 {
				continue
			}
			want := append(features.Static(rp.PipeContext), features.Dynamic(rp)...)
			online := features.OnlineFull(ov.Pipelines[p])
			switch {
			case buf == nil:
				buf = &online[0]
			case buf != &online[0]:
				t.Fatalf("query %d pipeline %d: the features of one view are assembled in more than one buffer", qi, p)
			default:
				shared++
			}
			if len(online) != len(want) {
				t.Fatalf("feature width: online %d replayed %d", len(online), len(want))
			}
			for i := range want {
				if online[i] != want[i] {
					t.Fatalf("query %d pipeline %d feature %d (%s): online %v != replayed %v",
						qi, p, i, features.Names()[i], online[i], want[i])
				}
			}
			checked++
		}
	}
	if checked == 0 || shared == 0 {
		t.Fatalf("%d pipelines checked, %d of them after another of the same view", checked, shared)
	}
}

// TestOnlineQueryEstimate sanity-checks the live eq. 5 combination: it
// reads 1 once the run is done, the value of the final update.
func TestOnlineQueryEstimate(t *testing.T) {
	w, err := workload.Build(workload.Spec{
		Name: "tpch", Kind: datagen.TPCHLike, Queries: 2, Scale: 0.08, Zipf: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ov, _ := runOnline(t, w, 0, exec.Options{})
	q := ov.QueryEstimate(func(int) progress.Kind { return progress.DNE })
	if q != 1 {
		t.Errorf("completed query estimate %v, want 1", q)
	}
}
