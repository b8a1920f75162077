// Benchmarks regenerating every table and figure of the paper's
// evaluation, one testing.B target per artifact, plus ablation and
// component benches for individual design choices. Each artifact
// benchmark runs the corresponding experiment end to end (workload
// execution, estimator series, model training where applicable) in the
// quick configuration; use `go run ./cmd/experiments -full` for the
// recorded full-size numbers.
package progressest_test

import (
	"math/rand"
	"testing"

	"progressest"
	"progressest/internal/experiments"
	"progressest/internal/feedback"
	"progressest/internal/mart"
	"progressest/internal/progress"
	"progressest/internal/selection"
)

// benchSuite returns a fresh suite per benchmark so that the measured
// iterations include the workload runs (the dominant cost in practice).
func benchSuite() *experiments.Suite {
	cfg := experiments.Quick()
	return experiments.NewSuite(cfg)
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite().Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite().Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite().Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite().Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite().Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite().Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Table6Figure5 regenerates the shared six-fold ad-hoc
// evaluation behind Figure 4, Table 6 and Figure 5.
func BenchmarkFigure4Table6Figure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		r, err := s.AdHoc()
		if err != nil {
			b.Fatal(err)
		}
		_ = r.Figure4String()
		_ = r.Table6String()
		_ = r.Figure5String()
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite().Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite().Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7 measures one representative cell of the training-time
// table (6K examples, M=200, full feature width); the experiment itself
// sweeps the whole grid.
func BenchmarkTable7(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nf := len(progressest.FeatureNames())
	X := make([][]float64, 6000)
	y := make([]float64, len(X))
	for i := range X {
		row := make([]float64, nf)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = row[0] * row[1]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mart.Train(X, y, mart.Options{Trees: 200, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite().Table8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeatureImportance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite().FeatureImportance(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelsValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite().Models(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation and component benches ---

// benchExamples harvests a small shared example pool.
func benchExamples(b *testing.B) []progressest.Example {
	b.Helper()
	w, err := progressest.Open(progressest.Config{
		Dataset: progressest.TPCH, Queries: 40, Scale: 0.1, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	ex, err := w.Harvest()
	if err != nil {
		b.Fatal(err)
	}
	return ex
}

// BenchmarkAblationRegressionVsClassifier compares the paper's
// error-regression setup with a multi-class classification baseline
// (Section 4.1) including training cost.
func BenchmarkAblationRegressionVsClassifier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite().Ablation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMARTvsRidge measures the training-cost side of the
// MART-vs-linear-model decision (Section 4.2).
func BenchmarkAblationMARTvsRidge(b *testing.B) {
	ex := benchExamples(b)
	X := make([][]float64, len(ex))
	y := make([]float64, len(ex))
	for i := range ex {
		X[i] = ex[i].Features
		y[i] = ex[i].ErrL1[progress.DNE]
	}
	b.Run("mart", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mart.Train(X, y, mart.Options{Trees: 100, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ridge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mart.TrainRidge(X, y, 1.0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationStaticVsDynamicFeatures measures selection quality and
// cost with and without the dynamic feature suffix (Section 4.4).
func BenchmarkAblationStaticVsDynamicFeatures(b *testing.B) {
	ex := benchExamples(b)
	for _, dynamic := range []bool{false, true} {
		name := "static"
		if dynamic {
			name = "dynamic"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := selection.Train(ex, selection.Config{
					Dynamic: dynamic, Mart: mart.Options{Trees: 60, Seed: 1},
				})
				if err != nil {
					b.Fatal(err)
				}
				ev := selection.Evaluate(s, ex)
				b.ReportMetric(ev.AvgL1, "avgL1")
			}
		})
	}
}

// BenchmarkHarvest times the training hot path: harvesting labelled
// examples from every query of a workload, fanned out across GOMAXPROCS
// workers (run with -cpu 1,4 for the wall-clock speedup; the examples are
// the same at any width).
func BenchmarkHarvest(b *testing.B) {
	w := harvestWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Harvest(); err != nil {
			b.Fatal(err)
		}
	}
}

// harvestWorkload is the TPC-H workload the harvest and replay
// benchmarks share.
func harvestWorkload(b *testing.B) *progressest.Workload {
	b.Helper()
	w, err := progressest.Open(progressest.Config{
		Dataset: progressest.TPCH, Queries: 24, Scale: 0.1, Seed: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkOnlineVsReplay compares the two ways a caller gets a finished
// query, both executing under the one streaming OnlineView: "online"
// serves it through a monitor (Start with intermediate updates
// suppressed, drain, Wait), "replay" runs it with Workload.Run and reads
// every estimator's per-pipeline errors off the finished view — the
// monitor's goroutine and update plumbing against the finished-run reads.
func BenchmarkOnlineVsReplay(b *testing.B) {
	w := harvestWorkload(b)
	b.Run("online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := w.Start(0, progressest.MonitorOptions{UpdateEvery: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			for range m.Updates {
			}
			if _, err := m.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run, err := w.Run(0)
			if err != nil {
				b.Fatal(err)
			}
			for p := 0; p < run.NumPipelines(); p++ {
				for _, e := range progressest.AllEstimators() {
					if l1, _ := run.Errors(p, e); l1 < 0 {
						b.Fatal("negative error")
					}
				}
			}
		}
	})
}

// BenchmarkSelectionOverhead measures the per-pipeline runtime cost of
// estimator selection itself (feature lookup + model evaluation), the
// "low overhead" claim of the paper's Section 6.4 discussion.
func BenchmarkSelectionOverhead(b *testing.B) {
	ex := benchExamples(b)
	s, err := selection.Train(ex, selection.Config{
		Dynamic: true, Mart: mart.Options{Trees: 200, Seed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Select(ex[i%len(ex)].Features)
	}
}

// BenchmarkEstimatorReplay measures reading every estimator's error on
// the longest pipeline of a finished run off its view — the selectable
// estimators' series as accumulated, the oracle models' computed from the
// trace's true totals — the per-pipeline cost of collecting a training
// label once the run is over ("the overhead for tracking multiple
// estimators is nearly identical to the overhead for computing a single
// one").
func BenchmarkEstimatorReplay(b *testing.B) {
	w, err := progressest.Open(progressest.Config{
		Dataset: progressest.TPCH, Queries: 1, Scale: 0.1, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	run, err := w.Run(0)
	if err != nil {
		b.Fatal(err)
	}
	pipe := 0
	for p := 0; p < run.NumPipelines(); p++ {
		if run.Observations(p) > run.Observations(pipe) {
			pipe = p
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Only the finished view is read; nothing re-executes.
		for _, e := range progressest.AllEstimators() {
			if l1, _ := run.Errors(pipe, e); l1 < 0 {
				b.Fatal("negative error")
			}
		}
	}
}

// BenchmarkDriftRecord measures the drift tracker's harvest-path cost:
// one windowed Record of a finished query's per-pipeline observed errors
// into the serving version's window. This runs synchronously on every
// query completion; CI records its ns/op and gates its steady-state 0
// allocs/op (the window is allocated on the version's first Record, made
// here before the timer starts).
func BenchmarkDriftRecord(b *testing.B) {
	reg := feedback.NewRegistry()
	tr := feedback.NewDriftTracker(reg, feedback.DriftConfig{})
	served := reg.Publish(nil, feedback.VersionMeta{HoldoutL1: 0.05, HoldoutN: 50})
	errs := []float64{0.04, 0.07, 0.05, 0.06}
	tr.Record(served, errs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Record(served, errs)
	}
}

// Ensure the suite configurations stay plausible: quick must stay small.
func TestBenchConfigsSane(t *testing.T) {
	q := experiments.Quick()
	if q.QueriesTPCH > 60 {
		t.Errorf("quick config too large: %+v", q)
	}
	f := experiments.Full()
	if f.QueriesTPCH <= q.QueriesTPCH || f.MartTrees != 200 {
		t.Errorf("full config should exceed quick: %+v", f)
	}
}
