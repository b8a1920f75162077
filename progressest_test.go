package progressest_test

import (
	"path/filepath"
	"testing"

	"progressest"
)

func openSmall(t *testing.T, ds progressest.Dataset) *progressest.Workload {
	t.Helper()
	w, err := progressest.Open(progressest.Config{
		Dataset: ds, Queries: 10, Scale: 0.08, Design: progressest.PartiallyTuned, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestOpenAndRun(t *testing.T) {
	w := openSmall(t, progressest.TPCH)
	if w.NumQueries() != 10 {
		t.Fatalf("NumQueries = %d", w.NumQueries())
	}
	if w.QueryText(0) == "" {
		t.Error("empty query text")
	}
	// Out of range, QueryText answers "" as QueryFamily does.
	for _, i := range []int{-1, w.NumQueries()} {
		if text, fam := w.QueryText(i), w.QueryFamily(i); text != "" || fam != "" {
			t.Errorf("query %d out of range: text %q, family %q", i, text, fam)
		}
	}
	run, err := w.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if run.NumPipelines() == 0 {
		t.Fatal("no pipelines")
	}
	if run.PlanText() == "" {
		t.Error("empty plan text")
	}
	for p := 0; p < run.NumPipelines(); p++ {
		if run.Observations(p) == 0 {
			continue
		}
		truth := run.TrueProgress(p)
		est := run.Estimates(p, progressest.DNE)
		if len(truth) != len(est) {
			t.Fatalf("pipeline %d: series misaligned", p)
		}
		l1, l2 := run.Errors(p, progressest.TGN)
		if l1 < 0 || l2 < l1-1e-9 {
			t.Errorf("pipeline %d: bad errors %v/%v", p, l1, l2)
		}
		if len(run.Features(p)) != len(progressest.FeatureNames()) {
			t.Error("feature vector length mismatch")
		}
	}
	if _, err := w.Run(99); err == nil {
		t.Error("out-of-range query index should error")
	}
}

func TestHarvestTrainPickRoundTrip(t *testing.T) {
	w := openSmall(t, progressest.TPCH)
	examples, err := w.Harvest()
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) == 0 {
		t.Fatal("no examples harvested")
	}
	sel, err := progressest.TrainSelector(examples, progressest.SelectorConfig{Trees: 40})
	if err != nil {
		t.Fatal(err)
	}
	pick := sel.Pick(examples[0].Features)
	inSet := false
	for _, c := range progressest.AllEstimators() {
		if c == pick {
			inSet = true
		}
	}
	if !inSet {
		t.Fatalf("picked estimator %v not a candidate", pick)
	}
	preds := sel.PredictedErrors(examples[0].Features)
	if len(preds) != len(progressest.AllEstimators()) {
		t.Fatalf("PredictedErrors returned %d entries", len(preds))
	}

	path := filepath.Join(t.TempDir(), "sel.json")
	if err := sel.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := progressest.LoadSelector(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Pick(examples[0].Features) != pick {
		t.Error("loaded selector disagrees")
	}

	ev := progressest.EvaluateSelector(sel, examples)
	if ev.N != len(examples) || ev.AvgL1 < ev.OracleL1-1e-12 {
		t.Errorf("bad evaluation %+v", ev)
	}
	fixed := progressest.EvaluateFixed(progressest.DNE, progressest.CoreEstimators(), examples)
	if fixed.N != len(examples) {
		t.Error("fixed evaluation dropped examples")
	}
}

func TestQueryLevelProgress(t *testing.T) {
	w := openSmall(t, progressest.TPCH)
	run, err := w.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	var wsum float64
	for p := 0; p < run.NumPipelines(); p++ {
		wsum += run.PipelineWeight(p)
	}
	if wsum < 0.999 || wsum > 1.001 {
		t.Errorf("pipeline weights sum to %v", wsum)
	}
	truth := run.QueryTrueProgress()
	est := run.QueryEstimates(progressest.DNE)
	if len(truth) != len(est) || len(truth) == 0 {
		t.Fatal("query-level series misaligned")
	}
	for i := 1; i < len(truth); i++ {
		if truth[i] < truth[i-1] {
			t.Fatal("true query progress not monotone")
		}
	}
	if truth[len(truth)-1] < 0.999 {
		t.Errorf("final true progress %v", truth[len(truth)-1])
	}
	for _, v := range est {
		if v < 0 || v > 1 {
			t.Fatalf("query estimate %v out of range", v)
		}
	}
	l1, l2 := run.QueryErrors(progressest.OracleGetNext)
	if l1 < 0 || l2 < l1-1e-9 {
		t.Errorf("bad query-level errors %v/%v", l1, l2)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := progressest.Open(progressest.Config{Zipf: -1}); err == nil {
		t.Error("negative Zipf should error")
	}
}

func TestAllDatasetsOpen(t *testing.T) {
	for _, ds := range []progressest.Dataset{
		progressest.TPCH, progressest.TPCDS, progressest.Real1, progressest.Real2,
	} {
		w := openSmall(t, ds)
		run, err := w.Run(0)
		if err != nil {
			t.Fatalf("%v: %v", ds, err)
		}
		if run.NumPipelines() == 0 {
			t.Errorf("%v: no pipelines", ds)
		}
	}
}
