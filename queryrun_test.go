package progressest

import (
	"math"
	"sync"
	"testing"
)

// TestSharedRunConcurrentReads (run under -race in CI): Wait hands every
// caller the same QueryRun, so its readers must write nothing past the
// one materialization of the rows the served view deferred, which the
// first of them runs. Goroutines read one run's series, errors, features
// and whole-query series at once; each reads what a single reader does —
// for a fixed estimator, whose pipelines settle at their start, and for a
// trained selector, whose pipelines settle at the last marker crossing.
func TestSharedRunConcurrentReads(t *testing.T) {
	w, err := Open(Config{Dataset: TPCH, Queries: 2, Scale: 0.08, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	want := runFingerprint(ref)
	for name, opts := range map[string]MonitorOptions{
		"fixed":    {},
		"selector": {Selector: trainedSelector(t)},
	} {
		t.Run(name, func(t *testing.T) {
			m, err := w.Start(0, opts)
			if err != nil {
				t.Fatal(err)
			}
			for range m.Updates {
			}
			const readers = 4
			got := make([][][]float64, readers)
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					run, err := m.Wait()
					if err != nil {
						t.Error(err)
						return
					}
					fp := runFingerprint(run)
					for _, e := range AllEstimators() {
						l1, l2 := run.QueryErrors(e)
						fp = append(fp, run.QueryEstimates(e), []float64{l1, l2})
					}
					for p := 0; p < run.NumPipelines(); p++ {
						fp = append(fp, []float64{run.PipelineWeight(p)})
					}
					got[g] = fp
				}()
			}
			wg.Wait()
			for g, fp := range got {
				if len(fp) < len(want) {
					t.Fatalf("reader %d read %d series, want at least %d", g, len(fp), len(want))
				}
				for i := range want {
					if !sameSeries(fp[i], want[i]) {
						t.Fatalf("reader %d series %d differs from a single reader's", g, i)
					}
				}
			}
		})
	}
}

// TestEstimatesReturnsCopy: a caller owns the slice Estimates returns.
// Overwriting it moves neither a later Estimates nor Errors.
func TestEstimatesReturnsCopy(t *testing.T) {
	w, err := Open(Config{Dataset: TPCH, Queries: 2, Scale: 0.08, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	run, err := w.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for p := 0; p < run.NumPipelines(); p++ {
		if run.Observations(p) == 0 {
			continue
		}
		for _, e := range []Estimator{DNE, OracleBytes} {
			before := append([]float64(nil), run.Estimates(p, e)...)
			l1, l2 := run.Errors(p, e)
			est := run.Estimates(p, e)
			for i := range est {
				est[i] = -1
			}
			if again := run.Estimates(p, e); !sameSeries(again, before) {
				t.Fatalf("pipeline %d %v: overwriting the returned series changed a later Estimates", p, e)
			}
			if a1, a2 := run.Errors(p, e); a1 != l1 || a2 != l2 {
				t.Fatalf("pipeline %d %v: errors %v/%v after overwriting the series, %v/%v before", p, e, a1, a2, l1, l2)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no pipeline has observations")
	}
}

// sameSeries reports whether two series agree bit for bit.
func sameSeries(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
