package selection_test

import (
	"testing"

	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/exec"
	"progressest/internal/mart"
	"progressest/internal/progress"
	"progressest/internal/selection"
	"progressest/internal/workload"
)

// monitored is one pipeline of a finished, replayed run.
type monitored struct {
	view *progress.OnlineView
	p    int
}

func (v monitored) pipe() *progress.OnlinePipeline { return v.view.Pipelines[v.p] }

// monitor runs the pipeline through m.
func (v monitored) monitor(m *selection.OnlineMonitor) selection.OnlineResult {
	return m.Monitor(v.pipe(), v.view.AppendTrueSeries(nil, v.p))
}

// onlineFixture trains static+dynamic selectors on the shared pool and
// returns the pipelines of a freshly executed workload.
func onlineFixture(t *testing.T) (*selection.OnlineMonitor, []monitored) {
	t.Helper()
	ex := pool(t)
	static, err := selection.Train(ex, selection.Config{
		Kinds: progress.ExtendedKinds(), Dynamic: false, Mart: fastOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := selection.Train(ex, selection.Config{
		Kinds: progress.ExtendedKinds(), Dynamic: true, Mart: fastOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}

	w, err := workload.Build(workload.Spec{
		Name: "online-test", Kind: datagen.TPCHLike, Queries: 10,
		Scale: 0.08, Zipf: 1, Design: catalog.PartiallyTuned, Seed: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	var views []monitored
	for _, q := range w.Queries {
		pl, err := w.Planner.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		view := progress.Replay(exec.Run(w.DB, pl, exec.Options{}))
		for p, v := range view.Pipelines {
			if v.NumObs() >= 8 {
				views = append(views, monitored{view, p})
			}
		}
	}
	if len(views) == 0 {
		t.Fatal("no pipelines to monitor")
	}
	return &selection.OnlineMonitor{Static: static, Dynamic: dynamic}, views
}

func TestOnlineMonitorCompositeSeries(t *testing.T) {
	m, views := onlineFixture(t)
	for _, v := range views {
		out := v.monitor(m)
		if n := v.pipe().NumObs(); len(out.Series) != n {
			t.Fatalf("composite series length %d, want %d", len(out.Series), n)
		}
		for i, val := range out.Series {
			if val < 0 || val > 1 {
				t.Fatalf("composite progress %v at obs %d", val, i)
			}
		}
		// Before the revision point the composite equals the initial
		// estimator's series; after, the revised one's.
		initial := v.pipe().Series(out.Initial)
		revised := v.pipe().Series(out.Revised)
		for i := range out.Series {
			want := initial[i]
			if out.RevisedAt >= 0 && i >= out.RevisedAt {
				want = revised[i]
			}
			if out.Series[i] != want {
				t.Fatalf("composite diverges from expected splice at obs %d", i)
			}
		}
		if out.Err.L1 < 0 || out.Err.L2 < out.Err.L1-1e-9 {
			t.Fatalf("bad composite error stats %+v", out.Err)
		}
	}
}

func TestOnlineMonitorWithoutDynamicNeverRevises(t *testing.T) {
	m, views := onlineFixture(t)
	m.Dynamic = nil
	for _, v := range views {
		out := v.monitor(m)
		if out.Revised != out.Initial || out.RevisedAt != -1 {
			t.Fatal("monitor without a dynamic model must not revise")
		}
		// Composite must then be exactly the initial estimator's error.
		if want := v.view.Errors(v.p, out.Initial).L1; out.Err.L1 != want {
			t.Fatalf("composite L1 %v != initial estimator's %v", out.Err.L1, want)
		}
	}
}

func TestOnlineMonitorCustomMarker(t *testing.T) {
	m, views := onlineFixture(t)
	m.ReviseAtDriverFraction = 0.05
	early := 0
	for _, v := range views {
		out := v.monitor(m)
		if out.RevisedAt >= 0 {
			early++
			// The 5% marker must be no later than the 20% marker.
			m20 := 0
			for m20 < v.pipe().NumObs() && v.pipe().DriverFraction(m20) < 0.20 {
				m20++
			}
			if m20 < v.pipe().NumObs() && out.RevisedAt > m20 {
				t.Fatalf("5%% revision at obs %d after 20%% marker %d", out.RevisedAt, m20)
			}
		}
	}
	if early == 0 {
		t.Error("no pipeline reached the 5% marker")
	}
}

func BenchmarkOnlineMonitor(b *testing.B) {
	ex := examplePool
	if ex == nil {
		b.Skip("pool not built (run tests first)")
	}
	static, err := selection.Train(ex, selection.Config{Dynamic: false, Mart: mart.Options{Trees: 40, Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	dynamic, err := selection.Train(ex, selection.Config{Dynamic: true, Mart: mart.Options{Trees: 40, Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	m := &selection.OnlineMonitor{Static: static, Dynamic: dynamic}

	w, err := workload.Build(workload.Spec{
		Name: "bench", Kind: datagen.TPCHLike, Queries: 1,
		Scale: 0.08, Zipf: 1, Design: catalog.PartiallyTuned, Seed: 501,
	})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := w.Planner.Plan(w.Queries[0])
	if err != nil {
		b.Fatal(err)
	}
	v := monitored{progress.Replay(exec.Run(w.DB, pl, exec.Options{})), 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.monitor(m)
	}
}
