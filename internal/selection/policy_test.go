package selection_test

import (
	"testing"

	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/exec"
	"progressest/internal/features"
	"progressest/internal/progress"
	"progressest/internal/selection"
	"progressest/internal/workload"
)

// served is one pipeline of a run replayed under a policy: its first pick
// and the pick in force at each of its observations.
type served struct {
	view  *progress.OnlineView
	p     int
	first progress.Kind
	picks []progress.Kind
}

func (v served) pipe() *progress.OnlinePipeline { return v.view.Pipelines[v.p] }

// series is the per-pipeline progress the policy served.
func (v served) series() []float64 {
	out := make([]float64, len(v.picks))
	rows := v.pipe().Rows()
	for i, k := range v.picks {
		out[i] = rows.EstimateAt(k, i)
	}
	return out
}

// errors is the served series' error against true pipeline progress.
func (v served) errors() progress.ErrorStats {
	dev := v.series()
	for i, truth := range v.view.AppendTrueSeries(nil, v.p) {
		dev[i] -= truth
	}
	return progress.ErrorStatsOf(dev)
}

// serve replays every trace under a fresh policy picking by sel and
// returns the pipelines with at least 8 observations.
func serve(sel *selection.Selector, traces []*exec.Trace) []served {
	var out []served
	for _, tr := range traces {
		pol := selection.NewPolicy(sel, len(tr.Pipes.Pipelines))
		picks := make([][]progress.Kind, len(tr.Pipes.Pipelines))
		view, first := pol.Replay(tr, func(view *progress.OnlineView) {
			for p, pl := range view.Pipelines {
				for len(picks[p]) < pl.NumObs() {
					picks[p] = append(picks[p], pol.Choice(p))
				}
			}
		})
		for p, pl := range view.Pipelines {
			if n := pl.NumObs(); n >= 8 {
				out = append(out, served{view, p, first[p], picks[p][:n]})
			}
		}
	}
	return out
}

// policyFixture trains static and dynamic selectors on the shared pool
// and executes a fresh workload.
func policyFixture(t *testing.T) (static, dynamic *selection.Selector, traces []*exec.Trace) {
	t.Helper()
	ex := pool(t)
	static, err := selection.Train(ex, selection.Config{
		Kinds: progress.ExtendedKinds(), Dynamic: false, Mart: fastOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err = selection.Train(ex, selection.Config{
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
	for _, q := range w.Queries {
		pl, err := w.Planner.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, exec.Run(w.DB, pl, exec.Options{}))
	}
	return static, dynamic, traces
}

// firstCrossings returns the observation ordinals at which the pipeline's
// driver fraction first reaches each marker (-1 for markers never
// reached).
func firstCrossings(p *progress.OnlinePipeline) []int {
	out := make([]int, len(features.Markers))
	for mi, x := range features.Markers {
		out[mi] = -1
		for i := 0; i < p.NumObs(); i++ {
			if p.Rows().DriverFraction(i) >= float64(x)/100 {
				out[mi] = i
				break
			}
		}
	}
	return out
}

func TestPolicyServedSeries(t *testing.T) {
	_, dynamic, traces := policyFixture(t)
	pipes := serve(dynamic, traces)
	if len(pipes) == 0 {
		t.Fatal("no pipelines served")
	}
	for _, v := range pipes {
		out := v.series()
		if n := v.pipe().NumObs(); len(out) != n {
			t.Fatalf("served series length %d, want %d", len(out), n)
		}
		for i, val := range out {
			if val < 0 || val > 1 {
				t.Fatalf("served progress %v at obs %d", val, i)
			}
		}
		// Up to the first re-pick the served series is the first pick's;
		// from each re-pick on, the re-picked estimator's.
		inForce := v.first
		for i := range out {
			if v.picks[i] != inForce {
				inForce = v.picks[i]
			}
			if want := v.pipe().Series(inForce)[i]; out[i] != want {
				t.Fatalf("served series diverges from the pick in force at obs %d", i)
			}
		}
		if st := v.errors(); st.L1 < 0 || st.L2 < st.L1-1e-9 {
			t.Fatalf("bad served error stats %+v", st)
		}
	}
}

func TestPolicyWithoutDynamicFeaturesNeverRepicks(t *testing.T) {
	static, _, traces := policyFixture(t)
	for _, sel := range []*selection.Selector{static, selection.Fixed(progress.DNE)} {
		for _, v := range serve(sel, traces) {
			for i, k := range v.picks {
				if k != v.first {
					t.Fatalf("pick changed to %v at obs %d without dynamic features", k, i)
				}
			}
			if len(sel.Kinds) == 1 && v.first != progress.DNE {
				t.Fatalf("fixed policy picked %v", v.first)
			}
			// The served error is then exactly the first pick's.
			if want := v.view.Errors(v.p, v.first).L1; v.errors().L1 != want {
				t.Fatalf("served L1 %v != first pick's %v", v.errors().L1, want)
			}
		}
	}
}

func TestPolicyRepicksOnlyAtMarkers(t *testing.T) {
	_, dynamic, traces := policyFixture(t)
	reached5 := 0
	for _, v := range serve(dynamic, traces) {
		cross := firstCrossings(v.pipe())
		atMarker := make(map[int]bool)
		for _, i := range cross {
			atMarker[i] = true
		}
		last := cross[len(cross)-1] // the 20% marker
		prev := v.first
		for i, k := range v.picks {
			if k != prev && !atMarker[i] {
				t.Fatalf("re-pick at obs %d, no marker first crossed there (crossings %v)", i, cross)
			}
			if k != prev && last >= 0 && i > last {
				t.Fatalf("re-pick at obs %d after the 20%% marker %d", i, last)
			}
			prev = k
		}
		if cross[2] >= 0 { // Markers[2] is 5%
			reached5++
		}
	}
	if reached5 == 0 {
		t.Error("no pipeline reached the 5% marker")
	}
}
