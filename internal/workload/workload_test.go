package workload

import (
	"testing"
	"time"

	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/plan"
	"progressest/internal/progress"
)

func smallSpec(kind datagen.DatasetKind, n int) Spec {
	return Spec{
		Name:    kind.String(),
		Kind:    kind,
		Queries: n,
		Scale:   0.08,
		Zipf:    1,
		Design:  catalog.PartiallyTuned,
		Seed:    7,
	}
}

func TestBuildAndRunAllKinds(t *testing.T) {
	for _, kind := range []datagen.DatasetKind{
		datagen.TPCHLike, datagen.TPCDSLike, datagen.Real1Like, datagen.Real2Like,
	} {
		res, err := BuildAndRun(smallSpec(kind, 12), RunOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.NumQueries != 12 {
			t.Errorf("%v: ran %d queries, want 12", kind, res.NumQueries)
		}
		if len(res.Examples) == 0 {
			t.Errorf("%v: no examples harvested", kind)
		}
		for i := range res.Examples {
			ex := &res.Examples[i]
			if len(ex.Features) == 0 {
				t.Fatalf("%v: example %d has no features", kind, i)
			}
			if ex.Workload != kind.String() {
				t.Errorf("%v: workload tag %q", kind, ex.Workload)
			}
			for _, k := range progress.Kinds() {
				if ex.ErrL1[k] < 0 || ex.ErrL1[k] > 1 || ex.ErrL2[k] < ex.ErrL1[k]-1e-9 {
					t.Fatalf("%v: example %d has bad errors for %v: L1=%v L2=%v",
						kind, i, k, ex.ErrL1[k], ex.ErrL2[k])
				}
			}
			if ex.Meta["getnext_total"] <= 0 {
				t.Errorf("%v: example %d missing getnext_total", kind, i)
			}
		}
	}
}

func TestDeterministicExamples(t *testing.T) {
	a, err := BuildAndRun(smallSpec(datagen.TPCHLike, 8), RunOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildAndRun(smallSpec(datagen.TPCHLike, 8), RunOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Examples) != len(b.Examples) {
		t.Fatalf("example counts differ: %d vs %d", len(a.Examples), len(b.Examples))
	}
	for i := range a.Examples {
		for j := range a.Examples[i].Features {
			if a.Examples[i].Features[j] != b.Examples[i].Features[j] {
				t.Fatalf("feature %d of example %d differs", j, i)
			}
		}
		for _, k := range progress.Kinds() {
			if a.Examples[i].ErrL1[k] != b.Examples[i].ErrL1[k] {
				t.Fatalf("error label differs at example %d", i)
			}
		}
	}
}

func TestOpShareReflectsDesign(t *testing.T) {
	// Fully tuned designs should show more index seeks than untuned ones
	// (the effect paper Table 1 documents).
	spec := smallSpec(datagen.TPCHLike, 25)
	spec.Design = catalog.Untuned
	untuned, err := BuildAndRun(spec, RunOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	spec.Design = catalog.FullyTuned
	tuned, err := BuildAndRun(spec, RunOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.OpPipelineShare[plan.IndexSeek] <= untuned.OpPipelineShare[plan.IndexSeek] {
		t.Errorf("index-seek share should grow with tuning: untuned %.3f vs tuned %.3f",
			untuned.OpPipelineShare[plan.IndexSeek], tuned.OpPipelineShare[plan.IndexSeek])
	}
}

func TestQueriesAreDiverse(t *testing.T) {
	w, err := Build(smallSpec(datagen.TPCHLike, 40))
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]bool{}
	joins := map[int]bool{}
	for _, q := range w.Queries {
		tables[q.First.Table] = true
		joins[len(q.Joins)] = true
	}
	if len(tables) < 4 {
		t.Errorf("only %d distinct first tables in 40 queries", len(tables))
	}
	if len(joins) < 3 {
		t.Errorf("only %d distinct join counts", len(joins))
	}
}

func TestReal2QueriesAreDeep(t *testing.T) {
	w, err := Build(smallSpec(datagen.Real2Like, 30))
	if err != nil {
		t.Fatal(err)
	}
	maxJoins := 0
	for _, q := range w.Queries {
		if len(q.Joins) > maxJoins {
			maxJoins = len(q.Joins)
		}
		if len(q.Joins) < 4 {
			t.Errorf("real2 query has only %d joins", len(q.Joins))
		}
	}
	if maxJoins < 9 {
		t.Errorf("real2 should reach ~10-12 tables, max joins seen %d", maxJoins)
	}
}

func TestRunThroughput(t *testing.T) {
	// Guardrail: a 20-query workload must execute in a few seconds, or
	// the full experiment suite becomes intractable.
	start := time.Now()
	if _, err := BuildAndRun(smallSpec(datagen.TPCHLike, 20), RunOptions{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("20 queries took %v", d)
	}
}

// TestPlansSatisfyOperatorArity walks every plan the optimizer makes for
// the four dataset kinds, under each physical design: every node has
// exactly as many children as its operator's arity, the rule a session
// spec must satisfy at open.
func TestPlansSatisfyOperatorArity(t *testing.T) {
	for _, kind := range allDatasetKinds {
		for _, design := range []catalog.DesignLevel{catalog.Untuned, catalog.PartiallyTuned, catalog.FullyTuned} {
			spec := smallSpec(kind, 60)
			spec.Design = design
			w, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range w.Queries {
				pl, err := w.Planner.Plan(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range pl.Nodes() {
					if len(n.Children) != n.Op.Arity() {
						t.Fatalf("%v %v query %d node %d: %v with %d children, arity %d",
							kind, design, qi, n.ID, n.Op, len(n.Children), n.Op.Arity())
					}
				}
			}
		}
	}
}
