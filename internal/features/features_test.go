package features

import (
	"math"
	"strings"
	"testing"

	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/exec"
	"progressest/internal/optimizer"
	"progressest/internal/plan"
	"progressest/internal/progress"
)

// pipelineViews replays a realistic query and returns its pipelines with
// at least five observations.
func pipelineViews(t testing.TB, level catalog.DesignLevel) []*progress.OnlinePipeline {
	t.Helper()
	db := datagen.GenTPCH(datagen.Params{Scale: 0.08, Zipf: 1, Seed: 11})
	if err := db.ApplyDesign(datagen.Designs(datagen.TPCHLike)[level]); err != nil {
		t.Fatal(err)
	}
	spec := &optimizer.QuerySpec{
		First: optimizer.TableTerm{Table: "orders", Filters: []optimizer.FilterSpec{
			{Column: "o_orderdate", IsRange: true, Lo: 1, Hi: 1600},
		}},
		Joins: []optimizer.JoinTerm{{
			Right:     optimizer.TableTerm{Table: "lineitem"},
			LeftTable: "orders", LeftCol: "o_orderkey", RightCol: "l_orderkey",
		}},
		Group: &optimizer.GroupSpec{
			Cols: []optimizer.ColRef{{Table: "lineitem", Column: "l_returnflag"}},
			Aggs: []optimizer.AggRef{{Func: plan.AggCount}},
		},
	}
	pl, err := optimizer.NewPlanner(db, optimizer.BuildStats(db)).Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	var views []*progress.OnlinePipeline
	for _, v := range progress.Replay(exec.Run(db, pl, exec.Options{})).Pipelines {
		if v.NumObs() >= 5 {
			views = append(views, v)
		}
	}
	if len(views) == 0 {
		t.Fatal("no usable pipelines")
	}
	return views
}

func TestNamesMatchVectorLengths(t *testing.T) {
	names := Names()
	if len(names) != NumTotal {
		t.Fatalf("Names() has %d entries, NumTotal = %d", len(names), NumTotal)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
	// The paper says the full vector is about 200 doubles.
	if NumTotal < 150 || NumTotal > 260 {
		t.Errorf("NumTotal = %d, expected roughly 200", NumTotal)
	}
}

func TestVectorsHaveDeclaredLengths(t *testing.T) {
	for _, v := range pipelineViews(t, catalog.FullyTuned) {
		s := Static(v.PipeContext)
		if len(s) != NumStatic {
			t.Fatalf("Static length %d, want %d", len(s), NumStatic)
		}
		d := Dynamic(v)
		if len(d) != NumTotal-NumStatic {
			t.Fatalf("Dynamic length %d, want %d", len(d), NumTotal-NumStatic)
		}
		f := OnlineFull(v)
		if len(f) != NumTotal {
			t.Fatalf("OnlineFull length %d, want %d", len(f), NumTotal)
		}
		for i, x := range f {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("feature %d (%s) is %v", i, Names()[i], x)
			}
		}
	}
}

func TestStaticEncodesOperatorMix(t *testing.T) {
	names := Names()
	idxCount := map[string]int{}
	for i, n := range names {
		idxCount[n] = i
	}
	foundSeek := false
	for _, v := range pipelineViews(t, catalog.FullyTuned) {
		s := Static(v.PipeContext)
		// Count features must equal actual node counts per op.
		counts := map[plan.OpType]float64{}
		for _, id := range v.Pipe.Nodes {
			counts[v.Plan.Node(id).Op]++
		}
		for op, want := range counts {
			got := s[idxCount["Count_"+op.String()]]
			if got != want {
				t.Errorf("Count_%v = %v, want %v", op, got, want)
			}
		}
		if counts[plan.IndexSeek] > 0 {
			foundSeek = true
		}
		// SelAt over all ops sums to 1.
		var sum float64
		for op := plan.OpType(0); op < plan.NumOpTypes; op++ {
			sum += s[idxCount["SelAt_"+op.String()]]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("SelAt sums to %v, want 1", sum)
		}
		// SelAtDN within [0,1].
		dn := s[idxCount["SelAtDN"]]
		if dn < 0 || dn > 1 {
			t.Errorf("SelAtDN = %v", dn)
		}
	}
	if !foundSeek {
		t.Error("fully tuned plan should contain an index seek pipeline")
	}
}

func TestSelBelowAboveRelationship(t *testing.T) {
	// In a scan->filter pipeline, the scan lies below the filter: the
	// scan's E contributes to SelBelow_Filter, and the filter's E to
	// SelAbove_TableScan.
	names := Names()
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	for _, v := range pipelineViews(t, catalog.Untuned) {
		hasFilter := false
		for _, id := range v.Pipe.Nodes {
			if v.Plan.Node(id).Op == plan.Filter {
				hasFilter = true
			}
		}
		if !hasFilter {
			continue
		}
		s := Static(v.PipeContext)
		if s[idx["SelBelow_Filter"]] <= 0 {
			t.Error("SelBelow_Filter should be positive when a filter has inputs in the pipeline")
		}
		return
	}
	t.Skip("no filter pipeline found")
}

func TestSemiJoinFeaturesPresent(t *testing.T) {
	db := datagen.GenTPCH(datagen.Params{Scale: 0.08, Zipf: 1, Seed: 12})
	if err := db.ApplyDesign(datagen.Designs(datagen.TPCHLike)[catalog.PartiallyTuned]); err != nil {
		t.Fatal(err)
	}
	spec := &optimizer.QuerySpec{
		First: optimizer.TableTerm{Table: "orders"},
		Exists: []optimizer.JoinTerm{{
			Right:     optimizer.TableTerm{Table: "lineitem"},
			LeftTable: "orders", LeftCol: "o_orderkey", RightCol: "l_orderkey",
		}},
	}
	pl, err := optimizer.NewPlanner(db, optimizer.BuildStats(db)).Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pl.CountOp(plan.SemiJoin) != 1 {
		t.Fatalf("want semi join:\n%s", pl)
	}
	view := progress.Replay(exec.Run(db, pl, exec.Options{}))
	idx := map[string]int{}
	for i, n := range Names() {
		idx[n] = i
	}
	found := false
	for p := range view.Pipelines {
		s := Static(view.Context(p))
		if s[idx["Count_SemiJoin"]] > 0 {
			found = true
			if s[idx["SelAt_SemiJoin"]] <= 0 {
				t.Error("SemiJoin present but SelAt_SemiJoin is zero")
			}
		}
	}
	if !found {
		t.Error("no pipeline carries the semi-join feature")
	}
}

func TestDynamicFeaturesBounded(t *testing.T) {
	for _, v := range pipelineViews(t, catalog.PartiallyTuned) {
		d := Dynamic(v)
		off := 0
		// Pairwise diffs are absolute differences of values in [0,1].
		for i := 0; i < len(diffPairs)*len(Markers); i++ {
			if d[off+i] < 0 || d[off+i] > 1 {
				t.Errorf("diff feature %d = %v out of [0,1]", i, d[off+i])
			}
		}
		off += len(diffPairs) * len(Markers)
		for i := off; i < len(d); i++ {
			if d[i] < 0 || d[i] > 10 {
				t.Errorf("correlation feature %d = %v out of [0,10]", i, d[i])
			}
		}
	}
}

func TestCorrelationNamesWellFormed(t *testing.T) {
	for _, n := range Names()[NumStatic:] {
		if !strings.Contains(n, "vs") && !strings.HasPrefix(n, "Cor_") {
			t.Errorf("dynamic feature name %q unexpected", n)
		}
	}
}

func TestDeterministicFeatures(t *testing.T) {
	va := pipelineViews(t, catalog.FullyTuned)
	vb := pipelineViews(t, catalog.FullyTuned)
	if len(va) != len(vb) {
		t.Fatal("pipeline counts differ")
	}
	for i := range va {
		fa, fb := OnlineFull(va[i]), OnlineFull(vb[i])
		for j := range fa {
			if fa[j] != fb[j] {
				t.Fatalf("feature %d differs across identical runs", j)
			}
		}
	}
}

// BenchmarkOnlineFull times one re-pick's feature vector over a finished
// pipeline of the streaming view.
func BenchmarkOnlineFull(b *testing.B) {
	views := pipelineViews(b, catalog.Untuned)
	p := views[0]
	for _, q := range views {
		if q.NumObs() > p.NumObs() {
			p = q
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OnlineFull(p)
	}
}
