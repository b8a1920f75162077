package experiments

import (
	"strings"
	"testing"

	"progressest/internal/catalog"
	"progressest/internal/plan"
	"progressest/internal/progress"
)

// One shared quick suite for the whole test binary: workload runs and the
// six-fold evaluation are cached inside it.
var testSuite = NewSuite(Quick())

func TestFigure1(t *testing.T) {
	r, err := testSuite.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if r.N == 0 {
		t.Fatal("no pipelines")
	}
	for _, k := range progress.CoreKinds() {
		curve := r.Ratios[k]
		if len(curve) != r.N {
			t.Fatalf("%v: curve has %d points, want %d", k, len(curve), r.N)
		}
		// Curves are sorted and start at ratio >= 1 (minimum is over the
		// same three estimators).
		if curve[0] < 1-1e-9 {
			t.Errorf("%v: smallest ratio %v < 1", k, curve[0])
		}
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1] {
				t.Fatalf("%v: curve not sorted", k)
			}
		}
		// Every estimator must degrade on SOME pipelines (the paper's
		// core observation).
		if curve[len(curve)-1] < 2 {
			t.Errorf("%v: max ratio %.2f — no degradation observed", k, curve[len(curve)-1])
		}
	}
	if s := r.String(); !strings.Contains(s, "Figure 1") {
		t.Error("missing title in rendering")
	}
}

func TestTable1(t *testing.T) {
	r, err := testSuite.Table1()
	if err != nil {
		t.Fatal(err)
	}
	// Tuning must increase the index-seek share (paper: 47% -> 96%).
	u := r.Share[catalog.Untuned][plan.IndexSeek]
	f := r.Share[catalog.FullyTuned][plan.IndexSeek]
	if f <= u {
		t.Errorf("index-seek share should rise with tuning: %.3f -> %.3f", u, f)
	}
	for _, lvl := range []catalog.DesignLevel{catalog.Untuned, catalog.PartiallyTuned, catalog.FullyTuned} {
		for op, share := range r.Share[lvl] {
			if share < 0 || share > 1 {
				t.Errorf("%v/%v: share %v out of range", lvl, op, share)
			}
		}
	}
	if s := r.String(); !strings.Contains(s, "fully tuned") {
		t.Error("missing column in rendering")
	}
}

func TestSensitivityTables(t *testing.T) {
	for name, run := range map[string]func() (*SensitivityResult, error){
		"table2": testSuite.Table2,
		"table3": testSuite.Table3,
		"table4": testSuite.Table4,
		"table5": testSuite.Table5,
	} {
		r, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.GroupNames) != 3 {
			t.Fatalf("%s: want 3 groups, got %d", name, len(r.GroupNames))
		}
		for g := range r.GroupNames {
			if r.GroupSizes[g] == 0 {
				continue // quick config may leave a bucket thin
			}
			var sum float64
			for _, v := range r.OptimalShare[g] {
				sum += v
			}
			if sum < 0.99 || sum > 1.01 {
				t.Errorf("%s group %d: optimal shares sum to %v", name, g, sum)
			}
			if r.SelectionPicked[g] < 0 || r.SelectionPicked[g] > 1 {
				t.Errorf("%s group %d: picked rate %v", name, g, r.SelectionPicked[g])
			}
		}
		if s := r.String(); !strings.Contains(s, "EST. SEL.") {
			t.Errorf("%s: missing selection row", name)
		}
	}
}

func TestAdHocAndDerivedOutputs(t *testing.T) {
	r, err := testSuite.AdHoc()
	if err != nil {
		t.Fatal(err)
	}
	if r.N == 0 {
		t.Fatal("no examples")
	}
	// Oracle bounds cannot exceed any technique's error.
	for name, st := range r.Techniques {
		if st.AvgL1 < r.OracleCoreL1-1e-9 && !strings.Contains(name, ",6") {
			t.Errorf("%s: avg L1 %.4f below core oracle %.4f", name, st.AvgL1, r.OracleCoreL1)
		}
		if st.AvgL2 < st.AvgL1-1e-9 {
			t.Errorf("%s: L2 %.4f < L1 %.4f", name, st.AvgL2, st.AvgL1)
		}
		if st.Over2x < st.Over5x || st.Over5x < st.Over10x {
			t.Errorf("%s: tail fractions not monotone", name)
		}
	}
	if r.OracleExtL1 > r.OracleCoreL1+1e-9 {
		t.Errorf("extended oracle %.4f should be <= core oracle %.4f", r.OracleExtL1, r.OracleCoreL1)
	}
	// PMAX/SAFE should be clearly worse than the core estimators (the
	// reason the paper excludes them).
	if r.PMAXL1 < r.Techniques["TGN"].AvgL1 {
		t.Errorf("PMAX (%.4f) unexpectedly beats TGN (%.4f)", r.PMAXL1, r.Techniques["TGN"].AvgL1)
	}
	for _, s := range []string{r.Figure4String(), r.Table6String(), r.Figure5String()} {
		if len(s) < 100 {
			t.Error("suspiciously short rendering")
		}
	}
	// Cached: second call must return the same pointer.
	r2, err := testSuite.AdHoc()
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r {
		t.Error("AdHoc result not cached")
	}
}

func TestTraces(t *testing.T) {
	f6, err := testSuite.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Truth) < 20 {
		t.Fatalf("figure 6 trace too short: %d", len(f6.Truth))
	}
	if len(f6.Series[progress.DNE]) != len(f6.Truth) {
		t.Error("figure 6 series misaligned")
	}
	f7, err := testSuite.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Truth) < 20 {
		t.Fatalf("figure 7 trace too short: %d", len(f7.Truth))
	}
	for _, r := range []*TraceResult{f6, f7} {
		for _, k := range r.Shown {
			for _, v := range r.Series[k] {
				if v < 0 || v > 1 {
					t.Fatalf("%s: %v estimate %v out of range", r.Title, k, v)
				}
			}
		}
		if s := r.String(); !strings.Contains(s, "TRUE") {
			t.Error("trace rendering missing TRUE series")
		}
	}
}

func TestTable7Quick(t *testing.T) {
	r, err := testSuite.Table7()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Seconds) != len(r.Sizes) {
		t.Fatal("row count mismatch")
	}
	// Training time grows with M for the largest size.
	last := r.Seconds[len(r.Seconds)-1]
	if last[0] > last[len(last)-1]+0.5 {
		t.Errorf("training time should grow with M: %v", last)
	}
	if s := r.String(); !strings.Contains(s, "M=") {
		t.Error("missing header")
	}
}

func TestTable8(t *testing.T) {
	r, err := testSuite.Table8()
	if err != nil {
		t.Fatal(err)
	}
	// No estimator should be near-optimal everywhere; all shares valid.
	for k, v := range r.AlmostOptimal {
		if v < 0 || v > 1 {
			t.Errorf("%v: almost-optimal %v", k, v)
		}
	}
	// PMAX is the weakest estimator: near-optimal at most as often as the
	// strongest (it only counts on trivially easy pipelines where every
	// estimator is within tolerance of the best).
	maxShare := 0.0
	for _, v := range r.AlmostOptimal {
		if v > maxShare {
			maxShare = v
		}
	}
	if r.AlmostOptimal[progress.PMAX] >= maxShare {
		t.Errorf("PMAX almost-optimal %.2f should be the lowest (max %.2f)",
			r.AlmostOptimal[progress.PMAX], maxShare)
	}
	if s := r.String(); !strings.Contains(s, "DNESEEK") {
		t.Error("missing estimator row")
	}
}

func TestModels(t *testing.T) {
	r, err := testSuite.Models()
	if err != nil {
		t.Fatal(err)
	}
	// The GetNext model with oracle cardinalities must beat the bytes
	// model (Section 6.7's conclusion).
	if r.GetNextL1 >= r.BytesL1 {
		t.Errorf("oracle GetNext (%.4f) should beat oracle Bytes (%.4f)", r.GetNextL1, r.BytesL1)
	}
	if s := r.String(); !strings.Contains(s, "GetNext model") {
		t.Error("missing rendering content")
	}
}

func TestFeatureImportance(t *testing.T) {
	r, err := testSuite.FeatureImportance()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Greedy) == 0 || len(r.TopByImportance) == 0 {
		t.Fatal("empty feature importance result")
	}
	// Greedy MSE trends downward (small non-monotonicities are possible
	// because boosting is stochastic); the last step must not be worse
	// than the first, and every MSE must be finite and non-negative.
	first, last := r.Greedy[0].MSE, r.Greedy[len(r.Greedy)-1].MSE
	if last > first {
		t.Errorf("greedy MSE rose overall: %.6f -> %.6f", first, last)
	}
	for i, st := range r.Greedy {
		if st.MSE < 0 || st.Name == "" {
			t.Errorf("step %d: invalid greedy step %+v", i, st)
		}
	}
	if s := r.String(); !strings.Contains(s, "Greedy") {
		t.Error("missing rendering content")
	}
}

// TestOnlineRevision checks the online-revision study's invariants and
// pins its figures exactly: the replay reads every row of views whose
// pipelines settle (at their last marker crossing) while it runs, so the
// rows a settled pipeline deferred must come back bit for bit.
func TestOnlineRevision(t *testing.T) {
	r, err := testSuite.Online()
	if err != nil {
		t.Fatal(err)
	}
	if r.N == 0 {
		t.Fatal("no pipelines monitored")
	}
	for _, pin := range []struct {
		name      string
		got, want float64
	}{
		{"served L1", r.ServedL1, 0.02014650763943829},
		{"first-pick L1", r.FirstPickL1, 0.02260409929299459},
		{"oracle L1", r.OracleL1, 0.013102425390628815},
		{"served query L1", r.ServedQueryL1, 0.025077319825775157},
	} {
		if pin.got != pin.want {
			t.Errorf("%s = %v, recorded %v", pin.name, pin.got, pin.want)
		}
	}
	if r.OracleL1 > r.ServedL1+1e-9 || r.OracleL1 > r.FirstPickL1+1e-9 {
		t.Error("oracle cannot exceed any policy's error")
	}
	if r.RepickedShare < 0 || r.RepickedShare > 1 {
		t.Errorf("re-picked share %v", r.RepickedShare)
	}
	if r.RepickHelped+r.RepickHurt > 1+1e-9 {
		t.Errorf("helped+hurt = %v > 1", r.RepickHelped+r.RepickHurt)
	}
	if r.Queries == 0 || r.ServedQueryL1 < 0 || r.ServedQueryL1 > 1 {
		t.Errorf("served query L1 %v over %d queries", r.ServedQueryL1, r.Queries)
	}
	if s := r.String(); !strings.Contains(s, "served (re-picks)") || !strings.Contains(s, "served query progress") {
		t.Error("missing rendering content")
	}
}

func TestRefinementLadder(t *testing.T) {
	r, err := testSuite.Refinement()
	if err != nil {
		t.Fatal(err)
	}
	if r.N == 0 {
		t.Fatal("no pipelines")
	}
	// Refinement layers must not hurt on average, and oracle totals must
	// be the best of the family.
	if r.BoundedL1 > r.RawL1+1e-9 {
		t.Errorf("bounds refinement should not hurt: raw %.4f -> bounded %.4f", r.RawL1, r.BoundedL1)
	}
	if r.OracleL1 > r.RawL1 || r.OracleL1 > r.BoundedL1 || r.OracleL1 > r.InterpL1 {
		t.Errorf("oracle totals should beat every practical refinement: %+v", r)
	}
	if s := r.String(); !strings.Contains(s, "oracle totals") {
		t.Error("missing rendering content")
	}
}

func TestAblation(t *testing.T) {
	r, err := testSuite.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if r.N == 0 {
		t.Fatal("no examples")
	}
	if r.OracleL1 > r.RegressionMARTL1+1e-9 {
		t.Error("oracle cannot be worse than the trained selector")
	}
	if s := r.String(); !strings.Contains(s, "regression + MART") {
		t.Error("missing rendering content")
	}
}
