package mart

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// synth builds a nonlinear regression problem MART should crack easily
// but a linear model cannot: y = step(x0) + x1*x2 + noise.
func synth(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64(), rng.Float64(), rng.Float64()}
		X[i] = x
		step := 0.0
		if x[0] > 0.3 {
			step = 2.0
		}
		y[i] = step + x[1]*x[2] + rng.NormFloat64()*0.05
	}
	return X, y
}

func TestTrainReducesError(t *testing.T) {
	X, y := synth(2000, 1)
	m, err := Train(X, y, Options{Trees: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mse := MSE(m.PredictAll(X), y)
	// Variance of y is ~1; the model must explain most of it.
	if mse > 0.05 {
		t.Errorf("training MSE %v too high", mse)
	}
}

func TestGeneralisation(t *testing.T) {
	X, y := synth(4000, 2)
	Xtest, ytest := synth(1000, 99)
	m, err := Train(X, y, Options{Trees: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mse := MSE(m.PredictAll(Xtest), ytest)
	if mse > 0.1 {
		t.Errorf("test MSE %v too high", mse)
	}
}

func TestMoreTreesMonotoneTrainingError(t *testing.T) {
	X, y := synth(1000, 3)
	prev := math.Inf(1)
	for _, trees := range []int{5, 25, 100} {
		m, err := Train(X, y, Options{Trees: trees, Subsample: 1, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		mse := MSE(m.PredictAll(X), y)
		if mse > prev+1e-9 {
			t.Errorf("training error should not increase with more trees: %v -> %v", prev, mse)
		}
		prev = mse
	}
}

func TestMARTBeatsRidgeOnNonlinearData(t *testing.T) {
	// The paper's stated reason for choosing MART over linear models.
	X, y := synth(3000, 5)
	Xt, yt := synth(800, 50)
	m, err := Train(X, y, Options{Trees: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := TrainRidge(X, y, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	mMSE := MSE(m.PredictAll(Xt), yt)
	rMSE := MSE(r.PredictAll(Xt), yt)
	if mMSE >= rMSE {
		t.Errorf("MART (%v) should beat ridge (%v) on nonlinear data", mMSE, rMSE)
	}
}

func TestRidgeRecoversLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 2000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		X[i] = x
		y[i] = 3*x[0] - 2*x[1] + 0.5 + rng.NormFloat64()*0.01
	}
	r, err := TrainRidge(X, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if mse := MSE(r.PredictAll(X), y); mse > 0.001 {
		t.Errorf("ridge MSE %v on linear data", mse)
	}
}

func TestConstantLabels(t *testing.T) {
	X, _ := synth(100, 7)
	y := make([]float64, len(X))
	for i := range y {
		y[i] = 7.5
	}
	m, err := Train(X, y, Options{Trees: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range X[:10] {
		if math.Abs(m.Predict(x)-7.5) > 1e-9 {
			t.Errorf("constant label model predicts %v", m.Predict(x))
		}
	}
}

func TestFeatureImportanceIdentifiesSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 2000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		// Feature 2 carries all the signal; 0,1,3 are noise.
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		X[i] = x
		y[i] = math.Sin(6 * x[2])
	}
	m, err := Train(X, y, Options{Trees: 50, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance()
	if imp[2] < 0.9 {
		t.Errorf("importance of the signal feature = %v, want > 0.9 (all: %v)", imp[2], imp)
	}
	var sum float64
	for _, v := range imp {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum to %v", sum)
	}
}

func TestErrorsOnBadInput(t *testing.T) {
	if _, err := Train(nil, nil, Options{}); err == nil {
		t.Error("empty training set should error")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("mismatched labels should error")
	}
	if _, err := Train([][]float64{{1, 2}, {1}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("ragged rows should error")
	}
	// A non-finite label used to train "fine" into a Bias: NaN model.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := Train([][]float64{{1}, {2}, {3}}, []float64{0.5, 0.25, bad}, Options{Trees: 2})
		if err == nil || !strings.Contains(err.Error(), "row 2") {
			t.Errorf("label %v in row 2 should be rejected naming the row, got %v", bad, err)
		}
	}
}

// TestSaveLoadRoundTrip: a decoded model is the trained model to the last
// bit — the same predictions, and the same bytes when encoded again.
func TestSaveLoadRoundTrip(t *testing.T) {
	X, y := synth(500, 9)
	m, err := Train(X, y, Options{Trees: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m.Names = []string{"a", "", "ccc", "d"}
	data, err := m.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := loaded.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("decoded model encodes to different bytes")
	}
	if !slices.Equal(loaded.Names, m.Names) || !slices.Equal(loaded.Importance, m.Importance) {
		t.Fatal("names or importances lost in the round trip")
	}
	for _, x := range X {
		if math.Float64bits(m.Predict(x)) != math.Float64bits(loaded.Predict(x)) {
			t.Fatal("loaded model predicts differently")
		}
	}
}

// TestDecodeBinaryRejects: truncated input, trailing bytes and every
// structural fault Validate names are errors — a child that points back
// at or before its parent (the loop a crafted file could make Predict
// spin in), one past the tree, a split feature outside the vector, an
// empty tree, and importances that disagree with the feature count.
func TestDecodeBinaryRejects(t *testing.T) {
	valid := func() *Model {
		return &Model{Bias: 0.5, NumFeature: 2, Importance: []float64{1, 0}, Trees: []tree{{Nodes: []node{
			{Feature: 1, Threshold: 0.5, Left: 1, Right: 2},
			{Left: -1, Right: -1, Value: 0.25},
			{Left: -1, Right: -1, Value: -0.25},
		}}}}
	}
	data, err := valid().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := range len(data) {
		if _, err := DecodeBinary(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(data))
		}
	}
	if _, err := DecodeBinary(append(data, 0)); err == nil {
		t.Fatal("a trailing byte decoded")
	}
	for name, mutate := range map[string]func(m *Model){
		"empty tree":  func(m *Model) { m.Trees = append(m.Trees, tree{}) },
		"importances": func(m *Model) { m.Importance = m.Importance[:1] },
		"leaf index":  func(m *Model) { m.Trees[0].Nodes[1].Left = math.MinInt32 - 1 },
	} {
		m := valid()
		mutate(m)
		if _, err := m.AppendBinary(nil); err == nil || !strings.Contains(err.Error(), "invalid model") {
			t.Errorf("%s: AppendBinary err = %v, want an invalid-model error", name, err)
		}
	}
	// Node faults, patched into the record: bias, feature count, two
	// importances, no names, one tree of three nodes, then the nodes.
	const root = 8 + 4 + 16 + 4 + 4 + 4
	for name, patch := range map[string]struct{ at, v int }{
		"self loop":        {root + 12, 0},
		"backward child":   {root + 2*nodeSize + 12, 1}, // the last leaf turned into a split
		"child past tree":  {root + 16, 3},
		"feature past":     {root, 2},
		"negative feature": {root, -1},
	} {
		bad := bytes.Clone(data)
		binary.LittleEndian.PutUint32(bad[patch.at:], uint32(int32(patch.v)))
		if _, err := DecodeBinary(bad); err == nil || !strings.Contains(err.Error(), "invalid model") {
			t.Errorf("%s: DecodeBinary err = %v, want an invalid-model error", name, err)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	X, y := synth(800, 10)
	a, _ := Train(X, y, Options{Trees: 30, Seed: 11})
	b, _ := Train(X, y, Options{Trees: 30, Seed: 11})
	for _, x := range X[:20] {
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same seed must give identical models")
		}
	}
}

func TestPredictionWithinLabelRangeProperty(t *testing.T) {
	// Regression trees average labels, so predictions on training points
	// must stay within [min(y), max(y)] (shrinkage keeps partial sums
	// inside too for LS loss started at the mean — allow small slack).
	X, y := synth(600, 12)
	m, err := Train(X, y, Options{Trees: 60, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range y {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	f := func(i uint16) bool {
		x := X[int(i)%len(X)]
		p := m.Predict(x)
		return p >= lo-0.5 && p <= hi+0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMonotoneTransformInvariance(t *testing.T) {
	// Quantile binning is rank-based, so applying a strictly monotone
	// transform to a (positive) feature must leave the fitted tree
	// structure — and hence predictions at corresponding points —
	// unchanged. This is the "no normalisation needed" property the paper
	// cites as a reason for choosing MART (Section 4.2).
	X, y := synth(800, 14)
	for i := range X {
		for j := range X[i] {
			X[i][j] += 2 // ensure positivity for the transform
		}
	}
	Xt := make([][]float64, len(X))
	for i := range X {
		row := make([]float64, len(X[i]))
		for j, v := range X[i] {
			row[j] = math.Exp(v) // strictly monotone
		}
		Xt[i] = row
	}
	a, err := Train(X, y, Options{Trees: 40, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(Xt, y, Options{Trees: 40, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	for i := range X[:100] {
		pa, pb := a.Predict(X[i]), b.Predict(Xt[i])
		if math.Abs(pa-pb) > 1e-9 {
			t.Fatalf("monotone transform changed prediction: %v vs %v", pa, pb)
		}
	}
}

func TestGreedySelectFindsSignalFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 800
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		X[i] = x
		y[i] = 4 * x[1] * x[1] // only feature 1 matters
	}
	steps, err := GreedySelect(X, y, []string{"a", "b", "c"}, 2, Options{Trees: 20, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("want 2 steps, got %d", len(steps))
	}
	if steps[0].Feature != 1 || steps[0].Name != "b" {
		t.Errorf("first selected feature = %+v, want feature 1 (b)", steps[0])
	}
	if steps[1].MSE > steps[0].MSE+1e-9 {
		t.Errorf("MSE should not increase across greedy steps: %v -> %v", steps[0].MSE, steps[1].MSE)
	}
}

func BenchmarkTrain6K200(b *testing.B) {
	X, y := synth(6000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, Options{Trees: 200, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
