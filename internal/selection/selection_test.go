package selection_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/features"
	"progressest/internal/mart"
	"progressest/internal/progress"
	"progressest/internal/selection"
	"progressest/internal/workload"
)

// Shared example pool (built once; workload execution is the slow part).
var (
	examplesOnce sync.Once
	examplePool  []selection.Example
)

func pool(t *testing.T) []selection.Example {
	t.Helper()
	examplesOnce.Do(func() {
		for _, kind := range []datagen.DatasetKind{datagen.TPCHLike, datagen.TPCDSLike} {
			for _, lvl := range []catalog.DesignLevel{catalog.Untuned, catalog.FullyTuned} {
				res, err := workload.BuildAndRun(workload.Spec{
					Name: kind.String(), Kind: kind, Queries: 30,
					Scale: 0.1, Zipf: 1, Design: lvl, Seed: 100 + int64(lvl),
				}, workload.RunOptions{Seed: int64(lvl)})
				if err != nil {
					panic(err)
				}
				examplePool = append(examplePool, res.Examples...)
			}
		}
	})
	if len(examplePool) < 40 {
		t.Fatalf("example pool too small: %d", len(examplePool))
	}
	return examplePool
}

func fastOpts() mart.Options { return mart.Options{Trees: 60, Seed: 1} }

func TestTrainAndSelectBasics(t *testing.T) {
	ex := pool(t)
	s, err := selection.Train(ex, selection.Config{Kinds: progress.CoreKinds(), Mart: fastOpts()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ex[:20] {
		k := s.Select(ex[i].Features)
		found := false
		for _, c := range s.Kinds {
			if c == k {
				found = true
			}
		}
		if !found {
			t.Fatalf("selected %v not in candidate set", k)
		}
		preds := s.PredictErrors(ex[i].Features)
		if len(preds) != len(s.Kinds) {
			t.Fatalf("PredictErrors returned %d entries", len(preds))
		}
		// The selected kind must have the minimum predicted error.
		for _, c := range s.Kinds {
			if preds[c] < preds[k] {
				t.Fatalf("Select returned %v but %v has lower predicted error", k, c)
			}
		}
	}
}

func TestSelectionBeatsWorstEstimatorInSample(t *testing.T) {
	ex := pool(t)
	s, err := selection.Train(ex, selection.Config{Kinds: progress.CoreKinds(), Dynamic: true, Mart: fastOpts()})
	if err != nil {
		t.Fatal(err)
	}
	ev := selection.Evaluate(s, ex)
	worst := 0.0
	for _, k := range progress.CoreKinds() {
		if f := selection.EvaluateFixed(k, progress.CoreKinds(), ex); f.AvgL1 > worst {
			worst = f.AvgL1
		}
	}
	if ev.AvgL1 >= worst {
		t.Errorf("in-sample selection (%.4f) should beat the worst fixed estimator (%.4f)",
			ev.AvgL1, worst)
	}
	if ev.OracleL1 > ev.AvgL1+1e-12 {
		t.Errorf("oracle (%.4f) cannot exceed selection (%.4f)", ev.OracleL1, ev.AvgL1)
	}
}

func TestStaticSelectorIgnoresDynamicSuffix(t *testing.T) {
	ex := pool(t)
	s, err := selection.Train(ex, selection.Config{Kinds: progress.CoreKinds(), Dynamic: false, Mart: fastOpts()})
	if err != nil {
		t.Fatal(err)
	}
	// Perturbing dynamic features must not change a static selector's
	// choice.
	e := ex[0]
	perturbed := append([]float64(nil), e.Features...)
	for i := features.NumStatic; i < len(perturbed); i++ {
		perturbed[i] += 123.456
	}
	if s.Select(e.Features) != s.Select(perturbed) {
		t.Error("static selector should ignore dynamic features")
	}
}

func TestDynamicSelectorUsesDynamicSuffix(t *testing.T) {
	ex := pool(t)
	s, err := selection.Train(ex, selection.Config{Kinds: progress.ExtendedKinds(), Dynamic: true, Mart: fastOpts()})
	if err != nil {
		t.Fatal(err)
	}
	// At least one dynamic feature should matter across a trained model's
	// importance vector.
	var dynImportance float64
	for _, m := range s.Models {
		imp := m.FeatureImportance()
		for i := features.NumStatic; i < len(imp); i++ {
			dynImportance += imp[i]
		}
	}
	if dynImportance == 0 {
		t.Error("dynamic selector never split on a dynamic feature")
	}
}

// TestSaveLoadRoundTrip: a loaded selector is the saved one to the last
// bit — every model re-encodes to the original's bytes, and picks and
// predicted errors agree exactly on every pool example.
func TestSaveLoadRoundTrip(t *testing.T) {
	ex := pool(t)
	s, err := selection.Train(ex, selection.Config{Kinds: progress.ExtendedKinds(), Dynamic: true, Mart: fastOpts()})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "selector.sel")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := selection.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSelector(t, s, loaded, ex)
}

// assertSameSelector fails unless got carries want's kinds, flag and
// models byte for byte, and predicts identically on every example.
func assertSameSelector(t *testing.T, want, got *selection.Selector, ex []selection.Example) {
	t.Helper()
	if got.Dynamic != want.Dynamic || !slices.Equal(got.Kinds, want.Kinds) {
		t.Fatalf("selector metadata lost: kinds %v dynamic %v, want %v %v", got.Kinds, got.Dynamic, want.Kinds, want.Dynamic)
	}
	for _, k := range want.Kinds {
		a, err := want.Models[k].AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Models[k].AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%v: loaded model encodes differently", k)
		}
	}
	for i := range ex {
		if want.Select(ex[i].Features) != got.Select(ex[i].Features) {
			t.Fatalf("example %d: loaded selector selects differently", i)
		}
		pw, pg := want.PredictErrors(ex[i].Features), got.PredictErrors(ex[i].Features)
		for _, k := range want.Kinds {
			if math.Float64bits(pw[k]) != math.Float64bits(pg[k]) {
				t.Fatalf("example %d: %v predicted error %v, want %v", i, k, pg[k], pw[k])
			}
		}
	}
}

// TestSaveIsAtomicAndVersioned: Save leaves no temp droppings, embeds the
// format version, and refuses files from a future format with a friendly
// message.
func TestSaveIsAtomicAndVersioned(t *testing.T) {
	ex := pool(t)
	s, err := selection.Train(ex, selection.Config{Kinds: progress.CoreKinds(), Mart: fastOpts()})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "selector.sel")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place (the hot-swap pattern): must succeed and leave
	// exactly one file behind.
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("save left temp files behind: %d entries", len(entries))
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The header is an 8-byte magic, then the little-endian format.
	const formatAt = 8
	if got := binary.LittleEndian.Uint32(data[formatAt:]); got != selection.SaveFormat {
		t.Fatalf("saved format %d, want %d", got, selection.SaveFormat)
	}

	// A future format must be rejected with a friendly error.
	future := slices.Clone(data)
	binary.LittleEndian.PutUint32(future[formatAt:], 99)
	futurePath := filepath.Join(dir, "future.sel")
	if err := os.WriteFile(futurePath, future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := selection.Load(futurePath); err == nil || !strings.Contains(err.Error(), "format 99") {
		t.Fatalf("future format: err = %v, want friendly mismatch error", err)
	}
}

// legacySelector is the JSON form Save wrote in formats 0 and 1; format
// 0 files lack the "format" field.
type legacySelector struct {
	Format  int                    `json:"format,omitempty"`
	Kinds   []int                  `json:"kinds"`
	Dynamic bool                   `json:"dynamic"`
	Models  map[string]*mart.Model `json:"models"`
}

// TestLoadLegacyJSON: selectors written as JSON by earlier versions
// (format 0, unversioned, and format 1) still load, and predict exactly
// as the selector they were written from; a JSON file claiming a newer
// format is refused by name.
func TestLoadLegacyJSON(t *testing.T) {
	ex := pool(t)
	s, err := selection.Train(ex, selection.Config{Kinds: progress.ExtendedKinds(), Dynamic: true, Mart: fastOpts()})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, format := range []int{0, 1, 7} {
		p := legacySelector{Format: format, Dynamic: s.Dynamic, Models: map[string]*mart.Model{}}
		for _, k := range s.Kinds {
			p.Kinds = append(p.Kinds, int(k))
			p.Models[k.String()] = s.Models[k]
		}
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if hasField := bytes.Contains(data, []byte(`"format"`)); hasField != (format != 0) {
			t.Fatalf("format %d fixture: format field present = %v", format, hasField)
		}
		path := filepath.Join(dir, fmt.Sprintf("legacy-%d.json", format))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := selection.Load(path)
		if format > 1 {
			if err == nil || !strings.Contains(err.Error(), "format 7") {
				t.Fatalf("JSON format 7: err = %v, want a format error", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("format %d: %v", format, err)
		}
		assertSameSelector(t, s, loaded, ex)
	}
}

func TestEvaluateFixedIdentities(t *testing.T) {
	ex := pool(t)
	kinds := progress.CoreKinds()
	// Sum of strict-optimal shares is 1.
	shares := selection.OptimalShare(kinds, ex)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("optimal shares sum to %v", sum)
	}
	// Almost-optimal shares are each >= strict shares.
	almost := selection.AlmostOptimalShare(kinds, ex)
	for _, k := range kinds {
		if almost[k] < shares[k]-1e-9 {
			t.Errorf("%v: almost-optimal %v < strict %v", k, almost[k], shares[k])
		}
	}
	// Significantly-best shares sum to <= 1.
	sig := selection.SignificantlyBestShare(kinds, ex)
	sum = 0
	for _, v := range sig {
		sum += v
	}
	if sum > 1.001 {
		t.Errorf("significantly-best shares sum to %v > 1", sum)
	}
}

func TestEvaluationTailMonotone(t *testing.T) {
	ex := pool(t)
	for _, k := range progress.CoreKinds() {
		ev := selection.EvaluateFixed(k, progress.CoreKinds(), ex)
		if ev.RatioOver2x < ev.RatioOver5x || ev.RatioOver5x < ev.RatioOver10x {
			t.Errorf("%v: tail fractions not monotone: %v %v %v",
				k, ev.RatioOver2x, ev.RatioOver5x, ev.RatioOver10x)
		}
	}
}

func TestTrainRejectsEmptyInput(t *testing.T) {
	if _, err := selection.Train(nil, selection.Config{}); err == nil {
		t.Error("empty training set should error")
	}
}

func TestBestKind(t *testing.T) {
	var e selection.Example
	e.ErrL1[progress.DNE] = 0.5
	e.ErrL1[progress.TGN] = 0.1
	e.ErrL1[progress.LUO] = 0.3
	if got := e.BestKind(progress.CoreKinds()); got != progress.TGN {
		t.Errorf("BestKind = %v, want TGN", got)
	}
}

func TestSyntheticSeparableSelection(t *testing.T) {
	// A fully learnable synthetic task: feature 0 decides which estimator
	// is good. The selector must recover this rule out of sample.
	rng := rand.New(rand.NewSource(42))
	mk := func(n int) []selection.Example {
		out := make([]selection.Example, n)
		for i := range out {
			f := make([]float64, features.NumStatic)
			for j := range f {
				f[j] = rng.Float64()
			}
			var e selection.Example
			e.Features = f
			if f[0] > 0.5 {
				e.ErrL1[progress.DNE] = 0.05
				e.ErrL1[progress.TGN] = 0.40
			} else {
				e.ErrL1[progress.DNE] = 0.40
				e.ErrL1[progress.TGN] = 0.05
			}
			e.ErrL1[progress.LUO] = 0.25
			out[i] = e
		}
		return out
	}
	s, err := selection.Train(mk(500), selection.Config{Kinds: progress.CoreKinds(), Mart: fastOpts()})
	if err != nil {
		t.Fatal(err)
	}
	test := mk(200)
	ev := selection.Evaluate(s, test)
	if ev.PickedOptimal < 0.95 {
		t.Errorf("separable task: picked optimal only %.2f", ev.PickedOptimal)
	}
	if ev.AvgL1 > 0.08 {
		t.Errorf("separable task: avg L1 %.4f", ev.AvgL1)
	}
}
