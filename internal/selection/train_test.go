package selection_test

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"progressest/internal/features"
	"progressest/internal/mart"
	"progressest/internal/progress"
	"progressest/internal/selection"
)

// syntheticCorpus builds n examples shaped like a harvested corpus at a
// fixed seed: features.NumTotal columns of which about a fifth are
// constant (operators the workload never runs; 45 of 211 on the
// benchmark's corpus), a fifth take a handful of levels (counts, flags)
// and the rest are continuous, with six error labels in [0, 1] that each
// depend non-linearly on a few columns.
func syntheticCorpus(n int, seed int64) []selection.Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]selection.Example, n)
	for i := range out {
		f := make([]float64, features.NumTotal)
		for j := range f {
			switch j % 5 {
			case 0:
				f[j] = 0
			case 1:
				f[j] = float64(rng.Intn(4))
			default:
				f[j] = rng.Float64()
			}
		}
		out[i].Features = f
		for ki, k := range progress.ExtendedKinds() {
			a, b, c := f[2+5*ki], f[3+5*ki], f[1+5*ki]
			e := 0.3*a*b + 0.1*c/3 + 0.02*rng.NormFloat64()
			if a > 0.6 {
				e += 0.25
			}
			out[i].ErrL1[k] = math.Min(1, math.Max(0, e))
		}
	}
	return out
}

// TestTrainParallelWidthIndependent: the per-kind fits run on
// min(GOMAXPROCS, kinds) goroutines over one shared binned matrix, and the
// saved selector must not depend on that width — one goroutine fitting
// the six kinds in order and four goroutines racing through them write
// the same bytes.
func TestTrainParallelWidthIndependent(t *testing.T) {
	corpus := syntheticCorpus(400, 7)
	cfg := selection.Config{Kinds: progress.ExtendedKinds(), Dynamic: true, Mart: mart.Options{Trees: 10, Seed: 1}}
	saved := func(procs int) []byte {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, err := selection.Train(corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "sel.sel")
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one, four := saved(1), saved(4)
	if !bytes.Equal(one, four) {
		t.Fatal("selector trained under GOMAXPROCS(4) differs from GOMAXPROCS(1)")
	}
	if again := saved(4); !bytes.Equal(four, again) {
		t.Fatal("two trainings at the same width differ")
	}
}

// TestTrainParallelFitErrorNamesKind: one kind's fit failing (a NaN error
// label) fails Train with that kind — and only that kind — named, and
// Train still waits for the fits it started.
func TestTrainParallelFitErrorNamesKind(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	corpus := syntheticCorpus(300, 8)
	corpus[17].ErrL1[progress.LUO] = math.NaN()
	s, err := selection.Train(corpus, selection.Config{Kinds: progress.ExtendedKinds(), Dynamic: true, Mart: mart.Options{Trees: 10, Seed: 1}})
	// The failing fit returns at once while the other five are still
	// running; a Train that returned on the first error would leave them
	// reading the examples written here, which -race reports.
	for i := range corpus {
		corpus[i].ErrL1 = [progress.TotalKinds]float64{}
		corpus[i].Features[2] = -1
	}
	if err == nil || s != nil {
		t.Fatalf("Train with a NaN label returned (%v, %v), want an error and no selector", s, err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "model for LUO:") || !strings.Contains(msg, "row 17") {
		t.Errorf("error should name the kind and the row: %v", err)
	}
	if strings.Count(msg, "training model for") != 1 {
		t.Errorf("only the failing kind should be reported: %v", err)
	}
}

var benchSelector *selection.Selector

// BenchmarkSelectionTrain is one selector fit at the repo benchmark's
// shape — ≈1.5k examples × 211 features, six kinds, 20 trees — i.e. what
// one POST /models/retrain spends on its global target.
func BenchmarkSelectionTrain(b *testing.B) {
	corpus := syntheticCorpus(1500, 1)
	cfg := selection.Config{Kinds: progress.ExtendedKinds(), Dynamic: true, Mart: mart.Options{Trees: 20, Seed: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := selection.Train(corpus, cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSelector = s
	}
}

// BenchmarkSelectorLoad reads back a selector at the repo benchmark's
// shape — six kinds of 20 trees over 211 features — i.e. one of the
// files a restart loads per persisted version.
func BenchmarkSelectorLoad(b *testing.B) {
	s, err := selection.Train(syntheticCorpus(1500, 1), selection.Config{
		Kinds: progress.ExtendedKinds(), Dynamic: true, Mart: mart.Options{Trees: 20, Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "selector.sel")
	if err := s.Save(path); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSelector, err = selection.Load(path); err != nil {
			b.Fatal(err)
		}
	}
}
