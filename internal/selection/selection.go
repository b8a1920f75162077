// Package selection implements the paper's core contribution: a
// statistical estimator-selection framework (Section 4). For each
// candidate progress estimator a MART regression model predicts the
// estimation error that estimator would incur on a pipeline, from static
// (and optionally dynamic) features; the framework then selects the
// estimator with the smallest predicted error. Selection is per pipeline;
// whole-query progress is the estimate-weighted sum of pipeline estimates
// (eq. 5).
package selection

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"

	"progressest/internal/atomicio"
	"progressest/internal/features"
	"progressest/internal/mart"
	"progressest/internal/progress"
)

// Example is one labelled training/test instance: the feature vector of a
// pipeline execution plus the measured error of every candidate estimator
// on it.
type Example struct {
	// Features is the full vector (static prefix + dynamic suffix).
	Features []float64
	// ErrL1[k] / ErrL2[k] are the L1/L2 progress errors of estimator k,
	// including the oracle models at the tail indices.
	ErrL1 [progress.TotalKinds]float64
	ErrL2 [progress.TotalKinds]float64

	// Workload tags the source workload (used for leave-one-out splits).
	Workload string
	// Signature identifies the pipeline's operator shape; the selectivity
	// sensitivity experiment groups recurring pipelines by it.
	Signature string
	// Family tags the query's workload family (the key of the corpus's
	// per-family retention quota); "" on examples harvested before family
	// tagging existed.
	Family string
	// Meta carries free-form provenance (query/pipeline ids, GetNext
	// totals) for the sensitivity experiments.
	Meta map[string]float64
}

// BestKind returns the estimator with the smallest L1 error among kinds.
func (e *Example) BestKind(kinds []progress.Kind) progress.Kind {
	best := kinds[0]
	for _, k := range kinds[1:] {
		if e.ErrL1[k] < e.ErrL1[best] {
			best = k
		}
	}
	return best
}

// Config controls training of a Selector.
type Config struct {
	// Kinds is the candidate estimator set (e.g. progress.CoreKinds()).
	Kinds []progress.Kind
	// Dynamic selects whether models see the dynamic feature suffix.
	Dynamic bool
	// Mart are the boosting hyperparameters (paper defaults: M=200 trees,
	// 30 leaves).
	Mart mart.Options
	// MaxTrainExamples caps the training-set size by deterministic
	// systematic sampling (0 = unlimited). Training time scales linearly
	// in the example count (Table 7), so large experiment suites cap it.
	MaxTrainExamples int
}

// Selector is a trained estimator-selection module.
type Selector struct {
	Kinds   []progress.Kind
	Dynamic bool
	Models  map[progress.Kind]*mart.Model
}

// featureSlice truncates the vector to the static prefix for static-only
// selectors.
func featureSlice(full []float64, dynamic bool) []float64 {
	if dynamic || len(full) <= features.NumStatic {
		return full
	}
	return full[:features.NumStatic]
}

// Train fits one error-regression model per candidate estimator.
//
// The kinds share one design matrix, so it is binned once (mart.Bin) and
// every kind's label vector is fitted on that read-only binning. The fits
// share nothing else and run on min(GOMAXPROCS, len(Kinds)) goroutines —
// a derived width, not a setting. Each model depends only on the matrix,
// its own labels and cfg.Mart, so the selector is the same to the last
// bit at any width.
func Train(examples []Example, cfg Config) (*Selector, error) {
	if len(examples) == 0 {
		return nil, errors.New("selection: no training examples")
	}
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = progress.CoreKinds()
	}
	if cfg.MaxTrainExamples > 0 && len(examples) > cfg.MaxTrainExamples {
		stride := (len(examples) + cfg.MaxTrainExamples - 1) / cfg.MaxTrainExamples
		sampled := make([]Example, 0, cfg.MaxTrainExamples)
		for i := 0; i < len(examples); i += stride {
			sampled = append(sampled, examples[i])
		}
		examples = sampled
	}
	X := make([][]float64, len(examples))
	for i := range examples {
		X[i] = featureSlice(examples[i].Features, cfg.Dynamic)
	}
	binned, err := mart.Bin(X, cfg.Mart)
	if err != nil {
		return nil, fmt.Errorf("selection: %w", err)
	}

	kinds := append([]progress.Kind(nil), cfg.Kinds...)
	models := make([]*mart.Model, len(kinds))
	fitErrs := make([]error, len(kinds))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := min(runtime.GOMAXPROCS(0), len(kinds)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, len(examples))
			for ki := range next {
				for i := range examples {
					y[i] = examples[i].ErrL1[kinds[ki]]
				}
				models[ki], fitErrs[ki] = binned.Fit(y)
			}
		}()
	}
	for ki := range kinds {
		next <- ki
	}
	close(next)
	wg.Wait()

	s := &Selector{Kinds: kinds, Dynamic: cfg.Dynamic, Models: make(map[progress.Kind]*mart.Model, len(kinds))}
	var errs error
	for ki, k := range kinds {
		if fitErrs[ki] != nil {
			errs = errors.Join(errs, fmt.Errorf("selection: training model for %v: %w", k, fitErrs[ki]))
		}
		s.Models[k] = models[ki]
	}
	if errs != nil {
		return nil, errs
	}
	return s, nil
}

// PredictErrors returns the predicted L1 error per candidate estimator.
func (s *Selector) PredictErrors(full []float64) map[progress.Kind]float64 {
	x := featureSlice(full, s.Dynamic)
	out := make(map[progress.Kind]float64, len(s.Kinds))
	for _, k := range s.Kinds {
		out[k] = s.Models[k].Predict(x)
	}
	return out
}

// PickOnline selects the estimator for a live pipeline from its current
// online feature vector: the static prefix (cached at pipeline start) plus
// the dynamic suffix over the observations seen so far. As execution
// feedback accrues and markers are crossed, repeated calls let the dynamic
// model revise the choice mid-flight (Section 4.4); before any dynamic
// evidence exists the vector carries the neutral marker defaults, so the
// pick degrades gracefully to a static-feature decision.
func (s *Selector) PickOnline(v *progress.OnlinePipeline) progress.Kind {
	return s.Select(features.OnlineFull(v))
}

// Select returns the estimator with the smallest predicted error.
func (s *Selector) Select(full []float64) progress.Kind {
	x := featureSlice(full, s.Dynamic)
	best := s.Kinds[0]
	bestErr := s.Models[best].Predict(x)
	for _, k := range s.Kinds[1:] {
		if e := s.Models[k].Predict(x); e < bestErr {
			best, bestErr = k, e
		}
	}
	return best
}

// SaveFormat is the current on-disk format version of Save. Format 0
// denotes legacy files written before versioning; they load fine.
const SaveFormat = 1

// persisted is the JSON form of a Selector.
type persisted struct {
	Format  int                    `json:"format"`
	Kinds   []int                  `json:"kinds"`
	Dynamic bool                   `json:"dynamic"`
	Models  map[string]*mart.Model `json:"models"`
}

// Save writes the selector to path as JSON. The write is atomic under
// crashes (see atomicio.WriteFile), so a reader (or a restart) only ever
// sees the old complete file or the new complete file, never a torn one.
func (s *Selector) Save(path string) error {
	p := persisted{Format: SaveFormat, Dynamic: s.Dynamic, Models: map[string]*mart.Model{}}
	for _, k := range s.Kinds {
		p.Kinds = append(p.Kinds, int(k))
		p.Models[k.String()] = s.Models[k]
	}
	data, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("selection: marshal: %w", err)
	}
	if err := atomicio.WriteFile(path, data); err != nil {
		return fmt.Errorf("selection: save: %w", err)
	}
	return nil
}

// Load reads a selector saved by Save.
func Load(path string) (*Selector, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("selection: load: %w", err)
	}
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("selection: unmarshal: %w", err)
	}
	if p.Format > SaveFormat {
		return nil, fmt.Errorf("selection: %s uses selector format %d, but this build only understands formats <= %d — upgrade progressest or retrain the model with this version",
			path, p.Format, SaveFormat)
	}
	s := &Selector{Dynamic: p.Dynamic, Models: map[progress.Kind]*mart.Model{}}
	for _, ki := range p.Kinds {
		if ki < 0 || ki >= progress.TotalKinds {
			return nil, fmt.Errorf("selection: invalid estimator kind %d in %s", ki, path)
		}
		k := progress.Kind(ki)
		s.Kinds = append(s.Kinds, k)
		m, ok := p.Models[k.String()]
		if !ok || m == nil {
			return nil, fmt.Errorf("selection: model for %v missing", k)
		}
		s.Models[k] = m
	}
	return s, nil
}
