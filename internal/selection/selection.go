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
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
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

// Selector is an estimator-selection module: one error model per
// candidate. Fixed(k), one candidate and no model, is the fixed estimator.
type Selector struct {
	Kinds   []progress.Kind
	Dynamic bool
	Models  map[progress.Kind]*mart.Model
}

var fixed = func() (out [progress.TotalKinds]*Selector) {
	for k := range out {
		out[k] = &Selector{Kinds: []progress.Kind{progress.Kind(k)}}
	}
	return out
}()

// Fixed returns the shared selector that always picks k; Save refuses it.
func Fixed(k progress.Kind) *Selector { return fixed[k] }

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

// PredictErrors returns the predicted L1 error per modelled candidate.
func (s *Selector) PredictErrors(full []float64) map[progress.Kind]float64 {
	x := featureSlice(full, s.Dynamic)
	out := make(map[progress.Kind]float64, len(s.Models))
	for _, k := range s.Kinds {
		if m := s.Models[k]; m != nil {
			out[k] = m.Predict(x)
		}
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

// Select returns the estimator with the smallest predicted error, or the
// only candidate without reading full.
func (s *Selector) Select(full []float64) progress.Kind {
	if len(s.Kinds) == 1 {
		return s.Kinds[0]
	}
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

const (
	// SaveFormat is the current on-disk format version of Save. Formats
	// 0 (unversioned) and 1 were JSON; Load still reads them.
	SaveFormat = 2
	// selMagic opens every binary selector file (a JSON one opens '{').
	selMagic = "PESTSELR"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save writes the selector to path, little-endian: selMagic, the uint32
// SaveFormat, a Dynamic byte (0 or 1), a uint32 kind count and the kinds
// as uint32s, then per kind a uint32 length and its mart.Model record,
// and last a CRC-32C of everything before it. The write is atomic (see
// atomicio.WriteFile): a reader sees the old or the new file, never a
// torn one.
func (s *Selector) Save(path string) error {
	data, err := s.encode()
	if err == nil {
		err = atomicio.WriteFile(path, data)
	}
	if err != nil {
		return fmt.Errorf("selection: save: %w", err)
	}
	return nil
}

func (s *Selector) encode() ([]byte, error) {
	if len(s.Kinds) == 0 {
		return nil, errors.New("no kinds") // nothing could serve from it
	}
	le := binary.LittleEndian
	dyn := byte(0)
	if s.Dynamic {
		dyn = 1
	}
	b := le.AppendUint32(append(le.AppendUint32([]byte(selMagic), SaveFormat), dyn), uint32(len(s.Kinds)))
	for _, k := range s.Kinds {
		b = le.AppendUint32(b, uint32(k))
	}
	written := &Selector{Models: make(map[progress.Kind]*mart.Model, len(s.Kinds))}
	for _, k := range s.Kinds {
		if err := written.add(int(k), s.Models[k]); err != nil { // the checks Load makes
			return nil, err
		}
		rec, _ := s.Models[k].AppendBinary(nil) // add validated the model
		b = append(le.AppendUint32(b, uint32(len(rec))), rec...)
	}
	return le.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

// Load reads a selector saved by Save, or a JSON one (formats 0 and 1),
// checking every kind and model (see add): a bad file fails here, not in
// a prediction.
func Load(path string) (*Selector, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("selection: load: %w", err)
	}
	s, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("selection: load %s: %w", path, err)
	}
	return s, nil
}

func decode(data []byte) (*Selector, error) {
	if len(data) > 0 && data[0] == '{' {
		return decodeJSON(data)
	}
	le, head := binary.LittleEndian, len(selMagic)+4
	if len(data) < head+9 || string(data[:len(selMagic)]) != selMagic {
		return nil, errors.New("not a selector file")
	}
	if f := le.Uint32(data[len(selMagic):]); f != SaveFormat {
		return nil, fmt.Errorf("selector format %d is not one this build reads (%d) — upgrade progressest or retrain the model with this version", f, SaveFormat)
	}
	if crc32.Checksum(data[:len(data)-4], castagnoli) != le.Uint32(data[len(data)-4:]) {
		return nil, errors.New("checksum mismatch")
	}
	body := data[head : len(data)-4]
	n := int(le.Uint32(body[1:]))
	if body[0] > 1 || n == 0 || n > progress.TotalKinds || len(body) < 5+4*n {
		return nil, fmt.Errorf("bad header: dynamic flag %d, %d kinds", body[0], n)
	}
	s := &Selector{Dynamic: body[0] == 1, Models: make(map[progress.Kind]*mart.Model, n)}
	kinds, body := body[5:5+4*n], body[5+4*n:]
	for i := range n {
		if len(body) < 4 || int(le.Uint32(body)) > len(body)-4 {
			return nil, errors.New("truncated model")
		}
		rec := body[4 : 4+int(le.Uint32(body))]
		body = body[4+len(rec):]
		m, err := mart.DecodeBinary(rec)
		if err == nil {
			err = s.add(int(le.Uint32(kinds[4*i:])), m)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(body) != 0 {
		return nil, errors.New("trailing bytes")
	}
	return s, nil
}

// add appends kind ki and its model, refusing an unknown or repeated kind
// and a missing or invalid model.
func (s *Selector) add(ki int, m *mart.Model) error {
	k := progress.Kind(ki)
	if _, dup := s.Models[k]; dup || ki < 0 || ki >= progress.TotalKinds || m == nil {
		return fmt.Errorf("estimator kind %d is unknown, repeated or has no model", ki)
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("model for %v: %w", k, err)
	}
	s.Kinds, s.Models[k] = append(s.Kinds, k), m
	return nil
}

// decodeJSON reads the JSON selector files of formats 0 and 1.
func decodeJSON(data []byte) (*Selector, error) {
	var p struct {
		Format  int                    `json:"format"`
		Kinds   []int                  `json:"kinds"`
		Dynamic bool                   `json:"dynamic"`
		Models  map[string]*mart.Model `json:"models"`
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("unmarshal: %w", err)
	}
	if p.Format > 1 {
		return nil, fmt.Errorf("JSON selector format %d: this build writes format %d and reads JSON formats 0 and 1", p.Format, SaveFormat)
	}
	if len(p.Kinds) == 0 {
		return nil, errors.New("no kinds")
	}
	s := &Selector{Dynamic: p.Dynamic, Models: make(map[progress.Kind]*mart.Model, len(p.Kinds))}
	for _, ki := range p.Kinds {
		if err := s.add(ki, p.Models[progress.Kind(ki).String()]); err != nil {
			return nil, err
		}
	}
	return s, nil
}
