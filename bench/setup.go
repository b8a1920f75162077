package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"progressest"
	"progressest/internal/feedback"
	"progressest/internal/workload"
)

// Sizes of the generated inputs. The database, the corpus and the
// selector are built from dataSeed, not from --seed: the quality metrics
// must repeat to the last digit on every run, so --seed drives only what
// the load generator sends (query order, arrival times).
const (
	dataSeed       = 1
	servingQueries = 40   // the TPCH queries all four workloads submit
	servingScale   = 0.15 // progressest.Config's default
	corpusQueries  = 240  // per family of the seed corpus (TPCH, TPCDS, Real1)
	corpusScale    = 0.1
	holdoutQueries = 120 // the held-out Real2 workload
	selectorTrees  = 20  // boosting rounds, seed selector and every retrain

	// corpusSegmentBytes makes the ~3 MB seed corpus span a dozen sealed
	// segments. With the 4 MiB default it is one unsealed tail, and the
	// segment index, decode cache and scan pool never run.
	corpusSegmentBytes = 256 << 10

	setupRepeats = 3 // setup_s is the median of this many full set-ups
)

// quality is the paper's figure of merit for the seed selector on the
// held-out workload.
type quality struct {
	selectorL1, oracleL1, pickedOptimal float64
	fixedL1                             map[progressest.Estimator]float64
	bestFixed                           progressest.Estimator
}

// env is everything a workload needs that does not depend on --seed.
type env struct {
	clients  int
	serving  *progressest.Workload
	corpus   []progressest.Example
	selector *progressest.Selector
	holdout  []progressest.Example
	quality  quality
	trainMS  float64 // TrainSelector on the seed corpus

	sessions  []sessionInput // session_stream, probes
	corpusDir string         // learn_cycle: the seed corpus on disk
}

func clientCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func servingSpec() workload.Spec {
	return workload.Spec{
		Name: progressest.TPCH.String(), Kind: progressest.TPCH,
		Queries: servingQueries, Scale: servingScale, Zipf: 1, Seed: dataSeed,
	}
}

// setup builds the inputs of one workload. dir is a scratch directory
// the caller owns; learn_cycle writes its corpus there.
func setup(name, dir string) (*env, error) {
	e := &env{clients: clientCount()}
	var err error
	e.serving, err = progressest.Open(progressest.Config{
		Dataset: progressest.TPCH, Queries: servingQueries, Scale: servingScale, Seed: dataSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("open serving workload: %w", err)
	}
	for _, ds := range []progressest.Dataset{progressest.TPCH, progressest.TPCDS, progressest.Real1} {
		exs, err := harvest(ds, corpusQueries)
		if err != nil {
			return nil, err
		}
		e.corpus = append(e.corpus, exs...)
	}
	start := time.Now()
	e.selector, err = progressest.TrainSelector(e.corpus, progressest.SelectorConfig{Trees: selectorTrees, Seed: dataSeed})
	if err != nil {
		return nil, fmt.Errorf("train seed selector: %w", err)
	}
	e.trainMS = float64(time.Since(start)) / float64(time.Millisecond)
	if e.holdout, err = harvest(progressest.Real2, holdoutQueries); err != nil {
		return nil, err
	}
	e.quality = evaluate(e.selector, e.holdout)

	switch name {
	case sessionStream:
		w, err := workload.Build(servingSpec())
		if err != nil {
			return nil, fmt.Errorf("build serving workload: %w", err)
		}
		if e.sessions, err = recordSessions(w); err != nil {
			return nil, err
		}
	case learnCycle:
		e.corpusDir = filepath.Join(dir, "corpus")
		if err := writeCorpus(e.corpusDir, e.corpus); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func harvest(ds progressest.Dataset, queries int) ([]progressest.Example, error) {
	w, err := progressest.Open(progressest.Config{Dataset: ds, Queries: queries, Scale: corpusScale, Seed: dataSeed})
	if err != nil {
		return nil, fmt.Errorf("open %v: %w", ds, err)
	}
	exs, err := w.HarvestParallel(runtime.NumCPU())
	if err != nil {
		return nil, fmt.Errorf("harvest %v: %w", ds, err)
	}
	return exs, nil
}

func evaluate(sel *progressest.Selector, holdout []progressest.Example) quality {
	ev := progressest.EvaluateSelector(sel, holdout)
	q := quality{
		selectorL1: ev.AvgL1, oracleL1: ev.OracleL1, pickedOptimal: ev.PickedOptimal,
		fixedL1: make(map[progressest.Estimator]float64),
	}
	best := -1.0
	for k := progressest.DNE; k <= progressest.TGNINT; k++ {
		var sum float64
		for i := range holdout {
			sum += holdout[i].ErrL1[k]
		}
		q.fixedL1[k] = sum / float64(len(holdout))
	}
	// Best fixed among the selectable candidates only: PMAX and SAFE are
	// reported for context but the selector cannot pick them.
	for _, k := range progressest.AllEstimators() {
		if best < 0 || q.fixedL1[k] < best {
			best, q.bestFixed = q.fixedL1[k], k
		}
	}
	return q
}

// writeCorpus writes the seed corpus in the store's segmented format,
// sized so that it spans several sealed segments.
func writeCorpus(dir string, exs []progressest.Example) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	s, err := feedback.OpenStore(dir, feedback.StoreOptions{MaxSegmentBytes: corpusSegmentBytes, MaxExamples: -1})
	if err != nil {
		return fmt.Errorf("open corpus store: %w", err)
	}
	if _, err := s.AppendAll(exs); err != nil {
		s.Close()
		return fmt.Errorf("write corpus: %w", err)
	}
	return s.Close()
}

// timedSetup runs setup setupRepeats times and returns the last
// environment with the median wall time: one set-up is ~2 s of
// single-shot work, too few samples for a steady number otherwise.
func timedSetup(name, dir string, repeats int) (*env, float64, error) {
	var e *env
	var secs []float64
	for i := 0; i < repeats; i++ {
		e = nil
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = setup(name, dir); err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return e, median(secs), nil
}
