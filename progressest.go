// Package progressest is a reproduction of "A Statistical Approach
// Towards Robust Progress Estimation" (König, Ding, Chaudhuri, Narasayya;
// VLDB 2011): a library for robust SQL progress estimation by statistical
// selection among candidate progress estimators.
//
// The package bundles a complete substrate — synthetic decision-support
// databases, a cost-based planner with realistic cardinality-estimation
// error, and a Volcano-style execution engine instrumented with the
// GetNext/bytes counters progress estimators consume — together with the
// paper's candidate estimators (DNE, TGN, LUO, PMAX, SAFE, BATCHDNE,
// DNESEEK, TGNINT) and the MART-based estimator-selection framework.
//
// Typical use:
//
//	w, _ := progressest.Open(progressest.Config{Dataset: progressest.TPCH})
//	run, _ := w.Run(0)                     // execute one query
//	series := run.Estimates(0, progressest.DNE)
//	examples, _ := w.Harvest()             // labelled training data
//	sel, _ := progressest.TrainSelector(examples, progressest.SelectorConfig{})
//	best := sel.Pick(run.Features(0))      // chosen estimator per pipeline
package progressest

import (
	"errors"
	"fmt"
	"sync/atomic"

	"progressest/internal/catalog"
	"progressest/internal/datagen"
	"progressest/internal/exec"
	"progressest/internal/features"
	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/progress"
	"progressest/internal/selection"
	"progressest/internal/workload"
)

// Dataset selects one of the four database/workload families used in the
// paper's evaluation.
type Dataset = datagen.DatasetKind

// The workload families.
const (
	TPCH  Dataset = datagen.TPCHLike
	TPCDS Dataset = datagen.TPCDSLike
	Real1 Dataset = datagen.Real1Like
	Real2 Dataset = datagen.Real2Like
)

// Design selects the physical-design preset (index set).
type Design = catalog.DesignLevel

// The physical designs.
const (
	Untuned        Design = catalog.Untuned
	PartiallyTuned Design = catalog.PartiallyTuned
	FullyTuned     Design = catalog.FullyTuned
)

// Estimator identifies a progress estimator.
type Estimator = progress.Kind

// The candidate estimators (see the paper, Sections 3.4 and 5) and the
// idealised oracle models (Section 6.7).
const (
	DNE           Estimator = progress.DNE
	TGN           Estimator = progress.TGN
	LUO           Estimator = progress.LUO
	PMAX          Estimator = progress.PMAX
	SAFE          Estimator = progress.SAFE
	BATCHDNE      Estimator = progress.BATCHDNE
	DNESEEK       Estimator = progress.DNESEEK
	TGNINT        Estimator = progress.TGNINT
	OracleGetNext Estimator = progress.OracleGetNext
	OracleBytes   Estimator = progress.OracleBytes
)

// CoreEstimators returns the three previously published estimators.
func CoreEstimators() []Estimator { return progress.CoreKinds() }

// AllEstimators returns all selectable candidate estimators, including
// the paper's novel special-purpose ones.
func AllEstimators() []Estimator { return progress.ExtendedKinds() }

// Config describes a workload instance.
type Config struct {
	// Dataset picks the database family (default TPCH).
	Dataset Dataset
	// Queries is the number of queries to generate (default 100).
	Queries int
	// Scale scales base-table row counts (default 0.15).
	Scale float64
	// Zipf is the data-skew factor z (default 1). 0 means the default,
	// so Open cannot ask for uniform (z = 0) data.
	Zipf float64
	// Design is the physical-design preset. The zero value is Untuned
	// (primary-key indexes only).
	Design Design
	// Seed makes everything deterministic (default 1).
	Seed int64
}

// Workload is a generated database plus parameterised queries.
type Workload struct {
	inner *workload.Workload
	// plans memoizes the physical plan and pipeline decomposition per
	// query index, one slot per query. Planning is deterministic and
	// execution never mutates a plan, so one planned query backs any
	// number of concurrent runs, on every engine shard.
	plans []atomic.Pointer[plannedQuery]
	// texts holds each query's pseudo-SQL, rendered once at Open.
	texts []string
}

// plannedQuery is the per-plan set-up every run of a query shares, for
// the Workload's lifetime.
type plannedQuery struct {
	plan  *plan.Plan
	pipes *pipeline.Decomposition
	// starts caches each pipeline's start context and static feature
	// prefix across the plan's runs.
	starts *progress.PlanCache
}

// planned returns the plan+decomposition of query i, planning on first
// use. Concurrent first users each plan (identically); the first to
// publish wins and every caller returns the winner.
func (w *Workload) planned(i int) (*plannedQuery, error) {
	slot := &w.plans[i]
	if pq := slot.Load(); pq != nil {
		return pq, nil
	}
	pl, err := w.inner.Planner.Plan(w.inner.Queries[i])
	if err != nil {
		return nil, err
	}
	pipes := pipeline.Decompose(pl)
	slot.CompareAndSwap(nil, &plannedQuery{plan: pl, pipes: pipes, starts: progress.NewPlanCache(pipes)})
	return slot.Load(), nil
}

// Open generates the database and queries for the configuration.
func Open(cfg Config) (*Workload, error) {
	if cfg.Queries <= 0 {
		cfg.Queries = 100
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 0.15
	}
	if cfg.Zipf < 0 {
		return nil, errors.New("progressest: negative Zipf factor")
	}
	if cfg.Zipf == 0 {
		cfg.Zipf = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	w, err := workload.Build(workload.Spec{
		Name:    cfg.Dataset.String(),
		Kind:    cfg.Dataset,
		Queries: cfg.Queries,
		Scale:   cfg.Scale,
		Zipf:    cfg.Zipf,
		Design:  cfg.Design,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	texts := make([]string, len(w.Queries))
	for i, q := range w.Queries {
		texts[i] = q.String()
	}
	return &Workload{inner: w, plans: make([]atomic.Pointer[plannedQuery], len(w.Queries)), texts: texts}, nil
}

// NumQueries returns the number of generated queries.
func (w *Workload) NumQueries() int { return len(w.inner.Queries) }

// QueryText returns a pseudo-SQL rendering of query i, or "" for an index
// outside the workload.
func (w *Workload) QueryText(i int) string {
	if i < 0 || i >= len(w.texts) {
		return ""
	}
	return w.texts[i]
}

// QueryFamily returns the workload family of query i — queries driven by
// the same base table form one family. A family is a query's admission
// class (its weighted-fair-queueing key) and the tag its harvested
// examples carry (corpus retention quotas key on it); one selection model
// serves every family.
func (w *Workload) QueryFamily(i int) string {
	if i < 0 || i >= len(w.inner.Queries) {
		return ""
	}
	return w.inner.QueryFamily(i)
}

// Run plans and executes query i under a streaming view of its
// estimators and returns the finished run.
func (w *Workload) Run(i int) (*QueryRun, error) {
	if i < 0 || i >= len(w.inner.Queries) {
		return nil, fmt.Errorf("progressest: query index %d out of range [0,%d)", i, len(w.inner.Queries))
	}
	pq, err := w.planned(i)
	if err != nil {
		return nil, err
	}
	view := progress.NewCachedOnlineView(pq.plan, pq.pipes, pq.starts)
	exec.RunDecomposed(w.inner.DB, pq.plan, pq.pipes, exec.Options{Observer: view})
	return newQueryRun(view), nil
}

// Example is one labelled pipeline execution: a feature vector plus the
// measured error of every candidate estimator.
type Example = selection.Example

// Harvest executes every query of the workload and returns one labelled
// Example per sufficiently long pipeline — the training data for
// TrainSelector. The queries fan out across GOMAXPROCS workers; the
// examples come back in query order, the same at any worker count.
func (w *Workload) Harvest() ([]Example, error) {
	res, err := w.inner.Run(workload.RunOptions{Seed: w.inner.Spec.Seed})
	if err != nil {
		return nil, err
	}
	return res.Examples, nil
}

// HarvestParallel is Harvest; workers is ignored.
//
// Deprecated: Harvest already fans the queries across GOMAXPROCS
// workers. It stays only because the benchmark's set-up calls it.
func (w *Workload) HarvestParallel(workers int) ([]Example, error) { return w.Harvest() }

// QueryRun is one executed query, read from the finished streaming view
// that observed it. It writes nothing once built, so any number of
// goroutines may read one run, and every slice it returns is the
// caller's.
type QueryRun struct {
	view *progress.OnlineView
}

// newQueryRun reads a run off its finished view.
func newQueryRun(view *progress.OnlineView) *QueryRun { return &QueryRun{view: view} }

// PlanText renders the executed physical plan.
func (r *QueryRun) PlanText() string { return r.view.Plan.String() }

// NumPipelines returns the number of pipelines in the plan.
func (r *QueryRun) NumPipelines() int { return len(r.view.Pipelines) }

// Observations returns the number of counter snapshots recorded for
// pipeline p.
func (r *QueryRun) Observations(p int) int { return r.view.Pipelines[p].NumObs() }

// Estimates returns estimator e's progress series over pipeline p's
// observations (values in [0, 1]).
func (r *QueryRun) Estimates(p int, e Estimator) []float64 {
	return r.view.AppendSeries(make([]float64, 0, r.Observations(p)), p, e)
}

// TrueProgress returns the true (virtual-time) progress of pipeline p at
// each observation.
func (r *QueryRun) TrueProgress(p int) []float64 {
	return r.view.AppendTrueSeries(make([]float64, 0, r.Observations(p)), p)
}

// Errors returns estimator e's L1 and L2 progress error on pipeline p.
func (r *QueryRun) Errors(p int, e Estimator) (l1, l2 float64) {
	st := r.view.Errors(p, e)
	return st.L1, st.L2
}

// Features returns the selection feature vector of pipeline p (static
// prefix + dynamic suffix).
func (r *QueryRun) Features(p int) []float64 {
	return append(features.Static(r.view.Context(p)), features.Dynamic(r.view.Pipelines[p])...)
}

// QueryEstimates returns the whole-query progress served at every
// retained counter snapshot of the query — the eq. 5 combination of the
// pipeline estimates, weighted by estimated work — using estimator e for
// every pipeline. The last value is the final update's 1.
func (r *QueryRun) QueryEstimates(e Estimator) []float64 {
	return r.view.AppendQuerySeries(nil, func(int) Estimator { return e })
}

// QueryTrueProgress returns the true whole-query progress per snapshot.
func (r *QueryRun) QueryTrueProgress() []float64 { return r.view.AppendQueryTrueSeries(nil) }

// QueryErrors returns the L1/L2 error of a single-estimator whole-query
// progress series.
func (r *QueryRun) QueryErrors(e Estimator) (l1, l2 float64) {
	st := r.view.QueryErrors(e)
	return st.L1, st.L2
}

// PipelineWeight returns pipeline p's share of the query's estimated total
// work: the eq. 5 weight the served combination ended with.
func (r *QueryRun) PipelineWeight(p int) float64 { return r.view.QueryWeight(p) }

// FeatureNames returns the ordered names of the feature vector entries.
func FeatureNames() []string { return features.Names() }

// SelectorConfig configures selector training.
type SelectorConfig struct {
	// Candidates is the estimator set to select among (default
	// AllEstimators()).
	Candidates []Estimator
	// StaticOnly restricts models to plan-time features; by default the
	// selector also uses dynamic execution-feedback features.
	StaticOnly bool
	// Trees is the number of MART boosting iterations (default 200, as in
	// the paper).
	Trees int
	// Seed drives stochastic boosting (default 1).
	Seed int64
}

// Selector picks the estimator with the smallest predicted error for a
// pipeline.
type Selector struct {
	inner *selection.Selector
}

// TrainSelector fits one MART error-regression model per candidate
// estimator (the paper's Section 4 framework).
func TrainSelector(examples []Example, cfg SelectorConfig) (*Selector, error) {
	s, err := selection.Train(examples, selectionConfig(cfg))
	if err != nil {
		return nil, err
	}
	return &Selector{inner: s}, nil
}

// FixedSelector returns the selector that always picks e. It refuses the
// oracle estimators, which need the finished trace.
func FixedSelector(e Estimator) (*Selector, error) {
	if e < 0 || e >= progress.NumKinds {
		return nil, fmt.Errorf("progressest: estimator %v is not computable online", e)
	}
	return &Selector{inner: selection.Fixed(e)}, nil
}

// Pick returns the estimator with the smallest predicted error for the
// feature vector.
func (s *Selector) Pick(featureVector []float64) Estimator {
	return s.inner.Select(featureVector)
}

// PredictedErrors returns the predicted L1 error per candidate (none for
// a FixedSelector).
func (s *Selector) PredictedErrors(featureVector []float64) map[Estimator]float64 {
	return s.inner.PredictErrors(featureVector)
}

// Save writes the selector to a binary selector file (not a
// FixedSelector: it has no model).
func (s *Selector) Save(path string) error { return s.inner.Save(path) }

// LoadSelector reads a selector saved by Save, or a JSON selector file
// written by an earlier version.
func LoadSelector(path string) (*Selector, error) {
	inner, err := selection.Load(path)
	if err != nil {
		return nil, err
	}
	return &Selector{inner: inner}, nil
}

// Evaluation summarises a selector or fixed estimator on test examples.
type Evaluation = selection.Evaluation

// EvaluateSelector runs the selector over labelled test examples.
func EvaluateSelector(s *Selector, examples []Example) Evaluation {
	return selection.Evaluate(s.inner, examples)
}

// EvaluateFixed evaluates always using one estimator against the optimal
// choice among candidates.
func EvaluateFixed(e Estimator, candidates []Estimator, examples []Example) Evaluation {
	return selection.EvaluateFixed(e, candidates, examples)
}
