package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"progressest/internal/exec"
	"progressest/internal/plan"
	"progressest/internal/selection"
)

// RunOptions controls workload execution and example harvesting.
type RunOptions struct {
	// MinObservations drops pipelines with fewer counter snapshots
	// (too short for meaningful progress estimation); default 8.
	MinObservations int
	// Exec are the engine options; MemBudgetRows == 0 enables the default
	// randomised memory-contention policy (some queries spill, some do
	// not, as in a loaded server).
	Exec exec.Options
	// Seed drives the memory-contention policy.
	Seed int64
}

func (o RunOptions) withDefaults() RunOptions {
	if o.MinObservations <= 0 {
		o.MinObservations = 8
	}
	return o
}

// Result is the harvest of one workload run.
type Result struct {
	// Examples holds one labelled instance per usable pipeline.
	Examples []selection.Example
	// OpPipelineShare is, per operator, the fraction of pipelines whose
	// plan contains it (Table 1).
	OpPipelineShare map[plan.OpType]float64
	// NumQueries and NumPipelines count executed queries and total
	// (pre-filter) pipelines.
	NumQueries   int
	NumPipelines int
}

// queryResult is the harvest of one executed query.
type queryResult struct {
	examples     []selection.Example
	opCount      map[plan.OpType]int
	numPipelines int
}

// perQueryExecOptions draws the engine options for every query up front,
// consuming the memory-contention RNG in query order. Precomputing the
// whole sequence makes the per-query work order-independent, so the
// parallel runner produces bit-identical results to the sequential one.
func (w *Workload) perQueryExecOptions(opts RunOptions) []exec.Options {
	memRng := rand.New(rand.NewSource(opts.Seed ^ 0x0ddba11))
	out := make([]exec.Options, len(w.Queries))
	for qi := range w.Queries {
		execOpts := opts.Exec
		if execOpts.MemBudgetRows == 0 {
			// Memory-contention policy: a third of queries run with ample
			// memory, the rest under a randomised budget.
			if memRng.Intn(3) > 0 {
				execOpts.MemBudgetRows = 300 + memRng.Intn(3700)
			}
		}
		out[qi] = execOpts
	}
	return out
}

// runQuery plans, executes and harvests one query. It only reads shared
// workload state (database, statistics, planner thresholds), so distinct
// queries can run concurrently.
func (w *Workload) runQuery(qi int, execOpts exec.Options, minObs int) (*queryResult, error) {
	pl, err := w.Planner.Plan(w.Queries[qi])
	if err != nil {
		return nil, fmt.Errorf("workload %s query %d: %w", w.Spec.Name, qi, err)
	}
	tr := exec.Run(w.DB, pl, execOpts)

	qr := &queryResult{opCount: make(map[plan.OpType]int)}
	for p := range tr.Pipes.Pipelines {
		qr.numPipelines++
		pipe := tr.Pipes.Pipelines[p]
		seen := make(map[plan.OpType]bool)
		for _, id := range pipe.Nodes {
			op := tr.Plan.Node(id).Op
			if !seen[op] {
				seen[op] = true
				qr.opCount[op]++
			}
		}
	}
	qr.examples = HarvestTrace(tr, w.Spec.Name, w.QueryFamily(qi), qi, minObs)
	return qr, nil
}

// merge folds per-query harvests (in query order) into one Result.
func merge(results []*queryResult) *Result {
	res := &Result{OpPipelineShare: make(map[plan.OpType]float64)}
	opCount := make(map[plan.OpType]int)
	for _, qr := range results {
		res.Examples = append(res.Examples, qr.examples...)
		for op, c := range qr.opCount {
			opCount[op] += c
		}
		res.NumPipelines += qr.numPipelines
		res.NumQueries++
	}
	if res.NumPipelines > 0 {
		for op, c := range opCount {
			res.OpPipelineShare[op] = float64(c) / float64(res.NumPipelines)
		}
	}
	return res
}

// Run executes every query of the workload and harvests per-pipeline
// training examples: the full feature vector plus the measured L1/L2 error
// of every candidate estimator (replayed over the shared counter trace).
func (w *Workload) Run(opts RunOptions) (*Result, error) {
	opts = opts.withDefaults()
	execOpts := w.perQueryExecOptions(opts)
	results := make([]*queryResult, len(w.Queries))
	for qi := range w.Queries {
		qr, err := w.runQuery(qi, execOpts[qi], opts.MinObservations)
		if err != nil {
			return nil, err
		}
		results[qi] = qr
	}
	return merge(results), nil
}

// RunParallel is Run with the queries fanned out across a worker pool.
// Harvesting is the training hot path and embarrassingly parallel — each
// query owns its plan, execution context and trace, while the database,
// statistics and planner are only read — so the speedup is near-linear.
// Results are merged in query order and are identical to Run's.
// workers <= 0 uses GOMAXPROCS.
func (w *Workload) RunParallel(opts RunOptions, workers int) (*Result, error) {
	opts = opts.withDefaults()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	execOpts := w.perQueryExecOptions(opts)
	results := make([]*queryResult, len(w.Queries))
	errs := make([]error, len(w.Queries))

	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range next {
				results[qi], errs[qi] = w.runQuery(qi, execOpts[qi], opts.MinObservations)
			}
		}()
	}
	for qi := range w.Queries {
		next <- qi
	}
	close(next)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return merge(results), nil
}

// BuildAndRun is the convenience composition of Build and Run.
func BuildAndRun(spec Spec, opts RunOptions) (*Result, error) {
	w, err := Build(spec)
	if err != nil {
		return nil, err
	}
	return w.Run(opts)
}
