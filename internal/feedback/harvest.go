package feedback

import (
	"sync"

	"progressest/internal/exec"
	"progressest/internal/progress"
	"progressest/internal/selection"
	"progressest/internal/workload"
)

// HarvestStats counts the harvester's lifetime activity.
type HarvestStats struct {
	// Queries is the number of finished queries harvested.
	Queries int `json:"queries"`
	// Examples is the number of labelled examples appended to the store.
	Examples int `json:"examples"`
	// Skipped counts pipelines filtered out (too few observations).
	Skipped int `json:"skipped"`
	// Errors counts failed store appends (e.g. harvesting after Close).
	Errors int `json:"errors"`
}

// Harvester turns finished query executions into corpus examples. A
// served query is labelled from the streaming view that watched it run
// (workload.LabelView); a bare trace is replayed into such a view first
// (workload.HarvestTrace) — one labeller either way, so an
// online-harvested corpus is bit-identical to a batch harvest of the same
// traces. When wired with a DriftTracker it additionally closes the
// observed-vs-predicted loop: each harvested example's errors are
// replayed through the selector version pinned to the query at start,
// and the served estimator's error is recorded into that version's own
// drift window.
type Harvester struct {
	store *ExampleStore
	// minObs filters pipelines with too few counter snapshots (<= 0 uses
	// the batch default, 8).
	minObs int
	// drift, when non-nil, receives the observed serving errors of every
	// harvested query that was served by a pinned model version.
	drift *DriftTracker
	// canary, when non-nil, shadow-scores pending challengers on the same
	// harvested examples (champion/challenger confirmation, see canary.go).
	canary *Canary

	mu    sync.Mutex
	stats HarvestStats
}

// NewHarvester wires a harvester to its corpus store. drift and canary
// may be nil (no observed-error tracking / no canary confirmation).
func NewHarvester(store *ExampleStore, minObs int, drift *DriftTracker, canary *Canary) *Harvester {
	return &Harvester{store: store, minObs: minObs, drift: drift, canary: canary}
}

// HarvestTrace labels one finished trace and appends its examples to the
// store, each tagged with the query's workload family (the retention
// quota's key). It returns the number of examples durably
// appended — on a partial failure the prefix written before the error is
// still counted, so the stats stay consistent with the corpus.
func (h *Harvester) HarvestTrace(tr *exec.Trace, workloadName, family string, queryIndex int) (int, error) {
	return h.harvest(tr, workload.HarvestTrace(tr, workloadName, family, queryIndex, h.minObs), nil)
}

// HarvestView is HarvestTrace for a query the serving path monitored:
// view is the streaming view that watched the run that produced tr, so
// labelling reads the estimator series it already holds instead of
// replaying them. served, when non-nil, is the model version pinned to
// the query at start — its observed errors feed the drift tracker and
// the canary. It runs on the executing goroutine, after the query's last
// snapshot.
func (h *Harvester) HarvestView(view *progress.OnlineView, tr *exec.Trace, workloadName, family string, queryIndex int, served *Version) (int, error) {
	return h.harvest(tr, workload.LabelView(view, tr, workloadName, family, queryIndex, h.minObs), served)
}

// harvest appends the labelled examples of tr and runs the drift join:
// with a non-nil served version, the errors its selector's choices incur
// on the freshly harvested examples are recorded into that version's
// drift window. The join uses exactly the examples that land in the
// corpus — the drift verdict and the retrainer's training set always
// agree on what was observed.
func (h *Harvester) harvest(tr *exec.Trace, exs []selection.Example, served *Version) (int, error) {
	n, err := h.store.AppendAll(exs)
	h.mu.Lock()
	h.stats.Queries++
	h.stats.Skipped += len(tr.Pipes.Pipelines) - len(exs)
	h.stats.Examples += n
	if err != nil {
		h.stats.Errors++
	}
	h.mu.Unlock()
	// Only the examples DURABLY appended feed the drift window (on a
	// partial failure that is the prefix): a verdict built from evidence
	// the corpus never stored would trigger retrains on a corpus that
	// lacks the very traffic that drifted.
	if served != nil && served.Selector != nil && n > 0 && (h.drift != nil || h.canary.enabled()) {
		obs := make([]float64, n)
		for i := 0; i < n; i++ {
			obs[i] = exs[i].ErrL1[served.Selector.Select(exs[i].Features)]
		}
		if h.drift != nil {
			h.drift.Record(served, obs)
		}
		// The challenger replays exactly the queries the champion served —
		// obs already holds the champion's per-example error.
		h.canary.Observe(served, exs[:n], obs)
	}
	return n, err
}

// Stats returns a snapshot of the lifetime counters.
func (h *Harvester) Stats() HarvestStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}
