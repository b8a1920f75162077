package workload

import (
	"sort"
	"strings"

	"progressest/internal/exec"
	"progressest/internal/features"
	"progressest/internal/progress"
	"progressest/internal/selection"
	"progressest/internal/stats"
)

// labelKinds are the estimators every example carries an error label for:
// the selectable ones, then the two oracle models.
var labelKinds = progress.AllKinds()

// HarvestTrace converts one finished execution trace into labelled
// training examples: it replays the trace through a fresh streaming view
// and labels that view with LabelView — the labeller the serving
// harvester applies to the view that watched the query live, so a batch
// harvest and a served query's corpus examples agree by construction.
// family tags each example with the query's workload family (see
// Workload.QueryFamily). minObs <= 0 uses the default (8).
func HarvestTrace(tr *exec.Trace, workloadName, family string, queryIndex int, minObs int) []selection.Example {
	return LabelView(progress.Replay(tr), tr, workloadName, family, queryIndex, minObs)
}

// LabelView labels one finished execution from the streaming view that
// observed it: for every pipeline with at least minObs observations, one
// example holding the full feature vector at completion and the L1/L2
// error, against true pipeline progress, of every candidate estimator and
// both oracle models. view must have seen the whole run that produced tr
// — live, or through progress.Replay. The selectable estimators' series
// are read from the view as it holds them; only the oracle models divide
// by the trace's true totals. minObs <= 0 uses the default (8).
func LabelView(view *progress.OnlineView, tr *exec.Trace, workloadName, family string, queryIndex, minObs int) []selection.Example {
	if minObs <= 0 {
		minObs = RunOptions{}.withDefaults().MinObservations
	}
	maxObs := 0
	for _, p := range view.Pipelines {
		maxObs = max(maxObs, p.NumObs())
	}
	if maxObs < minObs {
		return nil
	}
	// One scratch for the true series, an estimator's series and their
	// deviation, sized for the longest pipeline.
	scratch := make([]float64, 3*maxObs)
	var out []selection.Example
	for pi, p := range view.Pipelines {
		n := p.NumObs()
		if n < minObs {
			continue
		}
		truth := scratch[:0:maxObs]
		est := scratch[maxObs : maxObs : 2*maxObs]
		dev := scratch[2*maxObs : 2*maxObs+n]
		truth = view.AppendTrueSeries(truth, pi)
		var totalGN float64
		for _, id := range tr.Pipes.Pipelines[pi].Nodes {
			totalGN += float64(tr.N[id])
		}
		ex := selection.Example{
			Features:  append([]float64(nil), features.OnlineFull(p)...),
			Workload:  workloadName,
			Signature: pipelineSignature(tr, pi),
			Family:    family,
			Meta: map[string]float64{
				"query":         float64(queryIndex),
				"pipeline":      float64(pi),
				"getnext_total": totalGN,
			},
		}
		for _, k := range labelKinds {
			est = view.AppendSeries(est[:0], pi, k)
			for i := range dev {
				dev[i] = est[i] - truth[i]
			}
			ex.ErrL1[k] = stats.L1Error(dev)
			ex.ErrL2[k] = stats.L2Error(dev)
		}
		out = append(out, ex)
	}
	return out
}

// pipelineSignature summarises a pipeline's operator shape: the sorted
// multiset of (operator, table) pairs of its members. Instances of the
// same query template produce equal signatures, which is what the
// selectivity-sensitivity experiment (Table 2) groups by.
func pipelineSignature(tr *exec.Trace, p int) string {
	pipe := tr.Pipes.Pipelines[p]
	parts := make([]string, 0, len(pipe.Nodes))
	for _, id := range pipe.Nodes {
		n := tr.Plan.Node(id)
		parts = append(parts, n.Op.String()+":"+n.TableName)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
