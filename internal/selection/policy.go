package selection

import (
	"progressest/internal/exec"
	"progressest/internal/features"
	"progressest/internal/progress"
)

// reselectMarkers are the driver-input fractions at which the policy
// revises its choice — derived from the dynamic-feature markers so that
// re-selection always coincides with the crossings the feature vector
// encodes (selection stops refining after the last marker, 20%).
var reselectMarkers = func() []float64 {
	out := make([]float64, len(features.Markers))
	for i, x := range features.Markers {
		out[i] = float64(x) / 100
	}
	return out
}()

// Policy is the online estimator choice of Section 4.4, as served: a
// pipeline's first pick is made at its start from the static prefix (the
// dynamic suffix still holds its neutral defaults), and revised each time
// its driver-input fraction crosses a marker. A pick that can no longer
// change — a one-candidate selector's (Fixed), made without features, or
// the one made at the last marker — settles its pipeline
// (progress.OnlinePipeline.Settle), so the view advances only what is
// served. The live monitor and the replays that score it drive the same
// Policy, so what is scored is what was served. A Policy serves one run.
type Policy struct {
	sel       *Selector
	choice    []progress.Kind
	nextMark  []int // per pipeline, the next marker to cross
	obsBefore []int // per pipeline, observation count at segment start
}

// NewPolicy prepares the policy for a plan of n pipelines picking by sel.
// Until its start, a pipeline shows sel's first candidate.
func NewPolicy(sel *Selector, n int) Policy {
	p := Policy{sel: sel, choice: make([]progress.Kind, n)}
	for i := range p.choice {
		p.choice[i] = sel.Kinds[0]
	}
	if !p.fixed() {
		marks := make([]int, 2*n)
		p.nextMark, p.obsBefore = marks[:n:n], marks[n:]
	}
	return p
}

// fixed reports whether the one candidate's pick is final from the start.
func (p *Policy) fixed() bool { return len(p.sel.Kinds) == 1 }

// Choice returns the estimator currently chosen for pipeline pi.
func (p *Policy) Choice(pi int) progress.Kind { return p.choice[pi] }

// Start starts pipeline st.Pipe in view and makes its first pick. With
// one candidate that pick is final, so the pipeline settles at once.
func (p *Policy) Start(view *progress.OnlineView, st exec.PipelineStart) {
	view.OnPipelineStart(st)
	pl := view.Pipelines[st.Pipe]
	if p.fixed() {
		pl.Settle(p.choice[st.Pipe])
		return
	}
	p.choice[st.Pipe] = p.sel.PickOnline(pl)
}

// Advance feeds a segment of snapshots to view and re-picks every
// pipeline whose driver fraction crossed a marker within it.
func (p *Policy) Advance(view *progress.OnlineView, seg []exec.Snapshot) {
	if p.fixed() {
		view.OnSnapshots(seg)
		return
	}
	for pi, pl := range view.Pipelines {
		p.obsBefore[pi] = pl.NumObs()
	}
	view.OnSnapshots(seg)
	p.repickCrossed(view)
}

// repickCrossed advances each active pipeline's marker cursor over the
// observations its segment appended, re-picking the estimator when a
// marker was crossed. Scanning every new observation's recorded fraction
// (not just the segment's final one) keeps the marker bookkeeping — and
// therefore the picks, whose dynamic features depend only on the
// first-crossing ordinals and the immutable history at them — identical
// to per-snapshot delivery. Pipeline starts and thins always flush the
// pending batch, so the active set and the history are segment-stable.
// Once the cursor has passed the last marker, nothing is left to cross:
// the pick made there is final, the pipeline settles, and the policy
// reads none of its later observations.
func (p *Policy) repickCrossed(view *progress.OnlineView) {
	last := len(reselectMarkers)
	for pi, pl := range view.Pipelines {
		if !pl.Started || pl.Ended || p.nextMark[pi] == last {
			continue
		}
		crossed := false
		rows := pl.Rows()
		for i := p.obsBefore[pi]; i < pl.NumObs() && p.nextMark[pi] < last; i++ {
			f := rows.DriverFraction(i)
			for p.nextMark[pi] < last && f >= reselectMarkers[p.nextMark[pi]] {
				p.nextMark[pi]++
				crossed = true
			}
		}
		if crossed {
			p.choice[pi] = p.sel.PickOnline(pl)
			if p.nextMark[pi] == last {
				pl.Settle(p.choice[pi])
			}
		}
	}
}

// Replay feeds a finished trace through a fresh view under the policy,
// one snapshot at a time — the stream a monitor with UpdateEvery 1
// serves — calling served, when non-nil, after each snapshot. It returns
// the finished view and each pipeline's first pick.
func (p *Policy) Replay(tr *exec.Trace, served func(view *progress.OnlineView)) (*progress.OnlineView, []progress.Kind) {
	r := &policyReplay{
		OnlineView: progress.NewOnlineView(tr.Plan, tr.Pipes),
		pol:        p,
		served:     served,
		first:      make([]progress.Kind, len(tr.Pipes.Pipelines)),
	}
	copy(r.first, p.choice)
	exec.Replay(tr, r, 1)
	return r.OnlineView, r.first
}

// policyReplay is the exec.Observer Replay drives: the view's own events,
// with starts and snapshots routed through the policy.
type policyReplay struct {
	*progress.OnlineView
	pol    *Policy
	served func(*progress.OnlineView)
	first  []progress.Kind
}

func (r *policyReplay) OnPipelineStart(st exec.PipelineStart) {
	r.pol.Start(r.OnlineView, st)
	r.first[st.Pipe] = r.pol.Choice(st.Pipe)
}

func (r *policyReplay) OnSnapshots(batch []exec.Snapshot) {
	r.pol.Advance(r.OnlineView, batch)
	if r.served != nil {
		r.served(r.OnlineView)
	}
}
