package selection

import (
	"progressest/internal/exec"
	"progressest/internal/progress"
)

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
	sel    *Selector
	choice []progress.Kind
	marks  []int // per pipeline, the markers crossed at its latest pick
}

// NewPolicy prepares the policy for a plan of n pipelines picking by sel.
// Until its start, a pipeline shows sel's first candidate.
func NewPolicy(sel *Selector, n int) Policy {
	var marks []int
	if len(sel.Kinds) > 1 {
		marks = make([]int, n)
	}
	return newPolicy(sel, make([]progress.Kind, n), marks)
}

// PolicyOn is NewPolicy for the run view observes: the per-pipeline
// state is the view's (progress.OnlineView.PickState), lent by its
// memory when the view borrowed some, and handed back with it.
func PolicyOn(sel *Selector, view *progress.OnlineView) Policy {
	choice, marks := view.PickState(len(sel.Kinds) > 1)
	return newPolicy(sel, choice, marks)
}

// newPolicy is the policy over zero per-pipeline state: every pipeline
// shows sel's first candidate until its start.
func newPolicy(sel *Selector, choice []progress.Kind, marks []int) Policy {
	for i := range choice {
		choice[i] = sel.Kinds[0]
	}
	return Policy{sel: sel, choice: choice, marks: marks}
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
//
// The view finds the crossings (progress.OnlinePipeline.MarkersCrossed):
// it tracks, observation by observation, the first one reaching each
// marker, so the picks — whose dynamic features depend only on those
// observations — are those of per-snapshot delivery. Pipeline starts and
// thins always flush the pending batch, so the active set is
// segment-stable. A thin may leave fewer markers reached than before; a
// marker counts as crossed only once, so the pick waits until the
// driver fraction passes one not crossed yet. Once the last marker is
// crossed, nothing is left to cross: the pick made there is final, and
// the pipeline settles.
func (p *Policy) Advance(view *progress.OnlineView, seg []exec.Snapshot) {
	view.OnSnapshots(seg)
	if p.fixed() {
		return
	}
	last := len(progress.Markers)
	for pi, pl := range view.Pipelines {
		if !pl.Started || pl.Ended || p.marks[pi] == last {
			continue
		}
		if n := pl.MarkersCrossed(); n > p.marks[pi] {
			p.marks[pi] = n
			p.choice[pi] = p.sel.PickOnline(pl)
			if n == last {
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
