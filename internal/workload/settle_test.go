package workload

import (
	"math/rand"
	"testing"

	"progressest/internal/exec"
	"progressest/internal/features"
	"progressest/internal/mart"
	"progressest/internal/pipeline"
	"progressest/internal/progress"
	"progressest/internal/selection"
)

// settleAt is when the settling property test settles one pipeline.
type settleAt int

const (
	settleNever settleAt = iota
	settleAtStart
	settleAtOrdinal   // once the pipeline holds ordinal observations
	settleBeforeThin  // at the pipeline's first thin, before the view thins
	settleAfterThin   // at the pipeline's first thin, after the view thins
	numSettleSchedule // the schedules a pipeline draws from
)

// settlingObserver feeds one event stream to two views of the same plan:
// plain never settles, settled settles each pipeline on its schedule — or,
// with pol set, as a one-candidate selector's policy settles it. On
// the way it checks the live reads the monitor makes — the latest
// estimate and driver fraction, and eq. 5 — against plain, and that
// reading a row a settled pipeline deferred panics.
type settlingObserver struct {
	t               *testing.T
	plain, settled  *progress.OnlineView
	when            []settleAt
	ordinal         []int
	kind            []progress.Kind // the kind settled on; also the eq. 5 choice
	isSettled       []bool
	deferredChecked int // deferred reads that panicked as they must
	thinSettled     int // pipelines settled at a thin
	pol             *selection.Policy
}

func (o *settlingObserver) settle(p int) {
	o.when[p] = settleNever
	o.settled.Pipelines[p].Settle(o.kind[p])
	o.isSettled[p] = o.kind[p] != progress.PMAX && o.kind[p] != progress.SAFE
}

func (o *settlingObserver) OnPipelineStart(st exec.PipelineStart) {
	o.plain.OnPipelineStart(st)
	if o.pol != nil {
		o.pol.Start(o.settled, st)
		o.isSettled[st.Pipe] = true
		if o.pol.Choice(st.Pipe) != o.kind[st.Pipe] {
			o.t.Fatalf("pipeline %d: the policy picked %v, want %v", st.Pipe, o.pol.Choice(st.Pipe), o.kind[st.Pipe])
		}
		return
	}
	o.settled.OnPipelineStart(st)
	if o.when[st.Pipe] == settleAtStart {
		o.settle(st.Pipe)
	}
}

func (o *settlingObserver) OnSnapshots(batch []exec.Snapshot) {
	o.plain.OnSnapshots(batch)
	if o.pol != nil {
		o.pol.Advance(o.settled, batch)
	} else {
		o.settled.OnSnapshots(batch)
	}
	for p, pl := range o.settled.Pipelines {
		if !pl.Started || pl.Ended {
			continue
		}
		// A pipeline settled before this batch has just been fed: its
		// rows, marker rows included, are deferred.
		if o.isSettled[p] {
			o.mustPanic(p, func() { pl.Rows() })
			o.mustPanic(p, func() { pl.Series(progress.DNE) })
			o.mustPanic(p, func() { pl.Markers() })
			o.deferredChecked++
		}
		if o.when[p] == settleAtOrdinal && pl.NumObs() >= o.ordinal[p] {
			o.settle(p)
		}
	}
	o.checkLive("snapshots")
}

func (o *settlingObserver) OnThin(retained []exec.Snapshot) {
	for p, pl := range o.settled.Pipelines {
		if pl.Started && o.when[p] == settleBeforeThin {
			o.settle(p)
			o.thinSettled++
		}
	}
	o.plain.OnThin(retained)
	o.settled.OnThin(retained)
	for p, pl := range o.settled.Pipelines {
		if pl.Started && o.when[p] == settleAfterThin {
			o.settle(p)
			o.thinSettled++
		}
	}
	o.checkLive("thin")
}

func (o *settlingObserver) OnPipelineEnd(p int, end float64) {
	o.plain.OnPipelineEnd(p, end)
	o.settled.OnPipelineEnd(p, end)
}

func (o *settlingObserver) OnDone(tr *exec.Trace) {
	o.plain.OnDone(tr)
	o.settled.OnDone(tr)
	o.checkLive("done")
}

func (o *settlingObserver) mustPanic(p int, read func()) {
	o.t.Helper()
	defer func() {
		if recover() == nil {
			o.t.Fatalf("pipeline %d: a deferred row read before the run is done returned instead of panicking", p)
		}
	}()
	read()
}

// checkLive compares what a monitor reads between events: each started
// pipeline's observation count, latest estimate of its eq. 5 choice and
// latest driver fraction, and the whole-query estimate.
func (o *settlingObserver) checkLive(at string) {
	o.t.Helper()
	for p, pl := range o.settled.Pipelines {
		ref := o.plain.Pipelines[p]
		if !pl.Started {
			continue
		}
		if pl.NumObs() != ref.NumObs() ||
			!sameBits(pl.Estimate(o.kind[p]), ref.Estimate(o.kind[p])) ||
			!sameBits(pl.CurrentDriverFraction(), ref.CurrentDriverFraction()) {
			o.t.Fatalf("after %s, pipeline %d (%v): live reads diverge from the unsettled view", at, p, o.kind[p])
		}
	}
	choose := func(p int) progress.Kind { return o.kind[p] }
	if !sameBits(o.settled.QueryEstimate(choose), o.plain.QueryEstimate(choose)) {
		o.t.Fatalf("after %s: QueryEstimate diverges from the unsettled view", at)
	}
}

// TestSettledViewMatchesUnsettled is the property behind deferring a
// settled pipeline's rows: for every query of all four dataset kinds,
// with and without forced thinning, with snapshots delivered one and
// eight at a time, and each pipeline settled on a random kind at a
// random point — at its start, mid-prefix, just before or just after a
// thin, or never — every finished read of the view equals the same read
// of a view that never settled, bit for bit, whichever read runs the
// materialization; and live, a deferred row cannot be read. The same
// holds when the policy of a one-candidate selector — Fixed(DNE), or one
// trained on DNE alone — settles every pipeline at its start.
func TestSettledViewMatchesUnsettled(t *testing.T) {
	for _, dk := range allDatasetKinds {
		t.Run(dk.String(), func(t *testing.T) {
			w, err := Build(smallSpec(dk, 10))
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.Run(RunOptions{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			trainedDNE, err := selection.Train(res.Examples, selection.Config{
				Kinds: []progress.Kind{progress.DNE}, Dynamic: true, Mart: mart.Options{Trees: 4, Seed: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			budgets := w.perQueryExecOptions(RunOptions{Seed: 11})
			rng := rand.New(rand.NewSource(int64(dk) + 1))
			var deferred, thinSettled, first int
			for qi := range w.Queries {
				pl, err := w.Planner.Plan(w.Queries[qi])
				if err != nil {
					t.Fatal(err)
				}
				for _, thin := range []bool{false, true} {
					for _, batch := range []int{1, 8} {
						opts := budgets[qi]
						if thin {
							opts.TargetObservations, opts.MaxObservations = 900, 50
						}
						opts.SnapshotBatch = batch
						for _, sel := range []*selection.Selector{selection.Fixed(progress.DNE), trainedDNE} {
							obs := newPolicyObserver(t, w, qi, opts, sel)
							popts := opts
							popts.Observer = obs
							assertSameFinishedReads(t, obs, exec.Run(w.DB, pl, popts), qi, first)
							first++
						}
						obs := newSettlingObserver(t, w, qi, opts, rng)
						opts.Observer = obs
						tr := exec.Run(w.DB, pl, opts)
						assertSameFinishedReads(t, obs, tr, qi, first)
						first++
						deferred += obs.deferredChecked
						thinSettled += obs.thinSettled
					}
				}
			}
			if deferred == 0 || thinSettled == 0 {
				t.Fatalf("%d deferred reads checked, %d pipelines settled at a thin: the schedules never exercised both",
					deferred, thinSettled)
			}
		})
	}
}

// newSettlingObserver draws each pipeline's settle schedule and kind; an
// ordinal lies within the observations the pipeline ends up holding.
func newSettlingObserver(t *testing.T, w *Workload, qi int, opts exec.Options, rng *rand.Rand) *settlingObserver {
	pl, err := w.Planner.Plan(w.Queries[qi])
	if err != nil {
		t.Fatal(err)
	}
	tr := exec.Run(w.DB, pl, opts)
	n := len(tr.Pipes.Pipelines)
	o := &settlingObserver{
		t:         t,
		plain:     progress.NewOnlineView(pl, pipeline.Decompose(pl)),
		settled:   progress.NewOnlineView(pl, pipeline.Decompose(pl)),
		when:      make([]settleAt, n),
		ordinal:   make([]int, n),
		kind:      make([]progress.Kind, n),
		isSettled: make([]bool, n),
	}
	for p := range n {
		lo, hi := tr.ObsRange(p)
		o.when[p] = settleAt(rng.Intn(int(numSettleSchedule)))
		o.ordinal[p] = 1 + rng.Intn(max(1, hi-lo))
		o.kind[p] = progress.Kind(rng.Intn(int(progress.NumKinds)))
	}
	return o
}

// newPolicyObserver is a settlingObserver whose settled view is driven
// by the policy of sel, a one-candidate selector.
func newPolicyObserver(t *testing.T, w *Workload, qi int, opts exec.Options, sel *selection.Selector) *settlingObserver {
	pl, err := w.Planner.Plan(w.Queries[qi])
	if err != nil {
		t.Fatal(err)
	}
	n := len(pipeline.Decompose(pl).Pipelines)
	pol := selection.NewPolicy(sel, n)
	o := &settlingObserver{
		t:         t,
		plain:     progress.NewOnlineView(pl, pipeline.Decompose(pl)),
		settled:   progress.NewOnlineView(pl, pipeline.Decompose(pl)),
		when:      make([]settleAt, n),
		ordinal:   make([]int, n),
		kind:      make([]progress.Kind, n),
		isSettled: make([]bool, n),
		pol:       &pol,
	}
	for p := range o.kind {
		o.kind[p] = sel.Kinds[0]
	}
	return o
}

// assertSameFinishedReads compares every finished read of the settled
// view with the unsettled one's. The groups run in rotating order, so
// each of them is, in some run, the read that materializes the deferred
// rows.
func assertSameFinishedReads(t *testing.T, o *settlingObserver, tr *exec.Trace, qi, first int) {
	t.Helper()
	got, want := o.settled, o.plain
	same := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("query %d %s: %d values, want %d", qi, what, len(a), len(b))
		}
		for i := range b {
			if !sameBits(a[i], b[i]) {
				t.Fatalf("query %d %s [%d]: %v, want %v", qi, what, i, a[i], b[i])
			}
		}
	}
	stats := func(s progress.ErrorStats) []float64 { return []float64{s.L1, s.L2} }
	groups := []func(){
		func() { // per-pipeline series, errors and row reads
			for p, pl := range got.Pipelines {
				ref := want.Pipelines[p]
				if pl.NumObs() != ref.NumObs() {
					t.Fatalf("query %d pipeline %d: %d observations, want %d", qi, p, pl.NumObs(), ref.NumObs())
				}
				for _, k := range progress.AllKinds() {
					same("series "+k.String(), got.AppendSeries(nil, p, k), want.AppendSeries(nil, p, k))
					same("errors "+k.String(), stats(got.Errors(p, k)), stats(want.Errors(p, k)))
				}
				same("true series", got.AppendTrueSeries(nil, p), want.AppendTrueSeries(nil, p))
				same("unrefined TGN", pl.UnrefinedTGNSeries(), ref.UnrefinedTGNSeries())
				rows, refRows := pl.Rows(), ref.Rows()
				for i := range pl.NumObs() {
					same("driver fraction, elapsed time",
						[]float64{rows.DriverFraction(i), rows.TimeSinceStart(i)},
						[]float64{refRows.DriverFraction(i), refRows.TimeSinceStart(i)})
				}
				for _, k := range progress.Kinds() {
					same("latest "+k.String(), []float64{pl.Estimate(k)}, []float64{ref.Estimate(k)})
				}
			}
		},
		func() { // eq. 5
			choose := func(p int) progress.Kind { return o.kind[p] }
			same("query series", got.AppendQuerySeries(nil, choose), want.AppendQuerySeries(nil, choose))
			for _, k := range progress.AllKinds() {
				same("query errors "+k.String(), stats(got.QueryErrors(k)), stats(want.QueryErrors(k)))
			}
			for p := range got.Pipelines {
				same("query weight", []float64{got.QueryWeight(p)}, []float64{want.QueryWeight(p)})
			}
		},
		func() { // the dynamic features
			for p, pl := range got.Pipelines {
				same("dynamic features", features.Dynamic(pl), features.Dynamic(want.Pipelines[p]))
			}
		},
		func() { // the training labels
			assertSameLabels(t, "LabelView", LabelView(got, tr, "w", "f", qi, 8), LabelView(want, tr, "w", "f", qi, 8))
		},
	}
	for i := range groups {
		groups[(first+i)%len(groups)]()
	}
}
