package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"progressest/internal/exec"
	"progressest/internal/features"
	"progressest/internal/mart"
	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/progress"
	"progressest/internal/selection"
)

// prefixChecker drives one view under a pick policy, as a monitor does,
// through a run whose history thins while picks are still open. After
// every segment that crosses a marker level and after every thin, it
// compares each unsettled pipeline's live marker rows and feature vector
// with those of a finished view built from the same retained snapshots
// (progress.Replay of the trace prefix). It digests what a monitor
// serves after each segment and the labels of the finished run.
type prefixChecker struct {
	t      *testing.T
	qi     int
	plan   *plan.Plan
	view   *progress.OnlineView
	pol    *selection.Policy
	mirror []exec.Snapshot // deep copies of the retained snapshots
	starts []float64       // each pipeline's start time, -1 before it
	known  []bool          // DriverTotalsKnown at each start
	totals []int64         // driver totals at the starts, by node
	cross  []int           // each pipeline's MarkersCrossed before a segment

	updates, labels hash.Hash
	compared        int // pipelines compared with a finished prefix
	openAtThin      int // unsettled pipelines holding observations at a thin
}

func newPrefixChecker(t *testing.T, w *Workload, qi int, sel *selection.Selector) *prefixChecker {
	pl, err := w.Planner.Plan(w.Queries[qi])
	if err != nil {
		t.Fatal(err)
	}
	view := progress.NewOnlineView(pl, pipeline.Decompose(pl))
	n := len(view.Pipelines)
	pol := selection.NewPolicy(sel, n)
	c := &prefixChecker{
		t: t, qi: qi, plan: pl, view: view, pol: &pol,
		starts: make([]float64, n), known: make([]bool, n),
		totals: make([]int64, pl.NumNodes()), cross: make([]int, n),
		updates: sha256.New(), labels: sha256.New(),
	}
	for i := range c.starts {
		c.starts[i] = -1
	}
	return c
}

func (c *prefixChecker) OnPipelineStart(st exec.PipelineStart) {
	c.pol.Start(c.view, st)
	c.starts[st.Pipe] = st.Time
	c.known[st.Pipe] = st.DriverTotalsKnown
	if st.DriverTotalsKnown {
		for _, d := range c.view.Pipes.Pipelines[st.Pipe].Drivers {
			c.totals[d] = st.DriverTotals[d]
		}
	}
}

func (c *prefixChecker) OnSnapshots(batch []exec.Snapshot) {
	for pi, pl := range c.view.Pipelines {
		c.cross[pi] = pl.MarkersCrossed()
	}
	c.pol.Advance(c.view, batch)
	for _, s := range batch {
		c.mirror = append(c.mirror, exec.Snapshot{Time: s.Time,
			K: append([]int64(nil), s.K...), R: append([]int64(nil), s.R...), W: append([]int64(nil), s.W...)})
	}
	c.served()
	var ref *progress.OnlineView
	for pi, pl := range c.view.Pipelines {
		if pl.Started && pl.MarkersCrossed() != c.cross[pi] {
			ref = c.compare(pi, ref)
		}
	}
}

func (c *prefixChecker) OnThin(retained []exec.Snapshot) {
	c.view.OnThin(retained)
	kept := c.mirror[:0]
	for i := 1; i < len(c.mirror); i += 2 {
		kept = append(kept, c.mirror[i])
	}
	c.mirror = kept
	var ref *progress.OnlineView
	for pi, pl := range c.view.Pipelines {
		if _, open := liveMarkers(pl); open && pl.NumObs() > 0 {
			c.openAtThin++
			ref = c.compare(pi, ref)
		}
	}
}

func (c *prefixChecker) OnPipelineEnd(pi int, end float64) { c.view.OnPipelineEnd(pi, end) }

func (c *prefixChecker) OnDone(tr *exec.Trace) {
	c.view.OnDone(tr)
	c.served()
	c.labels.Write([]byte(labelDigest(LabelView(c.view, tr, "w", "f", c.qi, 8))))
}

// served digests what a monitor serves now: per pipeline its pick, its
// latest estimate and driver fraction, then the whole-query estimate.
func (c *prefixChecker) served() {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		c.updates.Write(b[:])
	}
	for pi, pl := range c.view.Pipelines {
		kind := c.pol.Choice(pi)
		put(uint64(kind))
		if pl.Started && pl.NumObs() > 0 && !pl.Ended {
			put(math.Float64bits(pl.Estimate(kind)))
		}
		put(math.Float64bits(pl.CurrentDriverFraction()))
	}
	put(math.Float64bits(c.view.QueryEstimate(c.pol.Choice)))
}

// liveMarkers returns a live pipeline's marker rows, or false once it has
// settled and no longer tracks them.
func liveMarkers(pl *progress.OnlinePipeline) (rows []progress.MarkerRow, open bool) {
	defer func() {
		if recover() != nil {
			rows, open = nil, false
		}
	}()
	return pl.Markers(), pl.Started
}

// compare checks pipeline pi of the live view against ref, the finished
// view of the retained snapshots — built here when ref is nil — and
// returns ref.
func (c *prefixChecker) compare(pi int, ref *progress.OnlineView) *progress.OnlineView {
	c.t.Helper()
	pl := c.view.Pipelines[pi]
	live, open := liveMarkers(pl)
	if !open {
		return ref
	}
	if ref == nil {
		ref = progress.Replay(c.prefix())
	}
	rp := ref.Pipelines[pi]
	want := rp.Markers()
	if pl.NumObs() != rp.NumObs() || len(live) != len(want) {
		c.t.Fatalf("query %d pipeline %d: live %d observations, %d marker levels; finished prefix %d, %d",
			c.qi, pi, pl.NumObs(), len(live), rp.NumObs(), len(want))
	}
	for l := range want {
		g, w := &live[l], &want[l]
		same := g.Obs == w.Obs && sameBits(g.Elapsed, w.Elapsed)
		for k := range w.Est {
			same = same && sameBits(g.Est[k], w.Est[k])
		}
		if !same {
			c.t.Fatalf("query %d pipeline %d level %d: live marker row %+v, finished prefix %+v", c.qi, pi, l, *g, *w)
		}
	}
	got := append([]float64(nil), features.OnlineFull(pl)...)
	for i, v := range features.OnlineFull(rp) {
		if !sameBits(got[i], v) {
			c.t.Fatalf("query %d pipeline %d feature %d (%s): live %v, finished prefix %v",
				c.qi, pi, i, features.Names()[i], got[i], v)
		}
	}
	c.compared++
	return ref
}

// prefix is the trace of the run so far: the retained snapshots, every
// started pipeline active through the last of them.
func (c *prefixChecker) prefix() *exec.Trace {
	n := len(c.view.Pipelines)
	last := c.mirror[len(c.mirror)-1].Time
	tr := &exec.Trace{
		Plan: c.plan, Pipes: c.view.Pipes, Snapshots: c.mirror,
		PipeSpans: make([]exec.Span, n), TotalTime: last,
		DriverTotalsKnown: c.known, DriverTotal: c.totals,
	}
	for pi, st := range c.starts {
		tr.PipeSpans[pi] = exec.Span{Start: st, End: last + 1}
		if st < 0 {
			tr.PipeSpans[pi] = exec.Span{Start: -1, End: -1}
		}
	}
	return tr
}

// TestThinnedPicksMatchFinishedPrefix runs every query of the four
// dataset kinds with thinning forced while picks are still open, served
// by a trained selector over all eight estimators and by Fixed(PMAX) and
// Fixed(SAFE), which never settle, with snapshots delivered one and
// eight at a time. Whenever a pick may read them — after a segment that
// crosses a marker level, and after every thin — an unsettled
// pipeline's live marker rows and feature vector equal those of a
// finished view over the same retained snapshots, bit for bit. What the
// runs serve and the labels they harvest match digests recorded before
// the live view kept marker rows instead of a table.
func TestThinnedPicksMatchFinishedPrefix(t *testing.T) {
	want := map[string][2]string{ // updates, labels
		"tpch-like":       {"eb358e14a20de4f49d2654ad0a8095a4a8d989c81bbeeaf7de5238c50fe33f19", "9c4358022c8897fa36e40a4b2515e7141aa5428fbb830186f37a0d3471052327"},
		"tpcds-like":      {"67c16cfe486aa22c4ff7330d5cf557b13a3f577aadc3eaa176401b1db87c7b47", "be89c0f39a5e42cc8791c74e70240a62178ce1888b4715417a4acc7811faf40b"},
		"real1-sales":     {"99e14c0edc3f58ad9d437761ef2fb9a7ea8db8419db916aff4038afef678615b", "cc9369412aeff1cedd66c38ceca96d83909cc8b667481d98af324feade577854"},
		"real2-snowflake": {"5dd7f4d1097e79c12bb5d847959c6e99fb69bc72305ae004883d8d6969495281", "1378266af57730aba7b2f1f7e74b4b01c33043ce28336755178d7c3caf89471e"},
	}
	for _, dk := range allDatasetKinds {
		t.Run(dk.String(), func(t *testing.T) {
			w, err := Build(smallSpec(dk, 20))
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.Run(RunOptions{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			trained, err := selection.Train(res.Examples, selection.Config{
				Kinds: progress.Kinds(), Dynamic: true, Mart: mart.Options{Trees: 6, Seed: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			budgets := w.perQueryExecOptions(RunOptions{Seed: 5})
			updates, labels := sha256.New(), sha256.New()
			var compared, openAtThin int
			for qi := range w.Queries {
				pl, err := w.Planner.Plan(w.Queries[qi])
				if err != nil {
					t.Fatal(err)
				}
				for _, sel := range []*selection.Selector{trained, selection.Fixed(progress.PMAX), selection.Fixed(progress.SAFE)} {
					for _, batch := range []int{1, 8} {
						c := newPrefixChecker(t, w, qi, sel)
						opts := budgets[qi]
						opts.TargetObservations, opts.MaxObservations = 900, 50
						opts.SnapshotBatch = batch
						opts.Observer = c
						exec.Run(w.DB, pl, opts)
						updates.Write(c.updates.Sum(nil))
						labels.Write(c.labels.Sum(nil))
						compared += c.compared
						openAtThin += c.openAtThin
					}
				}
			}
			if compared == 0 || openAtThin == 0 {
				t.Fatalf("%d pipelines compared, %d open at a thin: the runs never thinned under an open pick", compared, openAtThin)
			}
			got := [2]string{hex.EncodeToString(updates.Sum(nil)), hex.EncodeToString(labels.Sum(nil))}
			if got != want[dk.String()] {
				t.Errorf("update and label digests %q, recorded %q", got, want[dk.String()])
			}
			t.Logf("%d pipelines compared with a finished prefix, %d open at a thin", compared, openAtThin)
		})
	}
}
