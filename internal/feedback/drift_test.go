package feedback

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// near reports a ~ b up to the running-sum float residue.
func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// repeat returns n copies of v.
func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// driftRig is a tracker over its own registry, with the retrainer whose
// Rollback the operator and the auto-rollback breaker share. Nothing here
// trains, so the retrainer has no store.
func driftRig(cfg DriftConfig) (*DriftTracker, *Registry, *Retrainer) {
	reg := newRegistry()
	tr := NewDriftTracker(reg, cfg)
	return tr, reg, NewRetrainer(nil, reg, RetrainerConfig{Drift: tr})
}

// retrainDrifted runs one drift-only training pass, the part of a
// background tick that retrains a drifted serving version.
func (r *Retrainer) retrainDrifted() {
	r.trainMu.Lock()
	defer r.trainMu.Unlock()
	r.trainLocked("", true)
}

// publishBaseline publishes a selector-less version with the given
// holdout baseline (Record never touches the selector; the harvester
// replays it before calling Record).
func publishBaseline(reg *Registry, baseline float64, baselineN int) *Version {
	return reg.Publish(nil, VersionMeta{HoldoutL1: baseline, HoldoutN: baselineN})
}

// TestDriftTrackerVerdicts drives the ratio+slack boundary, the
// min-samples guard and the no-fair-baseline guard through one table.
// The config uses exactly binary-representable values so the boundary
// cases are exact: threshold = 0.5*2 + 0.25 = 1.25.
func TestDriftTrackerVerdicts(t *testing.T) {
	cases := []struct {
		name     string
		baseline float64
		baseN    int
		errs     []float64
		want     bool
	}{
		{"mean exactly at threshold is not drift", 0.5, 50, repeat(1.25, 8), false},
		{"mean just above threshold drifts", 0.5, 50, repeat(1.3125, 8), true},
		{"mean below threshold", 0.5, 50, repeat(1.0, 8), false},
		{"no fair baseline never drifts", 0.5, 0, repeat(10, 8), false},
		{"zero baseline still has absolute slack", 0, 50, repeat(0.25, 8), false},
		{"zero baseline above slack drifts", 0, 50, repeat(0.5, 8), true},
		{"below min samples never drifts", 0.5, 50, repeat(10, 3), false},
		{"min samples exactly reached drifts", 0.5, 50, repeat(10, 4), true},
		{"mixed window uses the mean", 0.5, 50, []float64{0, 0, 2.5, 2.75}, true}, // mean 1.3125 > 1.25
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, reg, _ := driftRig(DriftConfig{Window: 16, MinSamples: 4, Ratio: 2, AbsSlack: 0.25})
			tr.Record(publishBaseline(reg, tc.baseline, tc.baseN), tc.errs)
			st, ok := tr.Status()
			if !ok {
				t.Fatal("no status after Record")
			}
			if st.Drifted != tc.want {
				t.Fatalf("drifted = %v, want %v (status %+v)", st.Drifted, tc.want, st)
			}
			if st.Drifted && st.Since.IsZero() {
				t.Fatal("drifted status should carry a Since timestamp")
			}
			if !st.Drifted && !st.Since.IsZero() {
				t.Fatal("non-drifted status should have a zero Since")
			}
		})
	}
}

// TestDriftTrackerWindowRollOver: the verdict follows the WINDOW, not
// the lifetime: a burst of bad observations rolls off once enough good
// ones displace it, and vice versa.
func TestDriftTrackerWindowRollOver(t *testing.T) {
	tr, reg, _ := driftRig(DriftConfig{Window: 4, MinSamples: 4, Ratio: 2, AbsSlack: 0.25})
	v := publishBaseline(reg, 0.5, 50) // threshold 1.25

	tr.Record(v, repeat(10, 4))
	if st, _ := tr.Status(); !st.Drifted {
		t.Fatalf("bad burst should drift: %+v", st)
	}
	// Four good observations displace the whole window.
	tr.Record(v, repeat(0.1, 4))
	st, _ := tr.Status()
	if st.Drifted {
		t.Fatalf("recovered window still drifted: %+v", st)
	}
	if st.Samples != 4 {
		t.Fatalf("window samples = %d, want 4 (the window size)", st.Samples)
	}
	if st.Total != 8 {
		t.Fatalf("total = %d, want 8 lifetime observations", st.Total)
	}
	if !near(st.ObservedL1, 0.1) {
		t.Fatalf("windowed mean %v, want 0.1 (old burst rolled off)", st.ObservedL1)
	}
	// A partial roll mixes: two bad ones -> window {0.1, 0.1, 10, 10},
	// mean 5.05 -> drifted again.
	tr.Record(v, repeat(10, 2))
	if st, _ := tr.Status(); !st.Drifted || !near(st.ObservedL1, 5.05) {
		t.Fatalf("partial roll: %+v, want drifted with mean 5.05", st)
	}
}

// TestDriftTrackerVersionTransitions: a newly published version is judged
// on a window of its own (fresh baseline, fresh evidence) — the target is
// omitted until that version's first harvest, and never again shows the
// replaced version's window — while a LATE harvest for the replaced
// version lands in a window no one reads: a query pinned before the swap
// must not poison the successor's window.
func TestDriftTrackerVersionTransitions(t *testing.T) {
	tr, reg, _ := driftRig(DriftConfig{Window: 8, MinSamples: 2, Ratio: 2, AbsSlack: 0.25})
	v1 := publishBaseline(reg, 0.5, 50)
	tr.Record(v1, repeat(10, 6)) // v1 drifts
	if st, _ := tr.Status(); !st.Drifted {
		t.Fatal("v1 window should have drifted")
	}

	v2 := publishBaseline(reg, 0.25, 40) // v2 swaps in
	if st, ok := tr.Status(); ok {
		t.Fatalf("replaced v1's window still reported: %+v", st)
	}
	if _, ok := tr.Drifted(); ok {
		t.Fatal("replaced v1's verdict still fires")
	}
	tr.Record(v2, repeat(0.1, 2))
	st, _ := tr.Status()
	if st.Version != v2.ID || st.BaselineL1 != 0.25 || st.BaselineN != 40 {
		t.Fatalf("swap did not move the target onto v2's window: %+v", st)
	}
	if st.Samples != 2 || st.Drifted {
		t.Fatalf("v2's window should start fresh: %+v", st)
	}

	tr.Record(v1, repeat(10, 6)) // late v1 harvest
	if st, _ := tr.Status(); st.Samples != 2 || st.Version != v2.ID {
		t.Fatalf("late harvest for replaced v1 reached the serving window: %+v", st)
	}

	tr.Record(nil, repeat(10, 6)) // unversioned
	if st, _ := tr.Status(); st.Samples != 2 {
		t.Fatalf("unversioned records should be ignored: %+v", st)
	}
}

// TestDriftTrackerResetForcesFreshEvidence: Reset (the gate-rejected
// drift-retrain path) clears the serving version's window without
// forgetting the version, so the verdict needs MinSamples fresh
// observations to fire again.
func TestDriftTrackerResetForcesFreshEvidence(t *testing.T) {
	tr, reg, _ := driftRig(DriftConfig{Window: 8, MinSamples: 4, Ratio: 2, AbsSlack: 0.25})
	v := publishBaseline(reg, 0.5, 50)
	tr.Record(v, repeat(10, 8))
	if st, _ := tr.Status(); !st.Drifted {
		t.Fatal("should drift before reset")
	}
	tr.Reset()
	st, _ := tr.Status()
	if st.Drifted || st.Samples != 0 || st.Total != 0 || !st.Since.IsZero() {
		t.Fatalf("reset left state behind: %+v", st)
	}
	if st.Version != v.ID {
		t.Fatalf("reset should keep the version binding, got %+v", st)
	}
	tr.Record(v, repeat(10, 3))
	if st, _ := tr.Status(); st.Drifted {
		t.Fatalf("verdict re-fired before MinSamples fresh observations: %+v", st)
	}
	tr.Record(v, repeat(10, 1))
	if st, _ := tr.Status(); !st.Drifted {
		t.Fatalf("verdict should fire again after fresh evidence: %+v", st)
	}
	fresh, _, _ := driftRig(DriftConfig{})
	fresh.Reset() // v0 serves: it gets an empty window, which cannot fire
	if st, ok := fresh.Status(); !ok || st.Version != 0 || st.Samples != 0 || st.BaselineN != 0 || st.Drifted {
		t.Fatalf("Reset on v0: %+v, %v; want v0's empty window", st, ok)
	}
}

// TestDriftTrackerRollback: a rollback gives the rolled-back-to version
// a fresh window — observations about it count again, stragglers from
// the rolled-back-from version stay out of the window being read, and a
// fresh publish still moves the target forward.
func TestDriftTrackerRollback(t *testing.T) {
	tr, reg, ret := driftRig(DriftConfig{Window: 8, MinSamples: 2, Ratio: 2, AbsSlack: 0.25})
	v1 := publishBaseline(reg, 0.5, 50)
	tr.Record(v1, repeat(0.1, 2))
	v2 := publishBaseline(reg, 0.25, 40)
	tr.Record(v2, repeat(10, 4)) // v2 serves, drifts

	// Operator rolls back to v1.
	if _, err := ret.Rollback(); err != nil {
		t.Fatal(err)
	}
	st, ok := tr.Status()
	if !ok || st.Version != v1.ID || st.BaselineL1 != 0.5 || st.Samples != 0 || st.Drifted {
		t.Fatalf("rollback to v1: %+v", st)
	}
	// v1's observations now count again — this is the window the
	// operator is watching to judge the rollback.
	tr.Record(v1, repeat(0.1, 3))
	if st, _ := tr.Status(); st.Samples != 3 || st.Version != v1.ID {
		t.Fatalf("post-rollback v1 records dropped: %+v", st)
	}
	// A straggler query pinned to v2 pre-rollback finishes late: it lands
	// in v2's own window, which the serving pointer no longer reads.
	tr.Record(v2, repeat(10, 4))
	if st, _ := tr.Status(); st.Version != v1.ID || st.Samples != 3 {
		t.Fatalf("v2 straggler poisoned the rolled-back window: %+v", st)
	}
	// A genuinely new publish moves the target forward.
	v3 := publishBaseline(reg, 0.3, 30)
	tr.Record(v3, repeat(0.1, 1))
	if st, _ := tr.Status(); st.Version != v3.ID || st.Samples != 1 {
		t.Fatalf("new publish after rollback: %+v", st)
	}
}

// TestDriftTrackerRollbackBeforeFirstHarvest: a rollback can land before
// the target's first harvest; the rolled-back-to version still gets its
// window, and the rolled-back-from version's straggler cannot take the
// target over and shut out the serving model's evidence.
func TestDriftTrackerRollbackBeforeFirstHarvest(t *testing.T) {
	tr, reg, ret := driftRig(DriftConfig{Window: 8, MinSamples: 2, Ratio: 2, AbsSlack: 0.25})
	v1 := publishBaseline(reg, 0.5, 50)
	v2 := publishBaseline(reg, 0.2, 30)
	if _, err := ret.Rollback(); err != nil { // v2 -> v1, no harvest ever recorded
		t.Fatal(err)
	}

	tr.Record(v2, repeat(10, 4)) // v2 straggler
	st, ok := tr.Status()
	if !ok || st.Version != v1.ID || st.Samples != 0 {
		t.Fatalf("straggler hijacked the pre-harvest rollback: %+v", st)
	}
	tr.Record(v1, repeat(0.1, 2))
	if st, _ := tr.Status(); st.Version != v1.ID || st.Samples != 2 {
		t.Fatalf("serving version's records dropped: %+v", st)
	}
}

// TestDriftTrackerRollbackNeverHarvestedSuperseded: rolling back from a
// version that never finished a query must still keep that version's
// stragglers out of the serving window — they cannot masquerade as a
// fresh publish and take the target from the version actually serving.
func TestDriftTrackerRollbackNeverHarvestedSuperseded(t *testing.T) {
	tr, reg, ret := driftRig(DriftConfig{Window: 8, MinSamples: 2, Ratio: 2, AbsSlack: 0.25})
	v5 := publishBaseline(reg, 0.5, 50)
	tr.Record(v5, repeat(0.1, 2))
	// v6 publishes but no v6-served query has finished yet; the operator
	// rolls back to v5 immediately.
	v6 := publishBaseline(reg, 0.2, 30)
	if _, err := ret.Rollback(); err != nil {
		t.Fatal(err)
	}
	// The in-flight v6 query finishes late.
	tr.Record(v6, repeat(10, 4))
	st, ok := tr.Status()
	if !ok || st.Version != v5.ID || st.Samples != 0 {
		t.Fatalf("never-harvested superseded version hijacked the window: %+v", st)
	}
	// The serving v5's observations land normally.
	tr.Record(v5, repeat(0.1, 2))
	if st, _ := tr.Status(); st.Version != v5.ID || st.Samples != 2 {
		t.Fatalf("serving version's records dropped: %+v", st)
	}
	// The NEXT real publish moves the target forward.
	v7 := publishBaseline(reg, 0.3, 30)
	tr.Record(v7, repeat(0.1, 1))
	if st, _ := tr.Status(); st.Version != v7.ID {
		t.Fatalf("fresh publish after rollback: %+v", st)
	}
}

// TestDriftConfigClampsMinSamplesToWindow: a window smaller than the
// minimum sample count would make every verdict impossible; the config
// clamps instead of silently disabling detection.
func TestDriftConfigClampsMinSamplesToWindow(t *testing.T) {
	tr, reg, _ := driftRig(DriftConfig{Window: 8}) // MinSamples defaults to 32
	if got := tr.Config(); got.MinSamples != 8 {
		t.Fatalf("MinSamples = %d, want clamped to window 8", got.MinSamples)
	}
	tr.Record(publishBaseline(reg, 0.001, 50), repeat(10, 8))
	if _, ok := tr.Drifted(); !ok {
		t.Fatal("a full window must be able to reach a verdict")
	}
}

// TestRetrainerDriftStaleVerdictSkipped: when a concurrent retrain
// already replaced the drifted version, the background trigger must not
// train against the old version's observations: the serving pointer no
// longer reads that window, and the serving version's own window starts
// with its first harvest.
func TestRetrainerDriftStaleVerdictSkipped(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AppendAll(trainable(60, 0)); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	drift := NewDriftTracker(reg, DriftConfig{Window: 16, MinSamples: 4})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(), Drift: drift, DriftRetrain: true,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	v1 := reg.Current()
	drift.Record(v1, repeat(0.9, 8))

	// A manual retrain wins the race and publishes v2 before the tick.
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	v2 := reg.Current()
	if v2 == v1 {
		t.Fatal("manual retrain did not publish")
	}
	histBefore := len(reg.Versions())

	r.retrainDrifted()

	if len(reg.Versions()) != histBefore || reg.Current() != v2 {
		t.Fatal("stale drift verdict trained a fresh version anyway")
	}
	if st, ok := drift.Status(); ok {
		t.Fatalf("replaced v1's window still reported: %+v", st)
	}
	drift.Record(v2, repeat(0.1, 2))
	st, ok := drift.Status()
	if !ok || st.Version != v2.ID || st.Samples != 2 {
		t.Fatalf("window not the serving version's: %+v", st)
	}
}

// TestDriftTrackerQuantile: ObservedP90 is the nearest-rank 90th
// percentile of the window.
func TestDriftTrackerQuantile(t *testing.T) {
	tr, reg, _ := driftRig(DriftConfig{Window: 16, MinSamples: 2})
	errs := make([]float64, 10)
	for i := range errs {
		errs[i] = float64(i + 1) // 1..10
	}
	tr.Record(publishBaseline(reg, 0.5, 50), errs)
	st, _ := tr.Status()
	if st.ObservedP90 != 9 {
		t.Fatalf("p90 = %v, want 9 (nearest rank over 1..10)", st.ObservedP90)
	}
	if st.ObservedL1 != 5.5 {
		t.Fatalf("mean = %v, want 5.5", st.ObservedL1)
	}
}

// TestDriftTrackerConcurrent hammers Record, Status, Drifted and Reset
// from many goroutines while publishes move the serving pointer; under
// -race this proves the tracker is data-race-free on the harvest hot
// path.
func TestDriftTrackerConcurrent(t *testing.T) {
	tr, reg, _ := driftRig(DriftConfig{Window: 32, MinSamples: 8})
	publishBaseline(reg, 0.05, 50)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr.Record(reg.Current(), repeat(float64(i%5)/10, 3))
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch g {
				case 0:
					tr.Drifted()
				case 1:
					tr.Status()
				case 2:
					tr.Reset()
				case 3:
					if i%100 == 0 {
						publishBaseline(reg, 0.05, 50)
					}
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if st, _ := tr.Status(); st.Samples > 32 {
		t.Fatalf("window overflowed: %+v", st)
	}
}

// TestRetrainerDecisionRingBounded: the decision history keeps the most
// recent maxDecisions entries, oldest dropped first.
func TestRetrainerDecisionRingBounded(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := NewRetrainer(store, newRegistry(), RetrainerConfig{Selection: fastConfig()})
	for i := 1; i <= maxDecisions+10; i++ {
		r.recordDecision(&Version{ID: i, Meta: VersionMeta{TrainedAt: time.Now(), Decision: DecisionAccepted}}, "auto", 0)
	}
	ds := r.Decisions()
	if len(ds) != maxDecisions {
		t.Fatalf("ring length %d, want %d", len(ds), maxDecisions)
	}
	if ds[0].Version != 11 || ds[len(ds)-1].Version != maxDecisions+10 {
		t.Fatalf("ring kept wrong window: first v%d last v%d", ds[0].Version, ds[len(ds)-1].Version)
	}
}

// TestRetrainerDriftAcceptRekeysWindow: an accepted drift retrain moves
// the drift report onto the version it published — no window until its
// first harvest, then the new baseline — and no observer pairs the
// "accepted" decision with the superseded version still drifting; a late
// harvest pinned to the superseded version lands in a window no one
// reads.
func TestRetrainerDriftAcceptRekeysWindow(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AppendAll(trainable(60, 0)); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	drift := NewDriftTracker(reg, DriftConfig{Window: 16, MinSamples: 4, Ratio: 1.5, AbsSlack: 0.01})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection:    fastConfig(),
		Gate:         QualityGate{Disabled: true},
		Drift:        drift,
		DriftRetrain: true,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	old := reg.Current()
	drift.Record(old, repeat(0.9, 8))
	if st, ok := drift.Drifted(); !ok || st.Version != old.ID {
		t.Fatalf("Drifted() = %+v, want the serving model", st)
	}

	// An observer reading decisions, then the window, while the retrain
	// runs.
	stop, watched := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			accepted := false
			for _, d := range r.Decisions() {
				accepted = accepted || (d.Trigger == "drift" && d.Decision == DecisionAccepted)
			}
			if st, _ := drift.Status(); accepted && st.Version == old.ID {
				watched <- fmt.Errorf("accepted drift decision visible next to the superseded window %+v", st)
				return
			}
			select {
			case <-stop:
				watched <- nil
				return
			default:
			}
		}
	}()
	r.retrainDrifted()
	close(stop)
	if err := <-watched; err != nil {
		t.Fatal(err)
	}

	cur := reg.Current()
	if cur == nil || cur.ID == old.ID || cur.Meta.Source != "drift" {
		t.Fatalf("drift retrain did not publish: %+v", cur)
	}
	if st, ok := drift.Status(); ok {
		t.Fatalf("window after accepted drift retrain = %+v, want none before version %d's first harvest", st, cur.ID)
	}
	// A query pinned before the swap finishes afterwards: it lands in the
	// superseded version's window, which no one reads.
	drift.Record(old, repeat(0.9, 8))
	if st, ok := drift.Status(); ok {
		t.Fatalf("late harvest for the superseded version was reported: %+v", st)
	}
	if _, ok := drift.Drifted(); ok {
		t.Fatal("late harvest for the superseded version fired a verdict")
	}
	// The new version's own harvests land, against its own baseline.
	drift.Record(cur, repeat(0.1, 3))
	st, ok := drift.Status()
	if !ok || st.Version != cur.ID || st.Samples != 3 || st.Drifted {
		t.Fatalf("new version's harvest not recorded: %+v", st)
	}
	if !near(st.BaselineL1, cur.Meta.HoldoutL1) || st.BaselineN != cur.Meta.HoldoutN {
		t.Fatalf("window baseline %v/%d, want the new version's %v/%d", st.BaselineL1, st.BaselineN, cur.Meta.HoldoutL1, cur.Meta.HoldoutN)
	}
}

// TestRetrainerDriftDoesNotMaskTrainingErrors: a clean drift pass in
// the same poll tick as a failed size/age run must not wipe the
// recorded failure from LastError.
func TestRetrainerDriftDoesNotMaskTrainingErrors(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AppendAll(trainable(60, 0)); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	drift := NewDriftTracker(reg, DriftConfig{Window: 16, MinSamples: 4})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(), Drift: drift, DriftRetrain: true,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	v1 := reg.Current()
	drift.Record(v1, repeat(0.95, 8))

	sizeAgeFailure := errors.New("size/age run failed this tick")
	r.mu.Lock()
	r.lastErr = sizeAgeFailure
	r.mu.Unlock()

	r.retrainDrifted() // succeeds (publishes a drift version)

	if reg.Current() == v1 {
		t.Fatal("drift retrain should have published")
	}
	if got := r.LastError(); got != sizeAgeFailure {
		t.Fatalf("clean drift pass masked the recorded failure: LastError = %v", got)
	}
}

// TestRetrainerDriftCooldown: a target that keeps drifting is retrained
// at most once per Policy.MinInterval — the drift analogue of the
// size/age path's age gate — so sustained drift cannot spin a full
// training run every poll tick.
func TestRetrainerDriftCooldown(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AppendAll(trainable(60, 0)); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	drift := NewDriftTracker(reg, DriftConfig{Window: 16, MinSamples: 4})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(), Drift: drift, DriftRetrain: true,
		Policy: RetrainPolicy{MinInterval: time.Hour},
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	driftOn := func() {
		v := reg.Current()
		drift.Record(v, repeat(0.95, 8))
	}
	driftOn()
	r.retrainDrifted() // first run: lastDriftAt zero, allowed
	v2 := reg.Current()
	if v2.Meta.Source != "drift" {
		t.Fatalf("first drift retrain did not run: %+v", v2.Meta)
	}
	// The new version immediately drifts again; the cooldown (1h) must
	// hold the second run back without touching the window.
	driftOn()
	r.retrainDrifted()
	if reg.Current() != v2 {
		t.Fatal("drift retrain spun within MinInterval")
	}
	if st, _ := drift.Status(); !st.Drifted {
		t.Fatal("cooldown should leave the pending verdict intact")
	}
	// Expiring the cooldown releases it.
	r.lastDriftAt = time.Now().Add(-2 * time.Hour)
	r.retrainDrifted()
	if reg.Current() == v2 {
		t.Fatal("expired cooldown still blocked the retrain")
	}
}

// TestRetrainerDriftGlobalTarget: a drifted window retrains the model on
// the full corpus.
func TestRetrainerDriftGlobalTarget(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AppendAll(trainable(60, 0)); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	drift := NewDriftTracker(reg, DriftConfig{Window: 16, MinSamples: 4})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(), Drift: drift, DriftRetrain: true,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	v1 := reg.Current()
	drift.Record(v1, repeat(0.95, 8))
	r.retrainDrifted()
	v2 := reg.Current()
	if v2 == v1 || v2.Meta.Source != "drift" || v2.Meta.CorpusSize != 60 {
		t.Fatalf("drift retrain: %+v", v2.Meta)
	}
}

// TestRetrainerDriftRetrainsOnlyDriftedTarget: the drift pass leaves a
// healthy serving model alone; once its window drifts, the pass retrains
// it exactly once under source "drift", with the provenance in the
// decision ring, and the drift report then waits for the new version's
// first harvest.
func TestRetrainerDriftRetrainsOnlyDriftedTarget(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AppendAll(trainable(60, 0)); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	drift := NewDriftTracker(reg, DriftConfig{Window: 16, MinSamples: 4, Ratio: 1.5, AbsSlack: 0.01})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection:    fastConfig(),
		Drift:        drift,
		DriftRetrain: true,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	v1 := reg.Current()

	// A healthy window holds no verdict: the drift pass trains nothing.
	drift.Record(v1, repeat(0, 8))
	r.retrainDrifted()
	if reg.Current() != v1 || len(reg.Versions()) != 2 {
		t.Fatalf("healthy model was retrained by the drift pass: %+v", reg.Current().Meta)
	}

	// The serving model drifts: observed errors far above its holdout
	// baseline (window mean (8×0 + 8×0.9)/16).
	drift.Record(v1, repeat(0.9, 8))
	if st, ok := drift.Drifted(); !ok || st.Version != v1.ID {
		t.Fatalf("Drifted() = %+v, %v; want v%d", st, ok, v1.ID)
	}
	r.retrainDrifted()

	v2 := reg.Current()
	if v2 == v1 || v2.Meta.Source != "drift" {
		t.Fatalf("drift retrain provenance wrong: %+v", v2.Meta)
	}
	var found *TrainDecision
	for _, d := range r.Decisions() {
		if d.Trigger == "drift" {
			d := d
			if found != nil {
				t.Fatalf("more than one drift decision: %+v and %+v", *found, d)
			}
			found = &d
		}
	}
	if found == nil || found.Version != v2.ID || !near(found.ObservedL1, 0.45) {
		t.Fatalf("drift decision missing or wrong: %+v", found)
	}
	if st, ok := drift.Status(); ok {
		t.Fatalf("drifted version's window still reported after the retrain: %+v", st)
	}
}

// TestRetrainerDriftDisabled: with DriftRetrain off the tracker still
// accumulates verdicts but the background trigger never fires.
func TestRetrainerDriftDisabled(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AppendAll(trainable(60, 0)); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	drift := NewDriftTracker(reg, DriftConfig{MinSamples: 4})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(), Drift: drift, DriftRetrain: false,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	v1 := reg.Current()
	drift.Record(v1, repeat(0.95, 8))
	if _, ok := r.driftDue(); ok {
		t.Fatal("driftDue should be false with DriftRetrain off")
	}
	r.retrainDrifted() // must be a no-op
	if reg.Current() != v1 {
		t.Fatal("retrainDrifted retrained despite DriftRetrain off")
	}
	if _, ok := drift.Drifted(); !ok {
		t.Fatal("tracking itself should continue")
	}
}

// TestTickFitsEachTargetOnce: a tick that is both size/age-due and
// drift-due for the same target fits it once, under "drift" — never a
// second time on the identical capture.
func TestTickFitsEachTargetOnce(t *testing.T) {
	rig := func(t *testing.T, canary *Canary) (*Retrainer, *Registry, *DriftTracker, *ExampleStore) {
		t.Helper()
		store, err := OpenStore(t.TempDir(), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		if _, err := store.AppendAll(familyExamples(200, 0, "", false)); err != nil {
			t.Fatal(err)
		}
		reg := newRegistry()
		drift := NewDriftTracker(reg, DriftConfig{Window: 16, MinSamples: 4})
		r := NewRetrainer(store, reg, RetrainerConfig{
			Selection: fastConfig(), Drift: drift, DriftRetrain: true, Canary: canary,
			Policy: RetrainPolicy{MinNewExamples: 1, MinInterval: time.Nanosecond},
		})
		if _, err := r.Retrain("manual"); err != nil {
			t.Fatal(err)
		}
		return r, reg, drift, store
	}

	t.Run("gate rejects", func(t *testing.T) {
		r, reg, drift, store := rig(t, nil)
		v1 := reg.Current()
		if _, err := store.AppendAll(poisonedCorpus(400, 1000)); err != nil {
			t.Fatal(err)
		}
		drift.Record(v1, repeat(0.95, 8))
		versions, decisions := len(reg.Versions()), len(r.Decisions())
		r.tick()
		ds := r.Decisions()[decisions:]
		if len(ds) != 1 || ds[0].Trigger != "drift" || ds[0].Decision != DecisionRejected {
			t.Fatalf("tick decisions = %+v, want one rejected drift fit", ds)
		}
		if got := len(reg.Versions()) - versions; got != 1 {
			t.Fatalf("tick recorded %d versions, want 1", got)
		}
		if reg.Current() != v1 {
			t.Fatal("rejected candidate replaced the serving version")
		}
		if got := r.DriftRejects(); got != 1 {
			t.Fatalf("reject streak = %d, want 1", got)
		}
	})

	t.Run("canary diverts", func(t *testing.T) {
		r, reg, drift, store := rig(t, NewCanary(CanaryConfig{Window: 8, MaxAge: time.Hour}))
		if _, err := store.AppendAll(familyExamples(400, 1000, "", false)); err != nil {
			t.Fatal(err)
		}
		drift.Record(reg.Current(), repeat(0.95, 8))
		decisions := len(r.Decisions())
		r.tick()
		ds := r.Decisions()[decisions:]
		if len(ds) != 1 || ds[0].Trigger != "drift" || ds[0].Decision != DecisionCanary {
			t.Fatalf("tick decisions = %+v, want one canary divert under drift", ds)
		}
	})
}
