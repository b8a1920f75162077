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

// driftServed builds a ServedModel without a selector (Record never
// touches it; the harvester replays the selector before calling Record).
func driftServed(target string, version int, baseline float64, baselineN int) ServedModel {
	return ServedModel{Target: target, Version: version, BaselineL1: baseline, BaselineN: baselineN}
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
			tr := NewDriftTracker(DriftConfig{Window: 16, MinSamples: 4, Ratio: 2, AbsSlack: 0.25})
			tr.Record(driftServed("", 1, tc.baseline, tc.baseN), tc.errs)
			st, ok := tr.Status("")
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
	tr := NewDriftTracker(DriftConfig{Window: 4, MinSamples: 4, Ratio: 2, AbsSlack: 0.25})
	sm := driftServed("", 1, 0.5, 50) // threshold 1.25

	tr.Record(sm, repeat(10, 4))
	if st, _ := tr.Status(""); !st.Drifted {
		t.Fatalf("bad burst should drift: %+v", st)
	}
	// Four good observations displace the whole window.
	tr.Record(sm, repeat(0.1, 4))
	st, _ := tr.Status("")
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
	tr.Record(sm, repeat(10, 2))
	if st, _ := tr.Status(""); !st.Drifted || !near(st.ObservedL1, 5.05) {
		t.Fatalf("partial roll: %+v, want drifted with mean 5.05", st)
	}
}

// TestDriftTrackerPerTargetIsolation: a drifting family must not move
// the global window (or another family's), and Statuses reports each
// target separately, sorted.
func TestDriftTrackerPerTargetIsolation(t *testing.T) {
	tr := NewDriftTracker(DriftConfig{Window: 8, MinSamples: 2, Ratio: 2, AbsSlack: 0.25})
	tr.Record(driftServed("", 1, 0.5, 50), repeat(0.1, 4))
	tr.Record(driftServed("scan", 2, 0.5, 50), repeat(10, 4))
	tr.Record(driftServed("join", 3, 0.5, 50), repeat(0.2, 4))

	sts := tr.Statuses()
	if len(sts) != 3 {
		t.Fatalf("got %d targets, want 3", len(sts))
	}
	for i, want := range []string{"", "join", "scan"} {
		if sts[i].Target != want {
			t.Fatalf("statuses[%d].Target = %q, want %q (sorted)", i, sts[i].Target, want)
		}
	}
	for _, st := range sts {
		if want := st.Target == "scan"; st.Drifted != want {
			t.Fatalf("target %q drifted = %v, want %v", st.Target, st.Drifted, want)
		}
	}
	drifted := tr.Drifted()
	if len(drifted) != 1 || drifted[0].Target != "scan" {
		t.Fatalf("Drifted() = %+v, want exactly [scan]", drifted)
	}
}

// TestDriftTrackerVersionTransitions: a newer version resets the
// target's window (fresh baseline, fresh evidence), while a LATE harvest
// for an already replaced version is dropped — a query pinned before the
// swap must not poison the successor's window.
func TestDriftTrackerVersionTransitions(t *testing.T) {
	tr := NewDriftTracker(DriftConfig{Window: 8, MinSamples: 2, Ratio: 2, AbsSlack: 0.25})
	tr.Record(driftServed("", 3, 0.5, 50), repeat(10, 6)) // v3 drifts
	if st, _ := tr.Status(""); !st.Drifted {
		t.Fatal("v3 window should have drifted")
	}

	tr.Record(driftServed("", 4, 0.25, 40), repeat(0.1, 2)) // v4 swaps in
	st, _ := tr.Status("")
	if st.Version != 4 || st.BaselineL1 != 0.25 || st.BaselineN != 40 {
		t.Fatalf("swap did not re-key the window: %+v", st)
	}
	if st.Samples != 2 || st.Drifted {
		t.Fatalf("swap should reset the window: %+v", st)
	}

	tr.Record(driftServed("", 3, 0.5, 50), repeat(10, 6)) // late v3 harvest
	if st, _ := tr.Status(""); st.Samples != 2 || st.Version != 4 {
		t.Fatalf("late harvest for replaced v3 should be dropped: %+v", st)
	}

	tr.Record(ServedModel{Target: "", Version: 0}, repeat(10, 6)) // unversioned
	if st, _ := tr.Status(""); st.Samples != 2 {
		t.Fatalf("version-0 records should be ignored: %+v", st)
	}
}

// TestDriftTrackerResetForcesFreshEvidence: Reset (the gate-rejected
// drift-retrain path) clears the window without forgetting the version,
// so the verdict needs MinSamples fresh observations to fire again.
func TestDriftTrackerResetForcesFreshEvidence(t *testing.T) {
	tr := NewDriftTracker(DriftConfig{Window: 8, MinSamples: 4, Ratio: 2, AbsSlack: 0.25})
	sm := driftServed("scan", 7, 0.5, 50)
	tr.Record(sm, repeat(10, 8))
	if st, _ := tr.Status("scan"); !st.Drifted {
		t.Fatal("should drift before reset")
	}
	tr.Reset("scan")
	st, _ := tr.Status("scan")
	if st.Drifted || st.Samples != 0 || st.Total != 0 || !st.Since.IsZero() {
		t.Fatalf("reset left state behind: %+v", st)
	}
	if st.Version != 7 {
		t.Fatalf("reset should keep the version binding, got %+v", st)
	}
	tr.Record(sm, repeat(10, 3))
	if st, _ := tr.Status("scan"); st.Drifted {
		t.Fatalf("verdict re-fired before MinSamples fresh observations: %+v", st)
	}
	tr.Record(sm, repeat(10, 1))
	if st, _ := tr.Status("scan"); !st.Drifted {
		t.Fatalf("verdict should fire again after fresh evidence: %+v", st)
	}
	tr.Reset("nonexistent") // must not panic or invent a target
	if _, ok := tr.Status("nonexistent"); ok {
		t.Fatal("Reset conjured a target")
	}
}

// TestDriftTrackerRebindRollback: a rollback moves the bound version
// BACKWARDS via Rebind — observations about the rolled-back-to model
// are accepted again, stragglers from the rolled-back-from version stay
// dropped, and a fresh publish still re-keys forward.
func TestDriftTrackerRebindRollback(t *testing.T) {
	tr := NewDriftTracker(DriftConfig{Window: 8, MinSamples: 2, Ratio: 2, AbsSlack: 0.25})
	v1 := driftServed("", 1, 0.5, 50)
	v2 := driftServed("", 2, 0.25, 40)
	tr.Record(v1, repeat(0.1, 2))
	tr.Record(v2, repeat(10, 4)) // v2 serves, drifts

	// Operator rolls back to v1.
	tr.Rebind("", v1, 2)
	st, ok := tr.Status("")
	if !ok || st.Version != 1 || st.BaselineL1 != 0.5 || st.Samples != 0 || st.Drifted {
		t.Fatalf("rebind to v1: %+v", st)
	}
	// v1's observations now count again — this is the window the
	// operator is watching to judge the rollback.
	tr.Record(v1, repeat(0.1, 3))
	if st, _ := tr.Status(""); st.Samples != 3 || st.Version != 1 {
		t.Fatalf("post-rollback v1 records dropped: %+v", st)
	}
	// A straggler query pinned to v2 pre-rollback finishes late: its id
	// is above the bound version but NOT above the high-water mark, so
	// it must not re-key the window back to the rolled-back-from model.
	tr.Record(v2, repeat(10, 4))
	if st, _ := tr.Status(""); st.Version != 1 || st.Samples != 3 {
		t.Fatalf("v2 straggler poisoned the rolled-back window: %+v", st)
	}
	// A genuinely new publish re-keys forward.
	tr.Record(driftServed("", 3, 0.3, 30), repeat(0.1, 1))
	if st, _ := tr.Status(""); st.Version != 3 || st.Samples != 1 {
		t.Fatalf("new publish after rollback: %+v", st)
	}
}

// TestDriftTrackerRebindBeforeFirstHarvest: a rollback can land before
// the target's first harvest; Rebind must still install the window (and
// its superseded floor), or the rolled-back-from version's straggler
// would create one keyed to the dead version and shut out the serving
// model's evidence.
func TestDriftTrackerRebindBeforeFirstHarvest(t *testing.T) {
	tr := NewDriftTracker(DriftConfig{Window: 8, MinSamples: 2, Ratio: 2, AbsSlack: 0.25})
	v1 := driftServed("", 1, 0.5, 50)
	tr.Rebind("", v1, 2) // rollback v2 -> v1 with no harvest ever recorded

	tr.Record(driftServed("", 2, 0.2, 30), repeat(10, 4)) // v2 straggler
	st, ok := tr.Status("")
	if !ok || st.Version != 1 || st.Samples != 0 {
		t.Fatalf("straggler hijacked the pre-harvest rebind: %+v", st)
	}
	tr.Record(v1, repeat(0.1, 2))
	if st, _ := tr.Status(""); st.Version != 1 || st.Samples != 2 {
		t.Fatalf("serving version's records dropped: %+v", st)
	}
}

// TestDriftTrackerRebindNeverHarvestedSuperseded: rolling back from a
// version that never finished a query (so the tracker's own high-water
// mark has not seen its id) must still drop that version's stragglers —
// the superseded floor passed to Rebind, without which the straggler
// would masquerade as a fresh publish and hijack the window from the
// version actually serving.
func TestDriftTrackerRebindNeverHarvestedSuperseded(t *testing.T) {
	tr := NewDriftTracker(DriftConfig{Window: 8, MinSamples: 2, Ratio: 2, AbsSlack: 0.25})
	v5 := driftServed("", 5, 0.5, 50)
	tr.Record(v5, repeat(0.1, 2)) // maxSeen 5
	// v6 publishes but no v6-served query has finished yet; the operator
	// rolls back to v5 immediately.
	tr.Rebind("", v5, 6)
	// The in-flight v6 query finishes late: 6 is above the harvest-seen
	// mark but not above the superseded floor — drop it.
	tr.Record(driftServed("", 6, 0.2, 30), repeat(10, 4))
	st, ok := tr.Status("")
	if !ok || st.Version != 5 || st.Samples != 0 {
		t.Fatalf("never-harvested superseded version hijacked the window: %+v", st)
	}
	// The serving v5's observations land normally.
	tr.Record(v5, repeat(0.1, 2))
	if st, _ := tr.Status(""); st.Version != 5 || st.Samples != 2 {
		t.Fatalf("serving version's records dropped: %+v", st)
	}
	// The NEXT real publish (id above the floor) re-keys forward.
	tr.Record(driftServed("", 7, 0.3, 30), repeat(0.1, 1))
	if st, _ := tr.Status(""); st.Version != 7 {
		t.Fatalf("fresh publish after rollback: %+v", st)
	}
}

// TestDriftConfigClampsMinSamplesToWindow: a window smaller than the
// minimum sample count would make every verdict impossible; the config
// clamps instead of silently disabling detection.
func TestDriftConfigClampsMinSamplesToWindow(t *testing.T) {
	tr := NewDriftTracker(DriftConfig{Window: 8}) // MinSamples defaults to 32
	if got := tr.Config(); got.MinSamples != 8 {
		t.Fatalf("MinSamples = %d, want clamped to window 8", got.MinSamples)
	}
	tr.Record(driftServed("", 1, 0.001, 50), repeat(10, 8))
	if len(tr.Drifted()) != 1 {
		t.Fatal("a full window must be able to reach a verdict")
	}
}

// TestDriftTrackerTombstone: rolling a family back past its last version
// leaves no serving version for the target; the tombstoned window
// disappears from Statuses, keeps dropping stragglers, and comes back
// only with a fresh publish.
func TestDriftTrackerTombstone(t *testing.T) {
	tr := NewDriftTracker(DriftConfig{Window: 8, MinSamples: 2, Ratio: 2, AbsSlack: 0.25})
	v5 := driftServed("scan", 5, 0.5, 50)
	tr.Record(v5, repeat(10, 4))
	tr.Rebind("scan", ServedModel{Target: "scan"}, 5) // rolled back past the last version

	if _, ok := tr.Status("scan"); ok {
		t.Fatal("tombstoned target still reports status")
	}
	if got := tr.Statuses(); len(got) != 0 {
		t.Fatalf("tombstoned target in Statuses: %+v", got)
	}
	tr.Record(v5, repeat(10, 4)) // straggler for the rolled-back-from version
	if len(tr.Drifted()) != 0 {
		t.Fatal("straggler revived a tombstoned window")
	}
	// A new publish for the family (which clears the registry pin)
	// re-keys and tracking resumes.
	tr.Record(driftServed("scan", 6, 0.3, 30), repeat(0.1, 2))
	if st, ok := tr.Status("scan"); !ok || st.Version != 6 || st.Samples != 2 {
		t.Fatalf("post-tombstone publish: %+v", st)
	}
}

// TestRetrainerDriftHonorsFallbackPin: a drift verdict pending when the
// operator rolls the family back past its last version (pinning it to
// the global fallback) must NOT republish an ungated family model — the
// same operator decision the size/age path honors.
func TestRetrainerDriftHonorsFallbackPin(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AppendAll(familyExamples(60, 0, "a", false)); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	drift := NewDriftTracker(DriftConfig{Window: 16, MinSamples: 4})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(), FamilyModels: true, MinFamilyExamples: 10,
		Drift: drift, DriftRetrain: true,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	va := reg.CurrentFor("a")
	drift.Record(ServedModel{
		Target: "a", Version: va.ID, Selector: va.Selector,
		BaselineL1: va.Meta.HoldoutL1, BaselineN: va.Meta.HoldoutN,
	}, repeat(0.9, 8))

	// Operator rolls the family back past its only version: route gone,
	// pin set.
	if _, err := reg.Rollback("a"); err != nil {
		t.Fatal(err)
	}
	if !reg.FallbackPinned("a") {
		t.Fatal("rollback past last version should pin the family")
	}
	histBefore := len(reg.Versions())

	r.retrainDrifted()

	if len(reg.Versions()) != histBefore {
		t.Fatal("drift retrain published despite the operator pin")
	}
	if reg.CurrentFor("a").Meta.Family != "" {
		t.Fatal("family a no longer falls back to the global model")
	}
	if _, ok := drift.Status("a"); ok {
		t.Fatal("pinned family's window should be tombstoned")
	}
}

// TestRetrainerDriftStaleVerdictRebinds: when a concurrent retrain
// already replaced the drifted version, the background trigger must not
// train against the old version's observations; it re-keys the window
// to the current version instead.
func TestRetrainerDriftStaleVerdictRebinds(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AppendAll(trainable(60, 0)); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	drift := NewDriftTracker(DriftConfig{Window: 16, MinSamples: 4})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(), Drift: drift, DriftRetrain: true,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	v1 := reg.Current()
	drift.Record(ServedModel{
		Target: "", Version: v1.ID, Selector: v1.Selector,
		BaselineL1: v1.Meta.HoldoutL1, BaselineN: v1.Meta.HoldoutN,
	}, repeat(0.9, 8))

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
	st, ok := drift.Status("")
	if !ok || st.Version != v2.ID || st.Samples != 0 {
		t.Fatalf("window not re-keyed to the serving version: %+v", st)
	}
}

// TestRetrainerDriftRespectsFamilyFloor: a drifted family whose retained
// corpus slice shrank below MinFamilyExamples is not retrained (the
// size/age path's training floor applies); its window resets to wait
// for fresh evidence.
func TestRetrainerDriftRespectsFamilyFloor(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AppendAll(familyExamples(60, 0, "a", false)); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	drift := NewDriftTracker(DriftConfig{Window: 16, MinSamples: 4})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(), FamilyModels: true,
		MinFamilyExamples: 1000, // nothing can clear the floor
		Drift:             drift, DriftRetrain: true,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	// No family model trained (floor); fabricate the family serving
	// version so the drift window has a real target to judge.
	gv := reg.Current()
	va := reg.Publish(gv.Selector, VersionMeta{
		TrainedAt: time.Now(), HoldoutL1: 0.001, HoldoutN: 10, Source: "manual", Family: "a",
	})
	drift.Record(ServedModel{
		Target: "a", Version: va.ID, Selector: va.Selector,
		BaselineL1: va.Meta.HoldoutL1, BaselineN: va.Meta.HoldoutN,
	}, repeat(0.9, 8))
	histBefore := len(reg.Versions())

	r.retrainDrifted()

	if len(reg.Versions()) != histBefore || reg.CurrentFor("a") != va {
		t.Fatal("drift retrain ignored the family training floor")
	}
	if st, ok := drift.Status("a"); !ok || st.Samples != 0 || st.Drifted {
		t.Fatalf("underfed family's window should reset: %+v", st)
	}
}

// TestDriftTrackerQuantile: ObservedP90 is the nearest-rank 90th
// percentile of the window.
func TestDriftTrackerQuantile(t *testing.T) {
	tr := NewDriftTracker(DriftConfig{Window: 16, MinSamples: 2})
	errs := make([]float64, 10)
	for i := range errs {
		errs[i] = float64(i + 1) // 1..10
	}
	tr.Record(driftServed("", 1, 0.5, 50), errs)
	st, _ := tr.Status("")
	if st.ObservedP90 != 9 {
		t.Fatalf("p90 = %v, want 9 (nearest rank over 1..10)", st.ObservedP90)
	}
	if st.ObservedL1 != 5.5 {
		t.Fatalf("mean = %v, want 5.5", st.ObservedL1)
	}
}

// TestDriftTrackerConcurrent hammers Record, Status, Statuses, Drifted
// and Reset from many goroutines; under -race this proves the tracker is
// data-race-free on the harvest hot path.
func TestDriftTrackerConcurrent(t *testing.T) {
	tr := NewDriftTracker(DriftConfig{Window: 32, MinSamples: 8})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			target := fmt.Sprintf("fam%d", g%2)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr.Record(driftServed(target, 1+i/100, 0.05, 50), repeat(float64(i%5)/10, 3))
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch g {
				case 0:
					tr.Statuses()
					tr.Drifted()
				case 1:
					tr.Status("fam0")
					tr.Status("fam1")
				case 2:
					tr.Reset("fam1")
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	for _, st := range tr.Statuses() {
		if st.Samples > 32 {
			t.Fatalf("window overflowed: %+v", st)
		}
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
	r := NewRetrainer(store, NewRegistry(), RetrainerConfig{Selection: fastConfig()})
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

// TestRetrainerDriftRetrainsOnlyDriftedTarget: with two family models
// serving, a drift verdict against one family retrains exactly that
// family (source "drift", provenance in the decision ring) and leaves
// the other family's and the global model untouched; the handled window
// is reset afterwards.
func TestRetrainerDriftRetrainsOnlyDriftedTarget(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AppendAll(familyExamples(60, 0, "a", false)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.AppendAll(familyExamples(60, 200, "b", false)); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	drift := NewDriftTracker(DriftConfig{Window: 16, MinSamples: 4, Ratio: 1.5, AbsSlack: 0.01})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection:    fastConfig(),
		FamilyModels: true,
		Drift:        drift,
		DriftRetrain: true,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	va, vb := reg.CurrentFor("a"), reg.CurrentFor("b")
	vg := reg.Current()
	if va == nil || vb == nil || va.Meta.Family != "a" || vb.Meta.Family != "b" {
		t.Fatalf("family models missing: a=%+v b=%+v", va, vb)
	}

	// Family a's serving model drifts: observed errors far above its
	// holdout baseline.
	drift.Record(ServedModel{
		Target: "a", Version: va.ID, Selector: va.Selector,
		BaselineL1: va.Meta.HoldoutL1, BaselineN: va.Meta.HoldoutN,
	}, repeat(0.9, 8))
	if got := drift.Drifted(); len(got) != 1 || got[0].Target != "a" {
		t.Fatalf("Drifted() = %+v, want [a]", got)
	}

	r.retrainDrifted()

	na := reg.CurrentFor("a")
	if na == nil || na.ID == va.ID {
		t.Fatalf("drifted family was not retrained: %+v", na)
	}
	if na.Meta.Source != "drift" || na.Meta.Family != "a" {
		t.Fatalf("drift retrain provenance wrong: %+v", na.Meta)
	}
	if reg.CurrentFor("b") != vb {
		t.Fatal("healthy family b was retrained by a's drift")
	}
	if reg.Current() != vg {
		t.Fatal("global model was retrained by a family drift")
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
	if found == nil || found.Family != "a" || found.Version != na.ID || !near(found.ObservedL1, 0.9) {
		t.Fatalf("drift decision missing or wrong: %+v", found)
	}
	if st, ok := drift.Status("a"); !ok || st.Samples != 0 || st.Drifted {
		t.Fatalf("drift window not reset after retrain: %+v", st)
	}
}

// TestRetrainerDriftAcceptRekeysWindow: an accepted drift retrain moves
// the target's window onto the version it published — 0 samples, new
// baseline — BEFORE the accepted decision is readable, so no observer
// pairs "accepted" with the superseded version still drifting; and a late
// harvest pinned to the superseded version is dropped, not recorded.
func TestRetrainerDriftAcceptRekeysWindow(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AppendAll(familyExamples(60, 0, "a", false)); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	drift := NewDriftTracker(DriftConfig{Window: 16, MinSamples: 4, Ratio: 1.5, AbsSlack: 0.01})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection:    fastConfig(),
		FamilyModels: true,
		Gate:         QualityGate{Disabled: true},
		Drift:        drift,
		DriftRetrain: true,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	old := reg.CurrentFor("a")
	if old == nil || old.Meta.Family != "a" {
		t.Fatalf("family model missing: %+v", old)
	}
	drift.Record(servedModel(old), repeat(0.9, 8))
	if got := drift.Drifted(); len(got) != 1 || got[0].Version != old.ID {
		t.Fatalf("Drifted() = %+v, want the family model", got)
	}

	// An observer reading the way Learning.DriftStatus does — decisions
	// first, window second — while the retrain runs.
	stop, watched := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			accepted := false
			for _, d := range r.Decisions() {
				accepted = accepted || (d.Trigger == "drift" && d.Decision == DecisionAccepted)
			}
			if st, _ := drift.Status("a"); accepted && st.Version == old.ID {
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

	cur := reg.CurrentFor("a")
	if cur == nil || cur.ID == old.ID || cur.Meta.Source != "drift" {
		t.Fatalf("drift retrain did not publish: %+v", cur)
	}
	st, ok := drift.Status("a")
	if !ok || st.Version != cur.ID || st.Samples != 0 || st.Drifted {
		t.Fatalf("window after accepted drift retrain = %+v, want version %d with 0 samples", st, cur.ID)
	}
	if !near(st.BaselineL1, cur.Meta.HoldoutL1) || st.BaselineN != cur.Meta.HoldoutN {
		t.Fatalf("window baseline %v/%d, want the new version's %v/%d", st.BaselineL1, st.BaselineN, cur.Meta.HoldoutL1, cur.Meta.HoldoutN)
	}
	// A query pinned before the swap finishes afterwards: dropped.
	drift.Record(servedModel(old), repeat(0.9, 8))
	if st, _ := drift.Status("a"); st.Version != cur.ID || st.Samples != 0 || st.Drifted {
		t.Fatalf("late harvest for the superseded version was recorded: %+v", st)
	}
	// The new version's own harvests land.
	drift.Record(servedModel(cur), repeat(0.1, 3))
	if st, _ := drift.Status("a"); st.Version != cur.ID || st.Samples != 3 {
		t.Fatalf("new version's harvest not recorded: %+v", st)
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
	reg := NewRegistry()
	drift := NewDriftTracker(DriftConfig{Window: 16, MinSamples: 4})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(), Drift: drift, DriftRetrain: true,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	v1 := reg.Current()
	drift.Record(ServedModel{
		Target: "", Version: v1.ID, Selector: v1.Selector,
		BaselineL1: v1.Meta.HoldoutL1, BaselineN: v1.Meta.HoldoutN,
	}, repeat(0.95, 8))

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
	reg := NewRegistry()
	drift := NewDriftTracker(DriftConfig{Window: 16, MinSamples: 4})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(), Drift: drift, DriftRetrain: true,
		Policy: RetrainPolicy{MinInterval: time.Hour},
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	driftOn := func() {
		v := reg.Current()
		drift.Record(ServedModel{
			Target: "", Version: v.ID, Selector: v.Selector,
			BaselineL1: v.Meta.HoldoutL1, BaselineN: v.Meta.HoldoutN,
		}, repeat(0.95, 8))
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
	if st, _ := drift.Status(""); !st.Drifted {
		t.Fatal("cooldown should leave the pending verdict intact")
	}
	// Expiring the cooldown releases it.
	r.lastDriftAt[""] = time.Now().Add(-2 * time.Hour)
	r.retrainDrifted()
	if reg.Current() == v2 {
		t.Fatal("expired cooldown still blocked the retrain")
	}
}

// TestRetrainerDriftGlobalTarget: a drifted GLOBAL window retrains the
// global model on the full corpus.
func TestRetrainerDriftGlobalTarget(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AppendAll(trainable(60, 0)); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	drift := NewDriftTracker(DriftConfig{Window: 16, MinSamples: 4})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(), Drift: drift, DriftRetrain: true,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	v1 := reg.Current()
	drift.Record(ServedModel{
		Target: "", Version: v1.ID, Selector: v1.Selector,
		BaselineL1: v1.Meta.HoldoutL1, BaselineN: v1.Meta.HoldoutN,
	}, repeat(0.95, 8))
	r.retrainDrifted()
	v2 := reg.Current()
	if v2 == v1 || v2.Meta.Source != "drift" || v2.Meta.Family != "" {
		t.Fatalf("global drift retrain: %+v", v2.Meta)
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
	reg := NewRegistry()
	drift := NewDriftTracker(DriftConfig{MinSamples: 4})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(), Drift: drift, DriftRetrain: false,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	v1 := reg.Current()
	drift.Record(ServedModel{
		Target: "", Version: v1.ID, Selector: v1.Selector,
		BaselineL1: v1.Meta.HoldoutL1, BaselineN: v1.Meta.HoldoutN,
	}, repeat(0.95, 8))
	if len(r.driftDue()) != 0 {
		t.Fatal("driftDue should be empty with DriftRetrain off")
	}
	r.retrainDrifted() // must be a no-op
	if reg.Current() != v1 {
		t.Fatal("retrainDrifted retrained despite DriftRetrain off")
	}
	if got := drift.Drifted(); len(got) != 1 {
		t.Fatalf("tracking itself should continue: %+v", got)
	}
}
