package feedback

import (
	"testing"
	"time"
)

// canaryHarness is a retrainer with canary confirmation enabled over a
// fresh trainable corpus, with one manually published serving version
// (manual retrains bypass the canary, so v1 swaps in directly).
func canaryHarness(t *testing.T, window int, maxAge time.Duration) (*Retrainer, *Registry, *Canary, *ExampleStore) {
	t.Helper()
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if _, err := store.AppendAll(trainable(60, 0)); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	canary := NewCanary(CanaryConfig{Window: window, MaxAge: maxAge})
	r := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(), Canary: canary,
	})
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	if reg.Current().IsV0() {
		t.Fatal("manual retrain did not publish a serving champion")
	}
	return r, reg, canary, store
}

// resolve drives the canary verdicts the way the background tick does.
func resolve(r *Retrainer) {
	r.trainMu.Lock()
	defer r.trainMu.Unlock()
	r.resolveCanariesLocked()
}

// TestCanaryDivertsBackgroundRetrain: with canary confirmation on, a
// gate-accepted background retrain must NOT hot-swap — it becomes a
// pending challenger, the champion keeps serving, and the decision ring
// records the divert.
func TestCanaryDivertsBackgroundRetrain(t *testing.T) {
	r, reg, canary, store := canaryHarness(t, 8, time.Hour)
	v1 := reg.Current()
	if _, err := store.AppendAll(trainable(20, 100)); err != nil {
		t.Fatal(err)
	}
	v, err := r.Retrain("auto")
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("diverted retrain returned a version: %+v", v)
	}
	if reg.Current() != v1 {
		t.Fatal("challenger hot-swapped past the confirmation window")
	}
	states := canary.States()
	if len(states) != 1 || states[0].Champion != v1.ID ||
		states[0].Samples != 0 || states[0].Window != 8 {
		t.Fatalf("canary state = %+v, want one fresh challenger", states)
	}
	ds := r.Decisions()
	last := ds[len(ds)-1]
	if last.Trigger != "auto" || last.Decision != DecisionCanary || last.Version != 0 {
		t.Fatalf("divert decision = %+v, want trigger auto / decision canary", last)
	}
}

// TestCanaryPromotesAfterWindow: a challenger whose live error holds up
// against the champion over the full confirmation window is promoted —
// atomic hot-swap, decision "accepted", trigger "canary", and the live
// champion mean recorded as the baseline it was judged against.
func TestCanaryPromotesAfterWindow(t *testing.T) {
	r, reg, canary, store := canaryHarness(t, 8, time.Hour)
	v1 := reg.Current()
	if _, err := store.AppendAll(trainable(20, 100)); err != nil {
		t.Fatal(err)
	}
	if v, err := r.Retrain("auto"); err != nil || v != nil {
		t.Fatalf("divert failed: v=%v err=%v", v, err)
	}
	// The champion's live errors (0.5 each) are far worse than anything
	// the challenger's selector can pick (at most 0.40), so the live
	// comparison must pass.
	exs := trainable(8, 300)
	canary.Observe(v1, exs, repeat(0.5, 8))
	if st := canary.States(); len(st) != 1 || st[0].Samples != 8 {
		t.Fatalf("window not filled: %+v", st)
	}

	resolve(r)

	cur := reg.Current()
	if cur == v1 || cur.Meta.Decision != DecisionAccepted {
		t.Fatalf("challenger not promoted: %+v", cur)
	}
	if !near(cur.Meta.BaselineL1, 0.5) {
		t.Fatalf("promoted baseline %v, want the live champion mean 0.5", cur.Meta.BaselineL1)
	}
	if len(canary.States()) != 0 {
		t.Fatal("promoted challenger still pending")
	}
	ds := r.Decisions()
	last := ds[len(ds)-1]
	if last.Trigger != "canary" || last.Decision != DecisionAccepted || last.Version != cur.ID {
		t.Fatalf("promotion decision = %+v", last)
	}
}

// TestCanaryRejectsOnLiveRegression: holdout said the challenger was
// fine, live traffic disagrees — after the window fills with the
// champion clearly ahead, the challenger is recorded as rejected and the
// champion keeps serving.
func TestCanaryRejectsOnLiveRegression(t *testing.T) {
	r, reg, canary, store := canaryHarness(t, 8, time.Hour)
	v1 := reg.Current()
	if _, err := store.AppendAll(trainable(20, 100)); err != nil {
		t.Fatal(err)
	}
	if v, err := r.Retrain("auto"); err != nil || v != nil {
		t.Fatalf("divert failed: v=%v err=%v", v, err)
	}
	histBefore := len(reg.Versions())
	// The champion's live errors (0.01) beat anything the challenger can
	// select (at least 0.05) beyond tolerance + slack.
	canary.Observe(v1, trainable(8, 300), repeat(0.01, 8))

	resolve(r)

	if reg.Current() != v1 {
		t.Fatal("live-regressed challenger was promoted")
	}
	vs := reg.Versions()
	if len(vs) != histBefore+1 || vs[len(vs)-1].Meta.Decision != DecisionRejected {
		t.Fatalf("rejected challenger not recorded in history: %+v", vs[len(vs)-1].Meta)
	}
	if len(canary.States()) != 0 {
		t.Fatal("rejected challenger still pending")
	}
}

// TestCanaryExpiresWithoutTraffic: a challenger that cannot fill its
// window before MaxAge is rejected on expiry — no judgement on quality,
// the champion just keeps serving.
func TestCanaryExpiresWithoutTraffic(t *testing.T) {
	r, reg, canary, store := canaryHarness(t, 8, time.Millisecond)
	v1 := reg.Current()
	if _, err := store.AppendAll(trainable(20, 100)); err != nil {
		t.Fatal(err)
	}
	if v, err := r.Retrain("auto"); err != nil || v != nil {
		t.Fatalf("divert failed: v=%v err=%v", v, err)
	}
	time.Sleep(5 * time.Millisecond)
	if !canary.resolvable(time.Now()) {
		t.Fatal("expired challenger not resolvable")
	}

	resolve(r)

	if reg.Current() != v1 {
		t.Fatal("expired challenger was promoted")
	}
	vs := reg.Versions()
	if vs[len(vs)-1].Meta.Decision != DecisionRejected {
		t.Fatalf("expired challenger not recorded as rejected: %+v", vs[len(vs)-1].Meta)
	}
}

// TestCanaryManualBypass: an operator retrain hot-swaps immediately and
// returns the version even with canary confirmation enabled.
func TestCanaryManualBypass(t *testing.T) {
	r, reg, canary, store := canaryHarness(t, 8, time.Hour)
	v1 := reg.Current()
	if _, err := store.AppendAll(trainable(20, 100)); err != nil {
		t.Fatal(err)
	}
	v, err := r.Retrain("manual")
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || reg.Current() == v1 || reg.Current().ID != v.ID {
		t.Fatalf("manual retrain did not hot-swap: v=%+v current=%+v", v, reg.Current())
	}
	if len(canary.States()) != 0 {
		t.Fatal("manual retrain left a pending challenger")
	}
}

// TestCanaryStaleChampionVoidsChallenger: a challenger proposed against
// one champion must not be promoted once a different version serves the
// target — the shadow comparison is about a replaced model.
func TestCanaryStaleChampionVoidsChallenger(t *testing.T) {
	r, reg, canary, store := canaryHarness(t, 8, time.Hour)
	v1 := reg.Current()
	if _, err := store.AppendAll(trainable(20, 100)); err != nil {
		t.Fatal(err)
	}
	if v, err := r.Retrain("auto"); err != nil || v != nil {
		t.Fatalf("divert failed: v=%v err=%v", v, err)
	}
	canary.Observe(v1, trainable(8, 300), repeat(0.5, 8))
	// A manual retrain replaces the champion before the verdict.
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	v2 := reg.Current()

	resolve(r)

	if reg.Current() != v2 {
		t.Fatal("stale challenger displaced the freshly served version")
	}
	vs := reg.Versions()
	if vs[len(vs)-1].Meta.Decision != DecisionRejected {
		t.Fatalf("stale challenger not recorded as rejected: %+v", vs[len(vs)-1].Meta)
	}
}

// TestCanaryObserveIgnoresMismatchedChampion: observations credited
// against a different serving version than the challenger was proposed
// under would corrupt the comparison; they are dropped.
func TestCanaryObserveIgnoresMismatchedChampion(t *testing.T) {
	r, reg, canary, store := canaryHarness(t, 8, time.Hour)
	v1 := reg.Current()
	if _, err := store.AppendAll(trainable(20, 100)); err != nil {
		t.Fatal(err)
	}
	if v, err := r.Retrain("auto"); err != nil || v != nil {
		t.Fatalf("divert failed: v=%v err=%v", v, err)
	}
	canary.Observe(&Version{ID: v1.ID + 100}, trainable(4, 300), repeat(0.5, 4))
	if st := canary.States(); len(st) != 1 || st[0].Samples != 0 {
		t.Fatalf("mismatched-champion observations were credited: %+v", st)
	}
}

// TestAutoRollbackAfterConsecutiveDriftRejects: the breaker — a target
// that keeps drifting while DriftRejectLimit consecutive drift retrains
// are gate-rejected is rolled back to its previous accepted version, the
// streak resets, and the decision ring records the trip.
func TestAutoRollbackAfterConsecutiveDriftRejects(t *testing.T) {
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
		DriftRejectLimit: 2,
	})
	// Two accepted versions so the rollback has somewhere to land.
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	v1 := reg.Current()
	if _, err := store.AppendAll(trainable(20, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	v2 := reg.Current()
	if v2 == v1 {
		t.Fatal("second manual retrain did not publish")
	}
	// Poison the corpus: subsequent candidates learn inverted labels and
	// fail the truthful holdout, so every drift retrain is rejected.
	if _, err := store.AppendAll(poisonedCorpus(240, 1000)); err != nil {
		t.Fatal(err)
	}
	driftOn := func() {
		v := reg.Current()
		drift.Record(v, repeat(0.9, 8))
	}

	driftOn()
	r.retrainDrifted()
	if reg.Current() != v2 {
		t.Fatal("rejected drift retrain replaced the serving version")
	}
	if got := r.DriftRejects(); got != 1 {
		t.Fatalf("streak after first reject = %d, want 1", got)
	}

	// Expire the cooldown so the second drift verdict is
	// actionable immediately (mirrors TestRetrainerDriftCooldown).
	r.lastDriftAt = time.Now().Add(-2 * time.Hour)
	driftOn()
	r.retrainDrifted()

	if cur := reg.Current(); cur != v1 {
		t.Fatalf("breaker did not roll back to v%d: serving %+v", v1.ID, cur)
	}
	if got := r.DriftRejects(); got != 0 {
		t.Fatalf("streak not reset after the breaker tripped: %d", got)
	}
	ds := r.Decisions()
	last := ds[len(ds)-1]
	if last.Trigger != "auto-rollback" || last.Decision != "rolled_back" || last.Version != v1.ID {
		t.Fatalf("auto-rollback decision = %+v", last)
	}
	// The drift window must follow the rollback: v1's, fresh and empty.
	if st, ok := drift.Status(); !ok || st.Version != v1.ID || st.Samples != 0 {
		t.Fatalf("drift window not the rolled-back-to version's: %+v", st)
	}
}

// TestHarvesterFeedsCanary: the harvest path shadow-scores a pending
// challenger on exactly the examples that fed the champion's drift
// window.
func TestHarvesterFeedsCanary(t *testing.T) {
	r, reg, canary, store := canaryHarness(t, 4, time.Hour)
	v1 := reg.Current()
	if _, err := store.AppendAll(trainable(20, 100)); err != nil {
		t.Fatal(err)
	}
	if v, err := r.Retrain("auto"); err != nil || v != nil {
		t.Fatalf("divert failed: v=%v err=%v", v, err)
	}
	// Drive Observe through the exported surface the harvester uses.
	exs := trainable(4, 300)
	obs := make([]float64, len(exs))
	for i := range exs {
		obs[i] = exs[i].ErrL1[v1.Selector.Select(exs[i].Features)]
	}
	canary.Observe(v1, exs, obs)
	st := canary.States()
	if len(st) != 1 || st[0].Samples != 4 {
		t.Fatalf("observations not credited: %+v", st)
	}
	if !canary.resolvable(time.Now()) {
		t.Fatal("full window should be resolvable")
	}
}
