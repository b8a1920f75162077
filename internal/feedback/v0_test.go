package feedback

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"progressest/internal/selection"
)

// v0Retrainer is a retrainer over a fresh registry (v0 = always-DNE
// serving) and a store holding exs.
func v0Retrainer(t *testing.T, exs []selection.Example, cfg RetrainerConfig) (*Retrainer, *Registry, *ExampleStore) {
	t.Helper()
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if _, err := store.AppendAll(exs); err != nil {
		t.Fatal(err)
	}
	cfg.Selection = fastConfig()
	reg := newRegistry()
	return NewRetrainer(store, reg, cfg), reg, store
}

// TestQualityGateRejectsWorseThanV0: v0 was never trained, so its error
// on a candidate's holdout is a fair baseline. A fresh registry's first
// candidate that does worse than always-DNE beyond the gate's tolerance
// is recorded rejected, and v0 keeps serving.
func TestQualityGateRejectsWorseThanV0(t *testing.T) {
	r, reg, _ := v0Retrainer(t, poisonedCorpus(60, 0), RetrainerConfig{})
	v0 := reg.Current()
	v, err := r.Retrain("manual")
	if err != nil {
		t.Fatal(err)
	}
	if v.Meta.Decision != DecisionRejected || reg.Current() != v0 {
		t.Fatalf("candidate worse than v0: decision %q, serving v%d", v.Meta.Decision, reg.Current().ID)
	}
	if v.Meta.HoldoutN == 0 || v.Meta.BaselineL1 <= 0 || r.cfg.Gate.passes(v.Meta.HoldoutL1, v.Meta.BaselineL1) {
		t.Fatalf("gate metadata: candidate L1 %v on %d holdout examples, v0 L1 %v; want a rejection beyond tolerance",
			v.Meta.HoldoutL1, v.Meta.HoldoutN, v.Meta.BaselineL1)
	}
	t.Logf("candidate holdout L1 %.4f, always-DNE %.4f", v.Meta.HoldoutL1, v.Meta.BaselineL1)
}

// TestAutoRollbackFromV1LandsOnV0: the drift-reject breaker on the first
// trained version rolls back to v0, the bottom of the chain, and says so.
func TestAutoRollbackFromV1LandsOnV0(t *testing.T) {
	r, reg, store := v0Retrainer(t, trainable(60, 0), RetrainerConfig{DriftRetrain: true, DriftRejectLimit: 1})
	drift := NewDriftTracker(reg, DriftConfig{Window: 16, MinSamples: 4})
	r.cfg.Drift = drift
	v0 := reg.Current()
	v1, err := r.Retrain("manual")
	if err != nil || v1.Meta.Decision != DecisionAccepted || v1.Meta.HoldoutN == 0 {
		t.Fatalf("first retrain: %+v, %v; want an accepted, holdout-evaluated v1", v1, err)
	}
	// Every drift candidate now learns inverted labels and is rejected.
	if _, err := store.AppendAll(poisonedCorpus(240, 1000)); err != nil {
		t.Fatal(err)
	}
	drift.Record(v1, repeat(0.9, 8))
	r.retrainDrifted()
	if reg.Current() != v0 {
		t.Fatalf("breaker on v1 serves v%d, want v0", reg.Current().ID)
	}
	ds := r.Decisions()
	if last := ds[len(ds)-1]; last.Trigger != "auto-rollback" || last.Decision != "rolled_back" || last.Version != 0 {
		t.Fatalf("auto-rollback decision = %+v, want rolled_back to v0", last)
	}
}

// TestCanaryFirstRetrainChallengesV0: with canary confirmation on, a
// fresh registry's first background retrain does not swap in — it is a
// challenger against champion 0, fed by the queries v0 serves, and is
// promoted once its window confirms it.
func TestCanaryFirstRetrainChallengesV0(t *testing.T) {
	canary := NewCanary(CanaryConfig{Window: 4, MaxAge: time.Hour})
	r, reg, _ := v0Retrainer(t, trainable(60, 0), RetrainerConfig{Canary: canary})
	v0 := reg.Current()
	if v, err := r.Retrain("auto"); err != nil || v != nil {
		t.Fatalf("first background retrain: v=%+v err=%v; want a diverted challenger", v, err)
	}
	if st := canary.States(); len(st) != 1 || st[0].Champion != 0 || reg.Current() != v0 {
		t.Fatalf("canary %+v serving v%d; want a challenger against champion 0", st, reg.Current().ID)
	}
	exs := trainable(4, 300)
	obs := make([]float64, len(exs))
	for i := range exs {
		obs[i] = exs[i].ErrL1[v0.Selector.Select(exs[i].Features)]
	}
	canary.Observe(v0, exs, obs)
	resolve(r)
	if cur := reg.Current(); cur.IsV0() || cur.Meta.Decision != DecisionAccepted {
		t.Fatalf("confirmed challenger not promoted over v0: serving %+v", cur.Meta)
	}
}

// TestDriftV0WindowNeverFires: the harvest feeds v0's window like any
// version's, and it shows, but v0 has no holdout baseline, so it cannot
// drift however bad the observations.
func TestDriftV0WindowNeverFires(t *testing.T) {
	tr, reg, _ := driftRig(DriftConfig{Window: 8, MinSamples: 2})
	tr.Record(reg.Current(), repeat(0.99, 8))
	st, ok := tr.Status()
	if !ok || st.Version != 0 || st.Samples != 8 || st.BaselineN != 0 || st.Drifted {
		t.Fatalf("v0 drift status %+v, %v; want a full window that cannot fire", st, ok)
	}
}

// TestRegistryPruneNeverDropsV0: however long the history grows, pruning
// keeps v0 beneath it — although it is the oldest accepted version and
// far off the serving version's rollback chain.
func TestRegistryPruneNeverDropsV0(t *testing.T) {
	r := newRegistry()
	v0 := r.Current()
	for range 40 {
		r.Publish(&selection.Selector{}, VersionMeta{Source: "auto"})
	}
	hist := r.Versions()
	if len(hist) > maxVersions || hist[0] != v0 {
		t.Fatalf("history of %d versions starts at v%d; want at most %d, v0 first", len(hist), hist[0].ID, maxVersions)
	}
}

// syncedModels trains one selector and publishes it as versions with
// corpus sizes 1..n on a fresh registry, synced to a model directory.
func syncedModels(t *testing.T, n int) (*ModelDir, *Registry) {
	t.Helper()
	sel, err := selection.Train(familyExamples(30, 0, "", false), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	md, err := OpenModelDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	for size := 1; size <= n; size++ {
		reg.Publish(sel, VersionMeta{Source: "manual", CorpusSize: size})
	}
	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}
	return md, reg
}

// TestModelDirNeverWritesV0: v0 is configuration, not a model. Sync
// stops the chain above it, so no v0 file is ever written, and once v0
// serves again the manifest lists no version and every model file goes.
func TestModelDirNeverWritesV0(t *testing.T) {
	md, reg := syncedModels(t, 1)
	files := func() []string {
		names, _ := filepath.Glob(filepath.Join(md.Dir(), "global-v*"))
		return names
	}
	if got := files(); len(got) != 1 || filepath.Base(got[0]) != "global-v1.sel" {
		t.Fatalf("model files %v, want global-v1.sel alone", got)
	}
	if _, err := reg.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}
	if got := files(); len(got) != 0 {
		t.Fatalf("model files %v while v0 serves, want none", got)
	}
	raw, err := os.ReadFile(filepath.Join(md.Dir(), manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil || len(m.Targets) != 0 {
		t.Fatalf("manifest %s (%v), want no target while v0 serves", raw, err)
	}
	if ok, err := md.Restore(newRegistry()); ok || err != nil {
		t.Fatalf("restore while v0 serves: ok=%v err=%v; want nothing restored", ok, err)
	}
}

// TestModelDirRestoresRollbackToV0OverSeed: a manifest recording that v0
// serves wins over a seed published before Restore, as a restored model
// does: the seed is rolled back from, so v0 serves and a further
// rollback has nowhere to go — the registry as it stood before the
// restart.
func TestModelDirRestoresRollbackToV0OverSeed(t *testing.T) {
	md, reg := syncedModels(t, 1)
	if _, err := reg.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}
	restarted := newRegistry()
	seed := restarted.Publish(reg.Versions()[1].Selector, VersionMeta{Source: "seed"})
	if ok, err := md.Restore(restarted); ok || err != nil {
		t.Fatalf("restore: ok=%v err=%v; want nothing restored", ok, err)
	}
	if cur := restarted.Current(); !cur.IsV0() {
		t.Fatalf("restart serves v%d (%s), want v0", cur.ID, cur.Meta.Source)
	}
	if _, err := restarted.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("rollback after restore: %v, want ErrNoRollback", err)
	}
	if next := restarted.Publish(seed.Selector, VersionMeta{Source: "manual"}); next.ID != 2 {
		t.Fatalf("next version v%d, want v2", next.ID)
	}
	if back, err := restarted.Rollback(); err != nil || !back.IsV0() {
		t.Fatalf("rollback from v2 = %+v, %v; want v0, past the rolled-back seed", back, err)
	}
}

// TestModelDirRestoresChainAboveV0: a restart restores the persisted
// chain above the new registry's v0, with the same version IDs, and
// rolling back walks it down to v0 and no further.
func TestModelDirRestoresChainAboveV0(t *testing.T) {
	md, _ := syncedModels(t, 3)
	reg := newRegistry()
	if ok, err := md.Restore(reg); !ok || err != nil {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	vs := reg.Versions()
	if len(vs) != 4 {
		t.Fatalf("restored %d versions, want v0 and three", len(vs))
	}
	for i, v := range vs {
		if v.ID != i || v.Meta.CorpusSize != i {
			t.Fatalf("version %d: id %d corpus %d; want the chain in order above v0", i, v.ID, v.Meta.CorpusSize)
		}
	}
	for want := 2; want >= 0; want-- {
		if back, err := reg.Rollback(); err != nil || back.ID != want {
			t.Fatalf("rollback = %+v, %v; want v%d", back, err, want)
		}
	}
	if _, err := reg.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("rollback past v0: %v, want ErrNoRollback", err)
	}
}
