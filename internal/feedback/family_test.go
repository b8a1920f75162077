package feedback

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"progressest/internal/progress"
	"progressest/internal/selection"
)

// familyExample builds one learnable example tagged with a family. With
// inverted set, the label rule is flipped — a selector trained on
// inverted examples systematically mispicks on truthful ones, which is
// what the per-family and quality-gate tests lean on.
func familyExample(i int, family string, inverted bool) selection.Example {
	var e selection.Example
	e.Features = make([]float64, 6)
	e.Features[0] = float64(i % 2)
	for j := 1; j < len(e.Features); j++ {
		e.Features[j] = float64(i) / 100
	}
	good, bad := progress.DNE, progress.TGN
	if (e.Features[0] > 0.5) == inverted {
		good, bad = bad, good
	}
	e.ErrL1[good] = 0.05
	e.ErrL1[bad] = 0.40
	e.ErrL1[progress.LUO] = 0.25
	e.Workload = "synthetic"
	e.Family = family
	e.Meta = map[string]float64{"query": float64(i)}
	return e
}

func familyExamples(n, from int, family string, inverted bool) []selection.Example {
	out := make([]selection.Example, n)
	for i := range out {
		out[i] = familyExample(from+i, family, inverted)
	}
	return out
}

// poisonedCorpus builds n examples whose hash-holdout members (see
// isHoldout) follow the truthful rule while the training-side members are
// inverted — so a candidate trained on it learns the inversion and fails
// the truthful holdout. Inversion only flips labels, never features, so
// holdout membership is unchanged by it.
func poisonedCorpus(n, from int) []selection.Example {
	out := make([]selection.Example, 0, n)
	for i := from; len(out) < n; i++ {
		probe := familyExample(i, "", false)
		out = append(out, familyExample(i, "", !isHoldout(&probe)))
	}
	return out
}

// picksRight counts how often sel picks each probe's true best estimator.
func picksRight(sel *selection.Selector, probe []selection.Example) int {
	right := 0
	for i := range probe {
		if sel.Select(probe[i].Features) == probe[i].BestKind(progress.CoreKinds()) {
			right++
		}
	}
	return right
}

// TestRetrainerFamilyModels: families with enough examples get their own
// published model routed under their family; thin families and unseen
// families fall back to the global model.
func TestRetrainerFamilyModels(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := NewRegistry()
	ret := NewRetrainer(store, reg, RetrainerConfig{
		Selection:         fastConfig(),
		Gate:              QualityGate{Disabled: true},
		FamilyModels:      true,
		MinFamilyExamples: 20,
	})
	// Family "alpha" follows the truthful rule, family "beta" the
	// inverted one — so their family models must disagree, which proves
	// each was trained on its own slice. "thin" stays below the
	// threshold.
	if _, err := store.AppendAll(familyExamples(30, 0, "alpha", false)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.AppendAll(familyExamples(30, 100, "beta", true)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.AppendAll(familyExamples(5, 200, "thin", false)); err != nil {
		t.Fatal(err)
	}
	global, err := ret.Retrain("manual")
	if err != nil {
		t.Fatal(err)
	}
	if global.Meta.Family != "" {
		t.Fatalf("Retrain returned family %q, want the global version", global.Meta.Family)
	}

	alpha := reg.CurrentFor("alpha")
	beta := reg.CurrentFor("beta")
	if alpha == nil || alpha.Meta.Family != "alpha" {
		t.Fatalf("alpha routed to %+v", alpha)
	}
	if beta == nil || beta.Meta.Family != "beta" {
		t.Fatalf("beta routed to %+v", beta)
	}
	// Fallbacks: the thin family and an unseen one serve the global model.
	if v := reg.CurrentFor("thin"); v != global {
		t.Fatalf("thin family routed to %+v, want global fallback", v)
	}
	if v := reg.CurrentFor("unseen"); v != global {
		t.Fatalf("unseen family routed to %+v, want global fallback", v)
	}
	if routed := reg.Routed(); len(routed) != 3 {
		t.Fatalf("routing table has %d entries, want 3 (global+alpha+beta): %v", len(routed), routed)
	}

	// Each family model learned ITS family's rule.
	probeTrue := familyExamples(20, 1000, "alpha", false)
	probeInv := familyExamples(20, 1000, "beta", true)
	if n := picksRight(alpha.Selector, probeTrue); n < 16 {
		t.Fatalf("alpha model got %d/20 truthful picks", n)
	}
	if n := picksRight(beta.Selector, probeInv); n < 16 {
		t.Fatalf("beta model got %d/20 inverted picks", n)
	}
	// And they genuinely disagree: the beta model is bad on alpha's rule.
	if n := picksRight(beta.Selector, probeTrue); n > 8 {
		t.Fatalf("beta model agrees with alpha's rule (%d/20) — family slices leaked", n)
	}
}

// TestSplitHoldoutStableUnderShift: holdout membership is a property of
// the example, not its corpus position — retention dropping a prefix of
// the corpus must not move rows the serving model trained on into the
// holdout its successor is gated on.
func TestSplitHoldoutStableUnderShift(t *testing.T) {
	exs := familyExamples(60, 0, "", false)
	key := func(e *selection.Example) float64 { return e.Features[1] } // unique per example
	_, h1, in1 := splitHoldout(exs)
	_, h2, in2 := splitHoldout(exs[13:]) // retention dropped a 13-example prefix
	if in1 || in2 {
		t.Fatal("splits of a 60/47-example corpus should be out-of-sample")
	}
	if len(h1) == 0 || len(h1) == len(exs) {
		t.Fatalf("degenerate split: %d of %d held out", len(h1), len(exs))
	}
	members := make(map[float64]bool, len(h1))
	for i := range h1 {
		members[key(&h1[i])] = true
	}
	for i := range h2 {
		if !members[key(&h2[i])] {
			t.Fatalf("example %v joined the holdout only after the shift", key(&h2[i]))
		}
	}
	surviving := 0
	for i := 13; i < len(exs); i++ {
		if members[key(&exs[i])] {
			surviving++
		}
	}
	if len(h2) != surviving {
		t.Fatalf("shifted holdout has %d members, want the %d surviving originals", len(h2), surviving)
	}
}

// TestRetrainerSkipsUnchangedFamilies: a retrain cycle must not re-train
// (and re-publish) a family that received no new examples, while families
// with fresh evidence and the global model still advance.
func TestRetrainerSkipsUnchangedFamilies(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := NewRegistry()
	ret := NewRetrainer(store, reg, RetrainerConfig{
		Selection:         fastConfig(),
		Gate:              QualityGate{Disabled: true},
		FamilyModels:      true,
		MinFamilyExamples: 20,
	})
	if _, err := store.AppendAll(familyExamples(30, 0, "alpha", false)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.AppendAll(familyExamples(30, 100, "beta", true)); err != nil {
		t.Fatal(err)
	}
	g1, err := ret.Retrain("manual")
	if err != nil {
		t.Fatal(err)
	}
	alpha1, beta1 := reg.CurrentFor("alpha"), reg.CurrentFor("beta")
	// Only beta grows before the next cycle.
	if _, err := store.AppendAll(familyExamples(25, 200, "beta", true)); err != nil {
		t.Fatal(err)
	}
	g2, err := ret.Retrain("manual")
	if err != nil {
		t.Fatal(err)
	}
	if g2.ID == g1.ID {
		t.Fatal("global model did not advance")
	}
	if v := reg.CurrentFor("alpha"); v != alpha1 {
		t.Fatalf("unchanged family alpha was retrained: v%d -> v%d", alpha1.ID, v.ID)
	}
	if v := reg.CurrentFor("beta"); v == beta1 {
		t.Fatal("grown family beta was not retrained")
	}
}

// TestRegistryPruneProtectsRollbackTargets: the history budget prunes
// gate-rejected versions first and never evicts a serving version or its
// rollback candidate — so heavy per-family retraining cannot erode
// rollback below one step per target.
func TestRegistryPruneProtectsRollbackTargets(t *testing.T) {
	r := NewRegistry()
	families := []string{"", "alpha", "beta", "gamma"}
	// Far more publications than the budget: per cycle, one accepted
	// version per target plus one rejected record.
	for cycle := 0; cycle < 30; cycle++ {
		for _, f := range families {
			r.Publish(&selection.Selector{}, VersionMeta{Source: "auto", Family: f})
		}
		r.Record(&selection.Selector{}, VersionMeta{Source: "auto", Family: "alpha"})
	}
	hist := r.Versions()
	if len(hist) > maxVersions {
		t.Fatalf("history %d versions, budget %d", len(hist), maxVersions)
	}
	for _, v := range hist {
		if v.Meta.Decision == DecisionRejected {
			t.Fatalf("rejected version %d survived pruning while accepted history was evicted", v.ID)
		}
	}
	// Every target still serves and can roll back one step.
	for _, f := range families {
		cur, ok := r.router.Get(f)
		if !ok {
			t.Fatalf("target %q lost its serving version", f)
		}
		back, err := r.Rollback(f)
		if err != nil {
			t.Fatalf("target %q cannot roll back after pruning: %v", f, err)
		}
		if back == cur || back.Meta.Family != f {
			t.Fatalf("target %q rolled back to %+v", f, back)
		}
	}
}

// TestQualityGateRejectsRegression: a candidate trained on a poisoned
// corpus must not replace a good serving version; the rejection is
// recorded in the history, and the serving pointer stays put.
func TestQualityGateRejectsRegression(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := NewRegistry()

	// Baseline: a selector trained on the truthful rule, published as
	// serving. HoldoutN > 0 marks it holdout-evaluated, so the gate
	// treats it as a fair baseline.
	baseSel, err := selection.Train(familyExamples(60, 0, "", false), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	baseline := reg.Publish(baseSel, VersionMeta{Source: "auto", HoldoutL1: 0.05, HoldoutN: 12})

	// Poisoned corpus: the holdout slice keeps the truthful rule, the
	// training slice is inverted — so the candidate learns the inversion
	// and fails the truthful holdout the gate evaluates both selectors
	// on.
	if _, err := store.AppendAll(poisonedCorpus(15, 0)); err != nil {
		t.Fatal(err)
	}
	ret := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(),
		Gate:      QualityGate{Tolerance: 0.25},
	})
	v, err := ret.Retrain("manual")
	if err != nil {
		t.Fatal(err)
	}
	if v.Meta.Decision != DecisionRejected {
		t.Fatalf("poisoned retrain decision %q, want rejected (cand L1 %.3f vs baseline %.3f)",
			v.Meta.Decision, v.Meta.HoldoutL1, v.Meta.BaselineL1)
	}
	if v.Meta.BaselineL1 <= 0 || v.Meta.HoldoutL1 <= v.Meta.BaselineL1 {
		t.Fatalf("gate metadata inconsistent: %+v", v.Meta)
	}
	if reg.Current() != baseline {
		t.Fatal("rejected version replaced the serving one")
	}
	if reg.IsCurrent(v) {
		t.Fatal("rejected version claims to be current")
	}
	// The rejection is visible in the history.
	hist := reg.Versions()
	if len(hist) != 2 || hist[1] != v {
		t.Fatalf("history %v", hist)
	}

	// Recovery: once the corpus is dominated by truthful examples again,
	// the next retrain passes the gate and swaps in.
	if _, err := store.AppendAll(familyExamples(480, 500, "", false)); err != nil {
		t.Fatal(err)
	}
	v2, err := ret.Retrain("manual")
	if err != nil {
		t.Fatal(err)
	}
	if v2.Meta.Decision != DecisionAccepted || reg.Current() != v2 {
		t.Fatalf("recovered retrain: decision %q current %v", v2.Meta.Decision, reg.Current())
	}
}

// TestFamilyFirstModelUngatedAndRollbackFallsBack: a family's first
// model publishes even when the global fallback looks better on the
// family holdout (the global baseline is in-sample-biased there), and
// rolling the family back past that first model removes the route so the
// family serves from the global model again.
func TestFamilyFirstModelUngatedAndRollbackFallsBack(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := NewRegistry()
	// Strong global baseline trained on the truthful rule.
	baseSel, err := selection.Train(familyExamples(60, 0, "", false), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg.Publish(baseSel, VersionMeta{Source: "seed"})
	// The family's observed corpus follows the INVERTED rule, so its
	// candidate loses to the global baseline on the family holdout — yet
	// it must still publish: there is no family-serving version to gate
	// against.
	if _, err := store.AppendAll(familyExamples(30, 0, "alpha", true)); err != nil {
		t.Fatal(err)
	}
	ret := NewRetrainer(store, reg, RetrainerConfig{
		Selection:         fastConfig(),
		Gate:              QualityGate{Tolerance: -1}, // strict
		FamilyModels:      true,
		MinFamilyExamples: 20,
	})
	if _, err := ret.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	famV := reg.CurrentFor("alpha")
	if famV == nil || famV.Meta.Family != "alpha" || famV.Meta.Decision != DecisionAccepted {
		t.Fatalf("first family model gated away: %+v", famV)
	}
	// Rolling back past the only family version falls back to global.
	back, err := reg.Rollback("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.Family != "" {
		t.Fatalf("family rollback fell back to %+v, want the global model", back)
	}
	if v := reg.CurrentFor("alpha"); v == nil || v.Meta.Family != "" {
		t.Fatalf("alpha still routed to %+v after fallback rollback", v)
	}
	// With nothing family-specific left, a further rollback of the
	// family fails (the global model keeps serving).
	if _, err := reg.Rollback("alpha"); err == nil {
		t.Fatal("rollback of an unrouted family should fail")
	}
	// The fallback is pinned: even with fresh family examples, the
	// BACKGROUND loop must not quietly re-publish the model the operator
	// just rejected...
	if _, err := store.AppendAll(familyExamples(10, 400, "alpha", true)); err != nil {
		t.Fatal(err)
	}
	if _, err := ret.Retrain("auto"); err != nil {
		t.Fatal(err)
	}
	if v := reg.CurrentFor("alpha"); v == nil || v.Meta.Family != "" {
		t.Fatalf("auto retrain overrode the operator's fallback pin: %+v", v)
	}
	// ...while an explicit manual retrain re-publishes and clears it.
	if _, err := ret.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	if v := reg.CurrentFor("alpha"); v == nil || v.Meta.Family != "alpha" {
		t.Fatalf("manual retrain did not re-publish the family model: %+v", v)
	}
	if reg.FallbackPinned("alpha") {
		t.Fatal("publish did not clear the fallback pin")
	}
}

// TestQualityGateStrictTolerance: a negative Tolerance means strict —
// withDefaults must not silently replace it with the lenient default.
func TestQualityGateStrictTolerance(t *testing.T) {
	if g := (QualityGate{Tolerance: -1}).withDefaults(); g.Tolerance != 0 {
		t.Fatalf("strict tolerance resolved to %v, want 0", g.Tolerance)
	}
	if g := (QualityGate{}).withDefaults(); g.Tolerance != 0.25 {
		t.Fatalf("unset tolerance resolved to %v, want the 0.25 default", g.Tolerance)
	}
	if g := (QualityGate{Tolerance: 0.1}).withDefaults(); g.Tolerance != 0.1 {
		t.Fatalf("explicit tolerance resolved to %v, want 0.1", g.Tolerance)
	}
}

// TestQualityGateDisabled: with the gate off, even a regressing candidate
// hot-swaps (the pre-gate behavior, still available for operators).
func TestQualityGateDisabled(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := NewRegistry()
	baseSel, err := selection.Train(familyExamples(60, 0, "", false), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg.Publish(baseSel, VersionMeta{Source: "auto", HoldoutL1: 0.05, HoldoutN: 12})
	if _, err := store.AppendAll(poisonedCorpus(15, 0)); err != nil {
		t.Fatal(err)
	}
	ret := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(),
		Gate:      QualityGate{Disabled: true},
	})
	v, err := ret.Retrain("manual")
	if err != nil {
		t.Fatal(err)
	}
	if v.Meta.Decision != DecisionAccepted || reg.Current() != v {
		t.Fatalf("gate-off retrain: decision %q, current %v", v.Meta.Decision, reg.Current())
	}
}

// TestQualityGateExemptsSeedBaseline: a seed selector (HoldoutN == 0) was
// trained on the full corpus, holdout rows included, so its error there
// is in-sample-optimistic — the first retrain must publish ungated
// rather than lose to that unfair baseline.
func TestQualityGateExemptsSeedBaseline(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := NewRegistry()
	baseSel, err := selection.Train(familyExamples(60, 0, "", false), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg.Publish(baseSel, VersionMeta{Source: "seed"}) // HoldoutN 0: not holdout-evaluated
	// Even a candidate that would LOSE to the seed on the holdout
	// publishes — the comparison would not be apples to apples.
	if _, err := store.AppendAll(poisonedCorpus(15, 0)); err != nil {
		t.Fatal(err)
	}
	ret := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(),
		Gate:      QualityGate{Tolerance: -1}, // strict — would reject if gated
	})
	v, err := ret.Retrain("manual")
	if err != nil {
		t.Fatal(err)
	}
	if v.Meta.Decision != DecisionAccepted || reg.Current() != v {
		t.Fatalf("retrain against seed baseline: decision %q, current %+v", v.Meta.Decision, reg.Current())
	}
}

// TestModelDirPersistRestore: a retrain persists the serving global and
// family models; a fresh registry restored from the same directory routes
// identically and keeps the training metadata the gate compares against.
func TestModelDirPersistRestore(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(filepath.Join(dir, "corpus"), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	md, err := OpenModelDir(filepath.Join(dir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	ret := NewRetrainer(store, reg, RetrainerConfig{
		Selection:         fastConfig(),
		Gate:              QualityGate{Disabled: true},
		FamilyModels:      true,
		MinFamilyExamples: 20,
		Persist:           md,
	})
	if _, err := store.AppendAll(familyExamples(30, 0, "alpha", false)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.AppendAll(familyExamples(30, 100, "beta", true)); err != nil {
		t.Fatal(err)
	}
	if _, err := ret.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	orig := reg.Routed()
	if len(orig) != 3 {
		t.Fatalf("routed %d targets, want 3", len(orig))
	}

	// "Restart": a fresh registry restores from disk alone.
	md2, err := OpenModelDir(filepath.Join(dir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry()
	n, err := md2.Restore(reg2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("restored %d targets, want 3", n)
	}
	for family, want := range orig {
		got := reg2.CurrentFor(family)
		if got == nil || got.Meta.Family != family {
			t.Fatalf("family %q restored to %+v", family, got)
		}
		if got.Meta.Source != "restored" {
			t.Fatalf("restored source %q", got.Meta.Source)
		}
		if got.Meta.HoldoutL1 != want.Meta.HoldoutL1 || got.Meta.HoldoutN != want.Meta.HoldoutN ||
			got.Meta.CorpusSize != want.Meta.CorpusSize {
			t.Fatalf("family %q lost metadata: got %+v want %+v", family, got.Meta, want.Meta)
		}
		// The selector itself survived the round trip.
		probe := familyExamples(20, 1000, family, family == "beta")
		if a, b := picksRight(want.Selector, probe), picksRight(got.Selector, probe); a != b {
			t.Fatalf("family %q restored selector picks %d/20, original %d/20", family, b, a)
		}
	}

	// Restoring into an empty dir is a clean no-op.
	mdEmpty, err := OpenModelDir(filepath.Join(dir, "empty"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := mdEmpty.Restore(NewRegistry()); err != nil || n != 0 {
		t.Fatalf("empty restore: n=%d err=%v", n, err)
	}
}

// TestModelDirPersistsFallbackPin: the pin set by rolling a family back
// to the global model survives the Sync/Restore cycle — a restarted
// daemon's background retrainer must keep honoring it.
func TestModelDirPersistsFallbackPin(t *testing.T) {
	dir := t.TempDir()
	md, err := OpenModelDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	sel, err := selection.Train(familyExamples(30, 0, "", false), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg.Publish(sel, VersionMeta{Source: "seed"})
	reg.Publish(sel, VersionMeta{Source: "auto", Family: "alpha"})
	if _, err := reg.Rollback("alpha"); err != nil { // falls back to global, pins
		t.Fatal(err)
	}
	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}

	md2, err := OpenModelDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry()
	if _, err := md2.Restore(reg2); err != nil {
		t.Fatal(err)
	}
	if !reg2.FallbackPinned("alpha") {
		t.Fatal("fallback pin lost across restart")
	}
	if v := reg2.CurrentFor("alpha"); v == nil || v.Meta.Family != "" {
		t.Fatalf("alpha restored to %+v, want the global fallback", v)
	}
	// A publish for the family clears the restored pin too.
	reg2.Publish(sel, VersionMeta{Source: "manual", Family: "alpha"})
	if reg2.FallbackPinned("alpha") {
		t.Fatal("publish did not clear the restored pin")
	}
}

// TestModelDirSyncSkipsUnchanged: a Sync with an unchanged routing table
// must not rewrite the (potentially multi-MB) selector files.
func TestModelDirSyncSkipsUnchanged(t *testing.T) {
	dir := t.TempDir()
	md, err := OpenModelDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	sel, err := selection.Train(familyExamples(30, 0, "", false), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg.Publish(sel, VersionMeta{Source: "manual"})
	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "global-v1.json")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("unchanged selector file was rewritten")
	}
	// A new version commits under a fresh name (the manifest rename is
	// the file-set's commit point). The superseded file is NOT collected
	// yet — it is now the target's persisted rollback history.
	reg.Publish(sel, VersionMeta{Source: "manual"})
	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "global-v2.json")); err != nil {
		t.Fatalf("new version file missing: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("rollback-history selector file was collected: %v", err)
	}
	// Two more versions push v1 off the bounded history chain; only then
	// is its file garbage-collected.
	reg.Publish(sel, VersionMeta{Source: "manual"})
	reg.Publish(sel, VersionMeta{Source: "manual"})
	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("selector file beyond the history depth was not garbage-collected")
	}
	for _, keep := range []string{"global-v2.json", "global-v3.json", "global-v4.json"} {
		if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
			t.Fatalf("%s missing: %v", keep, err)
		}
	}
}

// TestStoreFamilyRoundTripAndV1Compat: family tags survive the record
// format, and the compatibility story for a format-1 segment (the
// pre-family layout, never released) is an explicit refusal — OpenStore
// and ReadCorpus both answer the "uses corpus format" error instead of
// misreading the records, and leave the file untouched.
func TestStoreFamilyRoundTripAndV1Compat(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.AppendAll(familyExamples(5, 0, "lineitem", false)); err != nil {
		t.Fatal(err)
	}
	got, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0].Family != "lineitem" {
		t.Fatalf("family lost in round trip: %d examples, family %q", len(got), got[0].Family)
	}
	store.Close()

	// Stamp the segment as format 1, as an older build would have written
	// it. The record bytes do not matter: the header alone decides.
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(names) != 1 {
		t.Fatalf("segments: %v", names)
	}
	v1, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	v1[len(segMagic)] = 1 // format byte (little-endian uint32)
	if err := os.WriteFile(names[0], v1, 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "uses corpus format 1"
	if _, err := OpenStore(dir, StoreOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenStore over a format-1 tail: err %v, want %q", err, want)
	}
	if _, err := ReadCorpus(dir); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadCorpus over a format-1 segment: err %v, want %q", err, want)
	}
	// Same refusal when the old segment is a sealed one behind a current tail.
	if err := os.WriteFile(filepath.Join(dir, "seg-00000002.log"), segmentHeader(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, StoreOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenStore over a sealed format-1 segment: err %v, want %q", err, want)
	}
	after, err := os.ReadFile(names[0])
	if err != nil || !bytes.Equal(after, v1) {
		t.Fatalf("refused segment was modified (err %v)", err)
	}
}
