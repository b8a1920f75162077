package feedback

import (
	"testing"

	"progressest/internal/progress"
	"progressest/internal/selection"
)

// familyExample builds one learnable example tagged with a family. With
// inverted set, the label rule is flipped — a selector trained on
// inverted examples systematically mispicks on truthful ones, which is
// what the quality-gate tests lean on.
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

// TestQualityGateRejectsRegression: a candidate trained on a poisoned
// corpus must not replace a good serving version; the rejection is
// recorded in the history, and the serving pointer stays put.
func TestQualityGateRejectsRegression(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := newRegistry()

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
	// The rejection is visible in the history, above v0 and the baseline.
	hist := reg.Versions()
	if len(hist) != 3 || hist[2] != v {
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
	reg := newRegistry()
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
	reg := newRegistry()
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
	if v.Meta.Decision != DecisionAccepted || reg.Current() != v || v.Meta.BaselineL1 != 0 {
		t.Fatalf("retrain against seed baseline: decision %q, baseline %v, current %+v; want ungated",
			v.Meta.Decision, v.Meta.BaselineL1, reg.Current())
	}
}
