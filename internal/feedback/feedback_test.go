package feedback

import (
	"errors"
	"sync"
	"testing"
	"time"

	"progressest/internal/mart"
	"progressest/internal/progress"
	"progressest/internal/selection"
)

// trainable builds n examples over a learnable rule (feature 0 decides
// the best estimator), enough for selection.Train to fit quickly.
func trainable(n, from int) []selection.Example {
	out := make([]selection.Example, n)
	for i := range out {
		var e selection.Example
		e.Features = make([]float64, 6)
		e.Features[0] = float64((from + i) % 2)
		for j := 1; j < len(e.Features); j++ {
			e.Features[j] = float64(from+i) / 100
		}
		if e.Features[0] > 0.5 {
			e.ErrL1[progress.DNE] = 0.05
			e.ErrL1[progress.TGN] = 0.40
		} else {
			e.ErrL1[progress.DNE] = 0.40
			e.ErrL1[progress.TGN] = 0.05
		}
		e.ErrL1[progress.LUO] = 0.25
		e.Workload = "synthetic"
		e.Meta = map[string]float64{"query": float64(from + i)}
		out[i] = e
	}
	return out
}

// newRegistry returns a registry born serving v0 = always-DNE, as
// OpenLearning's is.
func newRegistry() *Registry { return NewRegistry(selection.Fixed(progress.DNE)) }

func fastConfig() selection.Config {
	return selection.Config{Kinds: progress.CoreKinds(), Mart: mart.Options{Trees: 10, Seed: 1}}
}

func TestRegistryPublishCurrentRollback(t *testing.T) {
	r := newRegistry()
	v0 := r.Current()
	if !v0.IsV0() || v0.Meta.Source != "fixed" || v0.Meta.Decision != DecisionAccepted || len(v0.Selector.Models) != 0 {
		t.Fatalf("fresh registry serves %+v, want v0, the fixed estimator", v0.Meta)
	}
	if _, err := r.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("rollback from v0: %v, want ErrNoRollback", err)
	}
	s1 := &selection.Selector{}
	s2 := &selection.Selector{}
	v1 := r.Publish(s1, VersionMeta{Source: "seed"})
	v2 := r.Publish(s2, VersionMeta{Source: "auto"})
	if v1.ID != 1 || v2.ID != 2 {
		t.Fatalf("version IDs %d,%d want 1,2", v1.ID, v2.ID)
	}
	if r.Current() != v2 {
		t.Fatal("current should be the latest publication")
	}
	back, err := r.Rollback()
	if err != nil || back != v1 || r.Current() != v1 {
		t.Fatalf("rollback: %v %v", back, err)
	}
	// Rolling back past the first version returns to v0, and no further.
	if back, err := r.Rollback(); err != nil || back != v0 {
		t.Fatalf("rollback from v1: %+v %v, want v0", back, err)
	}
	if _, err := r.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("rollback past v0: %v, want ErrNoRollback", err)
	}
	// Publishing after a rollback moves forward with a fresh ID.
	v3 := r.Publish(s2, VersionMeta{Source: "manual"})
	if v3.ID != 3 || r.Current() != v3 {
		t.Fatalf("post-rollback publish: %+v", v3)
	}
	if got := r.Versions(); len(got) != 4 || got[0] != v0 {
		t.Fatalf("history length %d, want v0 and three publications", len(got))
	}
}

// TestRegistryRollbackSkipsRejectedVersions: rolling back after an
// earlier rollback must return to the last version that actually served
// well, not re-serve the model already judged bad.
func TestRegistryRollbackSkipsRejectedVersions(t *testing.T) {
	r := newRegistry()
	v1 := r.Publish(&selection.Selector{}, VersionMeta{Source: "seed"})
	r.Publish(&selection.Selector{}, VersionMeta{Source: "auto"}) // v2, bad
	if back, err := r.Rollback(); err != nil || back != v1 {
		t.Fatalf("first rollback: %v %v", back, err)
	}
	r.Publish(&selection.Selector{}, VersionMeta{Source: "auto"}) // v3, also bad
	back, err := r.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back != v1 {
		t.Fatalf("second rollback re-served the rejected v%d instead of v%d", back.ID, v1.ID)
	}
	// Nothing good remains before v1 but v0, and nothing below v0.
	if back, err := r.Rollback(); err != nil || !back.IsV0() {
		t.Fatalf("rollback from v1: %+v %v, want v0", back, err)
	}
	if _, err := r.Rollback(); err == nil {
		t.Fatal("rollback past v0 should fail")
	}
}

// TestRegistryPruneProtectsRollbackTargets: the history budget prunes
// gate-rejected versions first and never evicts the serving version or
// its rollback chain — even when that chain holds the oldest versions
// in the history, so heavy retraining cannot erode rollback.
func TestRegistryPruneProtectsRollbackTargets(t *testing.T) {
	r := newRegistry()
	good := r.Publish(&selection.Selector{}, VersionMeta{Source: "seed"})
	prev := r.Publish(&selection.Selector{}, VersionMeta{Source: "auto"})
	// Far more publications than the budget: per cycle, one accepted
	// version the operator rolls back off again, plus one rejected
	// record — so the chain prev → good stays the oldest history.
	for cycle := 0; cycle < 3*maxVersions; cycle++ {
		r.Publish(&selection.Selector{}, VersionMeta{Source: "auto"})
		r.Record(&selection.Selector{}, VersionMeta{Source: "auto"})
		if back, err := r.Rollback(); err != nil || back != prev {
			t.Fatalf("cycle %d: rollback to %+v, %v; want v%d", cycle, back, err, prev.ID)
		}
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
	if r.Current() != prev {
		t.Fatalf("serving %+v, want v%d", r.Current(), prev.ID)
	}
	if back, err := r.Rollback(); err != nil || back != good {
		t.Fatalf("cannot roll back to v%d after pruning: %+v, %v", good.ID, back, err)
	}
}

// TestRegistryHotSwapNeverBlocksReaders hammers Current from many
// goroutines while versions are published and rolled back; under -race
// this also proves the swap is data-race-free.
func TestRegistryHotSwapNeverBlocksReaders(t *testing.T) {
	r := newRegistry()
	r.Publish(&selection.Selector{}, VersionMeta{Source: "seed"})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v := r.Current(); v == nil {
					t.Error("current became nil mid-swap")
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		r.Publish(&selection.Selector{}, VersionMeta{Source: "auto"})
		if i%3 == 0 {
			if _, err := r.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestRetrainerManualRetrain(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := newRegistry()
	ret := NewRetrainer(store, reg, RetrainerConfig{Selection: fastConfig()})

	if _, err := ret.Retrain("manual"); err != ErrEmptyCorpus {
		t.Fatalf("empty corpus: %v, want ErrEmptyCorpus", err)
	}
	if _, err := store.AppendAll(trainable(60, 0)); err != nil {
		t.Fatal(err)
	}
	v, err := ret.Retrain("manual")
	if err != nil {
		t.Fatal(err)
	}
	if v.Selector == nil || v.Meta.CorpusSize != 60 || v.Meta.Source != "manual" {
		t.Fatalf("version metadata: %+v", v.Meta)
	}
	if v.Meta.HoldoutN == 0 || v.Meta.HoldoutN >= 60 {
		t.Fatalf("holdout size %d should be a proper split", v.Meta.HoldoutN)
	}
	if reg.Current() != v {
		t.Fatal("retrain did not hot-swap the registry")
	}
	// The trained selector recovered the synthetic rule.
	probe := trainable(20, 1000)
	correct := 0
	for i := range probe {
		if v.Selector.Select(probe[i].Features) == probe[i].BestKind(progress.CoreKinds()) {
			correct++
		}
	}
	if correct < 16 {
		t.Fatalf("retrained selector got only %d/20 picks right", correct)
	}
}

func TestRetrainerSeedCorpusMixedIn(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := newRegistry()
	ret := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(),
		Seed:      trainable(50, 0),
	})
	// Only 3 observed examples — training still succeeds thanks to the
	// seed, and CorpusSize reports only the observed part.
	if _, err := store.AppendAll(trainable(3, 500)); err != nil {
		t.Fatal(err)
	}
	v, err := ret.Retrain("manual")
	if err != nil {
		t.Fatal(err)
	}
	if v.Meta.CorpusSize != 3 {
		t.Fatalf("CorpusSize %d, want 3 (seed excluded)", v.Meta.CorpusSize)
	}
}

func TestRetrainerBackgroundPolicy(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := newRegistry()
	ret := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(),
		Policy: RetrainPolicy{
			MinNewExamples: 20,
			MinInterval:    time.Millisecond,
			Poll:           5 * time.Millisecond,
		},
	})
	ret.Start()
	defer ret.Stop()

	// Below the growth threshold: no version appears.
	if _, err := store.AppendAll(trainable(10, 0)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	if !reg.Current().IsV0() {
		t.Fatal("retrainer fired below the growth threshold")
	}
	// Cross it: a version is published soon after.
	if _, err := store.AppendAll(trainable(15, 10)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Current().IsV0() {
		if time.Now().After(deadline) {
			t.Fatal("background retrainer never published")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Current().Meta.Source; got != "auto" {
		t.Fatalf("source %q, want auto", got)
	}
}

// TestRetrainerPolicyFiresAtRetentionCap: growth is measured against
// lifetime appends, so the policy keeps firing even once retention pins
// the corpus size at its cap.
func TestRetrainerPolicyFiresAtRetentionCap(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{MaxSegmentBytes: 2048, MaxExamples: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ret := NewRetrainer(store, newRegistry(), RetrainerConfig{
		Selection: fastConfig(),
		Policy:    RetrainPolicy{MinNewExamples: 20, MinInterval: time.Millisecond, Poll: time.Hour},
	})
	if _, err := store.AppendAll(trainable(25, 0)); err != nil {
		t.Fatal(err)
	}
	if !ret.due() {
		t.Fatal("policy should fire after 25 appends")
	}
	if _, err := ret.Retrain("manual"); err != nil {
		t.Fatal(err)
	}
	if ret.due() {
		t.Fatal("budget should be spent right after a successful retrain")
	}
	// The corpus is pinned at ~10 retained examples, but 20 more appends
	// must still re-arm the policy.
	if _, err := store.AppendAll(trainable(20, 100)); err != nil {
		t.Fatal(err)
	}
	if store.Len() > 15 {
		t.Fatalf("retention not active: Len = %d", store.Len())
	}
	time.Sleep(2 * time.Millisecond)
	if !ret.due() {
		t.Fatal("policy stalled at the retention cap")
	}
}

func TestRetrainerStopIsCleanAndIdempotent(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ret := NewRetrainer(store, newRegistry(), RetrainerConfig{Selection: fastConfig()})
	ret.Start()
	ret.Stop()
	ret.Stop() // idempotent
	// Stop without Start must not hang either.
	ret2 := NewRetrainer(store, newRegistry(), RetrainerConfig{Selection: fastConfig()})
	done := make(chan struct{})
	go func() { ret2.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop without Start hung")
	}
}
