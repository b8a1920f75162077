package progressest

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// runQueries runs queries 0..n-1 of w to completion under opts.
func runQueries(t *testing.T, w *Workload, n int, opts MonitorOptions) {
	t.Helper()
	for q := range n {
		m, err := w.Start(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for range m.Updates {
		}
		if _, err := m.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRollbackFromV1LandsOnV0: a fresh daemon serves v0, the fixed DNE
// estimator; its first retrain is gated against v0; and POST
// /models/rollback from v1 returns to v0 with 200, the call after it
// answering 409. While v0 serves, /healthz carries no "model" and GET
// /models reports current 0 — also after a restart, since v0 is never
// persisted.
func TestRollbackFromV1LandsOnV0(t *testing.T) {
	w := learningWorkload(t)
	cfg := LearningConfig{Dir: t.TempDir(), Selector: SelectorConfig{Trees: 10}, DisableBackground: true}
	lrn, err := OpenLearning(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(w, MonitorOptions{UpdateEvery: 8, Learning: lrn}))
	defer srv.Close()
	runQueries(t, w, w.NumQueries(), MonitorOptions{Learning: lrn}) // enough for a holdout split

	var v1 ModelVersion
	if code := doJSON(t, http.MethodPost, srv.URL+"/models/retrain", "", &v1); code != http.StatusOK ||
		v1.ID != 1 || v1.Decision != "accepted" || v1.BaselineL1 <= 0 {
		t.Fatalf("first retrain: status %d, %+v; want v1 accepted against v0's holdout L1", code, v1)
	}
	back := map[string]any{}
	if code := doJSON(t, http.MethodPost, srv.URL+"/models/rollback", "", &back); code != http.StatusOK || back["id"] != 0.0 || back["source"] != "fixed" {
		t.Fatalf("rollback from v1: status %d, %v; want 200 and v0", code, back)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/models/rollback", "", nil); code != http.StatusConflict {
		t.Fatalf("rollback from v0: status %d, want 409", code)
	}
	health := map[string]any{}
	if code := doJSON(t, http.MethodGet, srv.URL+"/healthz", "", &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if _, ok := health["model"]; ok {
		t.Fatalf("healthz reports a model while v0 serves: %v", health)
	}
	var models modelsResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/models", "", &models); code != http.StatusOK ||
		models.Current != 0 || len(models.Versions) != 2 || !models.Versions[0].Current {
		t.Fatalf("GET /models after rollback to v0: status %d, %+v", code, models)
	}
	if err := lrn.Close(); err != nil {
		t.Fatal(err)
	}

	lrn2, err := OpenLearning(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lrn2.Close()
	if cur, ok := lrn2.Current(); ok || cur.ID != 0 || len(lrn2.Versions()) != 1 {
		t.Fatalf("restart after rollback to v0 serves %+v (ok %v, %d versions); want v0 alone", cur, ok, len(lrn2.Versions()))
	}
}

// TestRollbackFromSeedToV0SurvivesRestart: a seed-served daemon rolls
// back to v0 (200), and restarted with the same seed it comes back
// serving v0, not the seed it rolled back from; the seed stays rolled
// back, so a further rollback still answers 409.
func TestRollbackFromSeedToV0SurvivesRestart(t *testing.T) {
	w := learningWorkload(t)
	ex, err := w.Harvest()
	if err != nil {
		t.Fatal(err)
	}
	seed, err := TrainSelector(ex, SelectorConfig{Trees: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := LearningConfig{Dir: t.TempDir(), SeedSelector: seed, DisableBackground: true}
	lrn, err := OpenLearning(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(w, MonitorOptions{UpdateEvery: 8, Learning: lrn}))
	back := map[string]any{}
	if code := doJSON(t, http.MethodPost, srv.URL+"/models/rollback", "", &back); code != http.StatusOK || back["id"] != 0.0 {
		t.Fatalf("rollback from the seed: status %d, %v; want 200 and v0", code, back)
	}
	srv.Close()
	if err := lrn.Close(); err != nil {
		t.Fatal(err)
	}

	lrn2, err := OpenLearning(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lrn2.Close()
	if cur, ok := lrn2.Current(); ok || cur.ID != 0 {
		t.Fatalf("restart after rollback to v0 serves %+v (ok %v); want v0", cur, ok)
	}
	m, err := w.Start(0, MonitorOptions{Learning: lrn2})
	if err != nil {
		t.Fatal(err)
	}
	for range m.Updates {
	}
	if _, err := m.Wait(); err != nil || m.ModelVersion() != 0 {
		t.Fatalf("query after restart: version %d, err %v; want v0", m.ModelVersion(), err)
	}
	srv2 := httptest.NewServer(NewServer(w, MonitorOptions{UpdateEvery: 8, Learning: lrn2}))
	defer srv2.Close()
	if code := doJSON(t, http.MethodPost, srv2.URL+"/models/rollback", "", nil); code != http.StatusConflict {
		t.Fatalf("rollback after restart: status %d, want 409", code)
	}
}

// TestCanaryChallengesV0OnFreshDaemon: with canary confirmation on, a
// fresh daemon's first background retrain becomes a challenger against
// champion 0, and the queries v0 goes on serving shadow-score it.
func TestCanaryChallengesV0OnFreshDaemon(t *testing.T) {
	w := learningWorkload(t)
	lrn, err := OpenLearning(LearningConfig{
		Dir: t.TempDir(), Selector: SelectorConfig{Trees: 10}, DisableBackground: true, CanaryWindow: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn.Close()
	opts := MonitorOptions{Learning: lrn}
	runQueries(t, w, 3, opts)
	if v, err := lrn.ret.Retrain("auto"); err != nil || v != nil {
		t.Fatalf("first background retrain: %+v, %v; want a diverted challenger", v, err)
	}
	if cs := lrn.Canaries(); len(cs) != 1 || cs[0].Champion != 0 || cs[0].Samples != 0 {
		t.Fatalf("canaries %+v; want one fresh challenger against champion 0", cs)
	}
	runQueries(t, w, 3, opts)
	if cs := lrn.Canaries(); len(cs) != 1 || cs[0].Samples == 0 {
		t.Fatalf("canaries %+v; want the queries v0 served credited to the challenger", cs)
	}
	if cur, ok := lrn.Current(); ok || cur.ID != 0 {
		t.Fatalf("serving %+v during confirmation, want v0", cur)
	}
}
