package progressest

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"progressest/internal/feedback"
)

// TestDriftDetectAutoRetrainEndToEnd is the full loop of the drift
// monitor over HTTP: a deliberately stale model — a real selector
// published with a fabricated near-zero holdout baseline, so any live
// traffic reads as drift — serves the queries; the harvester joins each
// query's estimator errors back to the pinned version; the background
// retrainer's drift trigger fires and retrains the model (trigger
// "drift" in the decision history); and GET /models/drift reflects the
// whole transition: drifted true with the stale version, then the fresh
// version's own window.
func TestDriftDetectAutoRetrainEndToEnd(t *testing.T) {
	w := learningWorkload(t)
	lrn, err := OpenLearning(LearningConfig{
		Dir:      t.TempDir(),
		Selector: SelectorConfig{Trees: 10},
		// The size/age trigger must never fire: the retrain this test
		// observes has to come from the drift verdict alone.
		MinNewExamples: 1 << 30,
		Poll:           5 * time.Millisecond,
		// Gate decisions have their own coverage; here every drift
		// retrain must hot-swap so the version transition is observable.
		DisableGate:     true,
		DisablePersist:  true,
		MinObservations: 1,
		DriftWindow:     64,
		DriftMinSamples: 3,
		DriftRatio:      1.5,
		DriftAbsSlack:   -1, // zero slack: vs. the near-zero baseline, any real error drifts
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn.Close()

	// The stale model: a genuinely trained selector whose recorded
	// holdout baseline promises near-perfect serving error. Live traffic
	// cannot live up to a 1e-9 promise, which is exactly the
	// observed-vs-predicted gap the monitor exists to catch.
	ex, err := w.Harvest()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := TrainSelector(ex, SelectorConfig{Trees: 10})
	if err != nil {
		t.Fatal(err)
	}
	stale := lrn.reg.Publish(sel.inner, feedback.VersionMeta{
		TrainedAt: time.Now(),
		HoldoutL1: 1e-9,
		HoldoutN:  50,
		Source:    "manual",
	})

	eng := NewEngine(w, EngineConfig{}, MonitorOptions{UpdateEvery: 4, Learning: lrn})
	srv := httptest.NewServer(NewEngineServer(eng))
	defer srv.Close()

	runQuery := func(q int) {
		t.Helper()
		var info struct {
			ID    string `json:"id"`
			Model int    `json:"model"`
		}
		if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": `+strconv.Itoa(q)+`}`, &info); code != http.StatusAccepted {
			t.Fatalf("submit query %d: HTTP %d", q, code)
		}
		deadline := time.Now().Add(20 * time.Second)
		for {
			var pr struct {
				Done bool `json:"done"`
			}
			doJSON(t, http.MethodGet, srv.URL+"/queries/"+info.ID+"/progress", "", &pr)
			if pr.Done {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("query %d never finished", q)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	type driftWire struct {
		Targets []struct {
			Version      int     `json:"version"`
			BaselineL1   float64 `json:"baseline_l1"`
			ObservedL1   float64 `json:"observed_l1"`
			Samples      int     `json:"samples"`
			Drifted      bool    `json:"drifted"`
			LastTrigger  string  `json:"last_trigger"`
			LastDecision string  `json:"last_decision"`
		} `json:"targets"`
		Decisions []struct {
			Trigger  string `json:"trigger"`
			Version  int    `json:"version"`
			Decision string `json:"decision"`
		} `json:"decisions"`
	}
	getDrift := func() driftWire {
		t.Helper()
		var dw driftWire
		if code := doJSON(t, http.MethodGet, srv.URL+"/models/drift", "", &dw); code != http.StatusOK {
			t.Fatalf("GET /models/drift: HTTP %d", code)
		}
		return dw
	}

	// Before any harvest the stale version has no window to report.
	if dw := getDrift(); len(dw.Targets) != 0 {
		t.Fatalf("drift state before any served query: %+v", dw.Targets)
	}

	// Serve queries until the window has MinSamples and the background
	// loop retrains. Every query contributes >= 1 example
	// (MinObservations 1), so a handful suffices; keep cycling until the
	// transition is visible or the deadline passes.
	deadline := time.Now().Add(30 * time.Second)
	var after driftWire
	retrained := false
	for !retrained {
		if time.Now().After(deadline) {
			t.Fatalf("drift retrain never fired; last standing: %+v", after)
		}
		for q := 0; q < w.NumQueries(); q++ {
			runQuery(q)
		}
		after = getDrift()
		for _, d := range after.Decisions {
			if d.Trigger == "drift" {
				retrained = true
			}
		}
	}

	// The decision history pins provenance: every retrain was
	// drift-triggered (the size/age trigger was disabled, so the history
	// is pure).
	for _, d := range after.Decisions {
		if d.Trigger != "drift" {
			t.Fatalf("unexpected non-drift decision %+v (size/age trigger should be off)", d)
		}
		if d.Decision != "accepted" {
			t.Fatalf("ungated drift retrain was not accepted: %+v", d)
		}
	}

	// The registry swapped in a fresh version.
	cur := lrn.reg.Current()
	if cur == nil || cur.ID == stale.ID {
		t.Fatal("the stale version still serves")
	}
	if cur.Meta.Source != "drift" {
		t.Fatalf("replacement version provenance: %+v", cur.Meta)
	}

	// GET /models/drift reflects the transition: once the replacement has
	// served a query, its window is reported — never again the stale
	// version's — with drift provenance attached. (The replacement is
	// omitted until its first harvest.)
	runQuery(0)
	after = getDrift()
	if len(after.Targets) != 1 {
		t.Fatalf("drift standing = %+v, want the serving version's", after.Targets)
	}
	tg := after.Targets[0]
	if tg.Version == stale.ID && tg.Drifted {
		t.Fatalf("stale version still drifting after retrain: %+v", tg)
	}
	if tg.LastTrigger != "drift" || tg.LastDecision != "accepted" {
		t.Fatalf("provenance: %+v", tg)
	}

	// GET /models carries the same drift standing inline.
	var models struct {
		Drift []struct {
			Version int `json:"version"`
		} `json:"drift"`
		Decisions []struct {
			Trigger string `json:"trigger"`
		} `json:"decisions"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/models", "", &models); code != http.StatusOK {
		t.Fatalf("GET /models: HTTP %d", code)
	}
	if len(models.Drift) == 0 || len(models.Decisions) == 0 {
		t.Fatal("GET /models does not surface drift standing and decisions")
	}
}

// TestDriftEndpointWithoutLearning: /models/drift 404s like the other
// model-lifecycle routes when continuous learning is off.
func TestDriftEndpointWithoutLearning(t *testing.T) {
	srv := httptest.NewServer(NewServer(serverWorkload(t), MonitorOptions{}))
	defer srv.Close()
	if code := doJSON(t, http.MethodGet, srv.URL+"/models/drift", "", nil); code != http.StatusNotFound {
		t.Fatalf("GET /models/drift without learning: HTTP %d, want 404", code)
	}
}
