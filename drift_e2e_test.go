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
// published for one workload family with a fabricated near-zero holdout
// baseline, so any live traffic reads as drift — serves that family's
// queries; the harvester joins each query's estimator errors back to the
// pinned version; the background retrainer's drift trigger fires and
// retrains exactly that family (trigger "drift" in the decision
// history); and GET /models/drift reflects the whole transition: drifted
// true with the stale version, then the fresh version's own window.
func TestDriftDetectAutoRetrainEndToEnd(t *testing.T) {
	w := learningWorkload(t)
	// Pick the family to poison and a query of another family as the
	// control.
	fam := w.QueryFamily(0)
	var famQueries, otherQueries []int
	for i := 0; i < w.NumQueries(); i++ {
		if w.QueryFamily(i) == fam {
			famQueries = append(famQueries, i)
		} else {
			otherQueries = append(otherQueries, i)
		}
	}
	if len(otherQueries) == 0 {
		t.Fatal("workload has a single family; cannot prove per-family isolation")
	}

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
		// A few live queries must clear the family training floor.
		MinFamilyExamples: 1,
		DriftWindow:       64,
		DriftMinSamples:   3,
		DriftRatio:        1.5,
		DriftAbsSlack:     -1, // zero slack: vs. the near-zero baseline, any real error drifts
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
		Family:    fam,
	})

	eng := NewEngine(w, EngineConfig{RouteByFamily: true}, MonitorOptions{UpdateEvery: 4, Learning: lrn})
	srv := httptest.NewServer(NewEngineServer(eng))
	defer srv.Close()

	runQuery := func(q int) {
		t.Helper()
		var info struct {
			ID          string `json:"id"`
			Model       int    `json:"model"`
			ModelFamily string `json:"model_family"`
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
			Family       string  `json:"family"`
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
			Family   string `json:"family"`
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

	// A control query of another family first: it has no model to serve
	// it (only fam has a version), so no drift window may appear for it.
	runQuery(otherQueries[0])
	if dw := getDrift(); len(dw.Targets) != 0 {
		t.Fatalf("control query created drift state: %+v", dw.Targets)
	}

	// Serve the poisoned family until its window has MinSamples and the
	// background loop retrains it. Every query contributes >= 1 example
	// (MinObservations 1), so a handful suffices; keep cycling until the
	// transition is visible or the deadline passes.
	deadline := time.Now().Add(30 * time.Second)
	var after driftWire
	retrained := false
	for !retrained {
		if time.Now().After(deadline) {
			t.Fatalf("drift retrain never fired; last standing: %+v", after)
		}
		for _, q := range famQueries {
			runQuery(q)
		}
		after = getDrift()
		for _, d := range after.Decisions {
			if d.Trigger == "drift" {
				retrained = true
			}
		}
	}

	// The decision history pins provenance: every drift-triggered retrain
	// hit exactly the poisoned family, and no other target was trained at
	// all (the size/age trigger was disabled, so the history is pure).
	for _, d := range after.Decisions {
		if d.Trigger != "drift" {
			t.Fatalf("unexpected non-drift decision %+v (size/age trigger should be off)", d)
		}
		if d.Family != fam {
			t.Fatalf("drift retrain hit family %q, want only %q", d.Family, fam)
		}
		if d.Decision != "accepted" {
			t.Fatalf("ungated drift retrain was not accepted: %+v", d)
		}
	}

	// The registry swapped in a fresh version for fam only.
	cur := lrn.reg.CurrentFor(fam)
	if cur == nil || cur.ID == stale.ID {
		t.Fatalf("family %q still serves the stale version", fam)
	}
	if cur.Meta.Source != "drift" || cur.Meta.Family != fam {
		t.Fatalf("replacement version provenance: %+v", cur.Meta)
	}
	if lrn.reg.Current() != nil {
		t.Fatal("a global version appeared although only the family drifted")
	}

	// GET /models/drift reflects the transition: once the replacement has
	// served a query, the fam target reports its window — never again the
	// stale version's — with drift provenance attached. (The replacement
	// omits the target until its first harvest.)
	runQuery(famQueries[0])
	after = getDrift()
	found := false
	for _, tg := range after.Targets {
		if tg.Family != fam {
			t.Fatalf("drift window for unexpected target %q", tg.Family)
		}
		found = true
		if tg.Version == stale.ID && tg.Drifted {
			t.Fatalf("stale version still drifting after retrain: %+v", tg)
		}
		if tg.LastTrigger != "drift" || tg.LastDecision != "accepted" {
			t.Fatalf("per-target provenance: %+v", tg)
		}
	}
	if !found {
		t.Fatal("poisoned family vanished from /models/drift")
	}

	// GET /models carries the same drift standing inline.
	var models struct {
		Drift []struct {
			Family string `json:"family"`
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
