package progressest

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"progressest/internal/feedback"
)

// TestLearningDriftFollowsRoutingAcrossRollback drives every transition
// of the serving pointer through Learning — a manual publish, a
// drift-accepted publish, an operator rollback and an auto-rollback —
// with one query pinned to the serving version before the transition
// and finished after it. The late harvest lands in the window of the
// version it was pinned to, which the serving pointer no longer reads,
// so DriftStatus is unchanged, and the status names the version Current
// reports.
func TestLearningDriftFollowsRoutingAcrossRollback(t *testing.T) {
	w := learningWorkload(t)
	ex, err := w.Harvest()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := TrainSelector(ex, SelectorConfig{Trees: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) < 4 {
		t.Fatalf("harvest has %d examples, want at least 4", len(ex))
	}

	// A small, fair baseline: benign windows never drift against it, and
	// a window of 1.0 errors always does.
	publish := func(l *Learning) *feedback.Version {
		return l.reg.Publish(sel.inner, feedback.VersionMeta{
			TrainedAt: time.Now(), HoldoutL1: 0.01, HoldoutN: 50, Source: "manual",
		})
	}
	const minSamples = 4
	window := func(e float64) []float64 {
		errs := make([]float64, minSamples)
		for i := range errs {
			errs[i] = e
		}
		return errs
	}
	driftOn := func(l *Learning, v *feedback.Version) { l.drift.Record(v, window(1)) }
	waitDecision := func(t *testing.T, l *Learning, want RetrainDecision) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); ; {
			for _, d := range l.Decisions() {
				if d.Trigger == want.Trigger && d.Decision == want.Decision {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("no %+v decision; history %+v", want, l.Decisions())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	statusOf := func(sts []DriftStatus) (DriftStatus, bool) {
		if len(sts) == 0 {
			return DriftStatus{}, false
		}
		return sts[0], true
	}

	type versions struct{ v1, v2 *feedback.Version }
	cases := []struct {
		name string
		// tweak adjusts the shared learning configuration.
		tweak func(*LearningConfig)
		// transition runs while a query pinned before it is in flight.
		transition func(t *testing.T, l *Learning, vs versions)
		// check pins the transition's own outcome on the status read
		// after the pinned query finished.
		check func(t *testing.T, l *Learning, vs versions, after []DriftStatus)
	}{
		{
			name: "manual publish",
			transition: func(t *testing.T, l *Learning, _ versions) {
				if _, err := l.Retrain(); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, l *Learning, vs versions, after []DriftStatus) {
				// The one intended difference: the status is omitted until
				// the new version's first harvest, never again showing the
				// replaced version's window.
				if st, ok := statusOf(after); ok {
					t.Fatalf("status before the new version's first harvest: %+v", st)
				}
				srv := httptest.NewServer(NewServer(w, MonitorOptions{UpdateEvery: 4, Learning: l}))
				defer srv.Close()
				var info struct {
					ID    string `json:"id"`
					Model int    `json:"model"`
				}
				if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": `+strconv.Itoa(1)+`}`, &info); code != http.StatusAccepted {
					t.Fatalf("submit: HTTP %d", code)
				}
				waitDone(t, srv.URL, info.ID)
				var dw driftResponse
				if code := doJSON(t, http.MethodGet, srv.URL+"/models/drift", "", &dw); code != http.StatusOK {
					t.Fatalf("GET /models/drift: HTTP %d", code)
				}
				st, ok := statusOf(dw.Targets)
				if cur, _ := l.Current(); !ok || st.Version != cur.ID || st.Version != info.Model || st.Samples == 0 {
					t.Fatalf("/models/drift status %+v, want the new version %d with its first harvest", st, cur.ID)
				}
			},
		},
		{
			name: "drift-accepted publish",
			transition: func(t *testing.T, l *Learning, vs versions) {
				driftOn(l, vs.v2)
				waitDecision(t, l, RetrainDecision{Trigger: "drift", Decision: feedback.DecisionAccepted})
			},
			check: func(t *testing.T, l *Learning, vs versions, _ []DriftStatus) {
				if cur := l.reg.Current(); cur == vs.v2 || cur.Meta.Source != "drift" {
					t.Fatalf("serving %+v, want the drift retrain", cur.Meta)
				}
			},
		},
		{
			name: "operator rollback",
			transition: func(t *testing.T, l *Learning, _ versions) {
				if _, err := l.Rollback(); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, l *Learning, vs versions, after []DriftStatus) {
				if st, ok := statusOf(after); !ok || st.Version != vs.v1.ID || st.Samples != 0 {
					t.Fatalf("status after rollback %+v, want a fresh window for v%d", st, vs.v1.ID)
				}
			},
		},
		{
			name: "auto-rollback",
			tweak: func(c *LearningConfig) {
				c.CanaryWindow = minSamples
				c.DriftRejectLimit = 1
			},
			transition: func(t *testing.T, l *Learning, vs versions) {
				driftOn(l, vs.v2)
				waitDecision(t, l, RetrainDecision{Trigger: "drift", Decision: feedback.DecisionCanary})
				// Live traffic says the challenger is far worse than the
				// champion: the canary rejects it, which trips the breaker.
				exs := make([]Example, minSamples)
				for i := range exs {
					exs[i] = ex[i]
					for k := range exs[i].ErrL1 {
						exs[i].ErrL1[k] = 1
					}
				}
				l.canary.Observe(vs.v2, exs, make([]float64, len(exs)))
				waitDecision(t, l, RetrainDecision{Trigger: "auto-rollback", Decision: "rolled_back"})
			},
			check: func(t *testing.T, l *Learning, vs versions, after []DriftStatus) {
				if st, ok := statusOf(after); !ok || st.Version != vs.v1.ID || st.Samples != 0 {
					t.Fatalf("status after auto-rollback %+v, want a fresh window for v%d", st, vs.v1.ID)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := ExportExamples(dir, ex); err != nil {
				t.Fatal(err)
			}
			cfg := LearningConfig{
				Dir:      dir,
				Selector: SelectorConfig{Trees: 5},
				// Only the transition under test may train: the size/age
				// trigger never fires, and the drift trigger polls fast.
				MinNewExamples:  1 << 30,
				Poll:            2 * time.Millisecond,
				DisableGate:     true,
				DisablePersist:  true,
				MinObservations: 1,
				DriftWindow:     16,
				DriftMinSamples: minSamples,
			}
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			l, err := OpenLearning(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			vs := versions{v1: publish(l), v2: publish(l)}
			// The serving version starts with a benign window, so the
			// statuses compared below are not vacuous.
			l.drift.Record(vs.v2, window(0))
			if before := l.DriftStatus(); len(before) != 1 || before[0].Version != vs.v2.ID {
				t.Fatalf("status before the transition: %+v, want v%d's", before, vs.v2.ID)
			}

			m, run, err := w.prepare(0, MonitorOptions{UpdateEvery: 4, Learning: l}, false)
			if err != nil {
				t.Fatal(err)
			}
			pinned := m.ModelVersion()
			tc.transition(t, l, vs)
			mid := l.DriftStatus()
			run()
			if _, err := m.Wait(); err != nil {
				t.Fatal(err)
			}
			after := l.DriftStatus()
			if !reflect.DeepEqual(mid, after) {
				t.Fatalf("late harvest for v%d moved the drift status:\nbefore %+v\nafter  %+v", pinned, mid, after)
			}
			if st, ok := statusOf(after); ok {
				if cur, _ := l.Current(); st.Version != cur.ID {
					t.Fatalf("status reports v%d, v%d serves", st.Version, cur.ID)
				}
				if st.Version == pinned {
					t.Fatalf("status still reports the replaced v%d", pinned)
				}
			}
			tc.check(t, l, vs, after)
		})
	}
}
