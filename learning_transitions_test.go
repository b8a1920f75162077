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
// of the routing table through Learning — a manual publish, a
// drift-accepted publish, an operator rollback, an auto-rollback and a
// family rolled back past its last version — with one query pinned to
// the serving version before the transition and finished after it. The
// late harvest lands in the window of the version it was pinned to,
// which the routing table no longer reads, so DriftStatus is unchanged
// for every target, and every target's status names the version Current
// and FamilyVersions report.
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
	fam := w.QueryFamily(0)
	famQuery, otherQuery := 0, -1
	for i := 0; i < w.NumQueries(); i++ {
		if w.QueryFamily(i) != fam {
			otherQuery = i
			break
		}
	}
	if otherQuery < 0 {
		t.Fatal("workload has a single family; the global route needs a query of another")
	}
	var famExamples []Example
	for _, e := range ex {
		if e.Family == fam {
			famExamples = append(famExamples, e)
		}
	}
	if len(famExamples) < 4 {
		t.Fatalf("family %q has %d examples, want at least 4", fam, len(famExamples))
	}

	// A small, fair baseline: benign windows never drift against it, and
	// a window of 1.0 errors always does.
	publish := func(l *Learning, family string) *feedback.Version {
		return l.reg.Publish(sel.inner, feedback.VersionMeta{
			TrainedAt: time.Now(), HoldoutL1: 0.01, HoldoutN: 50, Source: "manual", Family: family,
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
				if d.Trigger == want.Trigger && d.Family == want.Family && d.Decision == want.Decision {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("no %+v decision; history %+v", want, l.Decisions())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	statusOf := func(sts []DriftStatus, family string) (DriftStatus, bool) {
		for _, st := range sts {
			if st.Family == family {
				return st, true
			}
		}
		return DriftStatus{}, false
	}

	type versions struct{ g1, g2, f1, f2 *feedback.Version }
	cases := []struct {
		name string
		// tweak adjusts the shared learning configuration.
		tweak func(*LearningConfig)
		// famVersions is how many versions of fam's own are published.
		famVersions int
		// query is pinned before the transition and finished after it.
		query      int
		transition func(t *testing.T, l *Learning, vs versions)
		// check pins the transition's own outcome on the status read
		// after the pinned query finished.
		check func(t *testing.T, l *Learning, vs versions, before, after []DriftStatus)
	}{
		{
			name: "manual publish", famVersions: 2, query: otherQuery,
			transition: func(t *testing.T, l *Learning, _ versions) {
				if _, err := l.Retrain(); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, l *Learning, vs versions, _, after []DriftStatus) {
				// The one intended difference: the target is omitted until
				// the new version's first harvest, never again showing the
				// replaced version's window.
				if st, ok := statusOf(after, ""); ok {
					t.Fatalf("global target before the new version's first harvest: %+v", st)
				}
				srv := httptest.NewServer(NewServer(w, MonitorOptions{UpdateEvery: 4, Learning: l}))
				defer srv.Close()
				var info struct {
					ID    string `json:"id"`
					Model int    `json:"model"`
				}
				if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": `+strconv.Itoa(otherQuery)+`}`, &info); code != http.StatusAccepted {
					t.Fatalf("submit: HTTP %d", code)
				}
				waitDone(t, srv.URL, info.ID)
				var dw driftResponse
				if code := doJSON(t, http.MethodGet, srv.URL+"/models/drift", "", &dw); code != http.StatusOK {
					t.Fatalf("GET /models/drift: HTTP %d", code)
				}
				st, ok := statusOf(dw.Targets, "")
				if cur, _ := l.Current(); !ok || st.Version != cur.ID || st.Version != info.Model || st.Samples == 0 {
					t.Fatalf("/models/drift global target %+v, want the new version %d with its first harvest", st, cur.ID)
				}
			},
		},
		{
			name: "drift-accepted publish", famVersions: 2, query: famQuery,
			transition: func(t *testing.T, l *Learning, vs versions) {
				driftOn(l, vs.f2)
				waitDecision(t, l, RetrainDecision{Trigger: "drift", Family: fam, Decision: feedback.DecisionAccepted})
			},
			check: func(t *testing.T, l *Learning, vs versions, _, after []DriftStatus) {
				if cur := l.reg.CurrentFor(fam); cur == vs.f2 || cur.Meta.Source != "drift" {
					t.Fatalf("family %q serves %+v, want the drift retrain", fam, cur.Meta)
				}
			},
		},
		{
			name: "operator rollback", famVersions: 2, query: otherQuery,
			transition: func(t *testing.T, l *Learning, _ versions) {
				if _, err := l.Rollback(); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, l *Learning, vs versions, _, after []DriftStatus) {
				if st, ok := statusOf(after, ""); !ok || st.Version != vs.g1.ID || st.Samples != 0 {
					t.Fatalf("global target after rollback %+v, want a fresh window for v%d", st, vs.g1.ID)
				}
			},
		},
		{
			name: "auto-rollback", famVersions: 2, query: famQuery,
			tweak: func(c *LearningConfig) {
				c.CanaryWindow = minSamples
				c.DriftRejectLimit = 1
			},
			transition: func(t *testing.T, l *Learning, vs versions) {
				driftOn(l, vs.f2)
				waitDecision(t, l, RetrainDecision{Trigger: "drift", Family: fam, Decision: feedback.DecisionCanary})
				// Live traffic says the challenger is far worse than the
				// champion: the canary rejects it, which trips the breaker.
				exs := make([]Example, minSamples)
				for i := range exs {
					exs[i] = famExamples[i]
					for k := range exs[i].ErrL1 {
						exs[i].ErrL1[k] = 1
					}
				}
				l.canary.Observe(vs.f2, exs, make([]float64, len(exs)))
				waitDecision(t, l, RetrainDecision{Trigger: "auto-rollback", Family: fam, Decision: "rolled_back"})
			},
			check: func(t *testing.T, l *Learning, vs versions, _, after []DriftStatus) {
				if st, ok := statusOf(after, fam); !ok || st.Version != vs.f1.ID || st.Samples != 0 {
					t.Fatalf("family target after auto-rollback %+v, want a fresh window for v%d", st, vs.f1.ID)
				}
			},
		},
		{
			name: "family rolled back past its last version", famVersions: 1, query: famQuery,
			transition: func(t *testing.T, l *Learning, _ versions) {
				if _, err := l.RollbackFamily(fam); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, l *Learning, vs versions, before, after []DriftStatus) {
				if st, ok := statusOf(after, fam); ok {
					t.Fatalf("family pinned to global still reports %+v", st)
				}
				was, _ := statusOf(before, "")
				if st, ok := statusOf(after, ""); !ok || !reflect.DeepEqual(st, was) {
					t.Fatalf("global target %+v, want it left alone: %+v", st, was)
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
				MinNewExamples:    1 << 30,
				Poll:              2 * time.Millisecond,
				DisableGate:       true,
				DisablePersist:    true,
				FamilyModels:      true,
				MinFamilyExamples: 1,
				MinObservations:   1,
				DriftWindow:       16,
				DriftMinSamples:   minSamples,
			}
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			l, err := OpenLearning(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			vs := versions{g1: publish(l, ""), g2: publish(l, "")}
			vs.f1 = publish(l, fam)
			if tc.famVersions == 2 {
				vs.f2 = publish(l, fam)
			}
			// Every serving version starts with a benign window, so the
			// statuses compared below are not vacuous.
			for _, v := range l.reg.Routed() {
				l.drift.Record(v, window(0))
			}
			before := l.DriftStatus()
			if len(before) != 2 {
				t.Fatalf("statuses before the transition: %+v, want the global and %q targets", before, fam)
			}

			m, run, err := w.prepare(tc.query, MonitorOptions{UpdateEvery: 4, Learning: l, RouteByFamily: true})
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
			families := l.FamilyVersions()
			for _, st := range after {
				want := families[st.Family]
				if st.Family == "" {
					cur, _ := l.Current()
					want = cur.ID
				}
				if st.Version != want {
					t.Fatalf("target %q reports v%d, the routing table serves v%d", st.Family, st.Version, want)
				}
				if st.Version == pinned {
					t.Fatalf("target %q still reports the replaced v%d", st.Family, pinned)
				}
			}
			tc.check(t, l, vs, before, after)
		})
	}
}
