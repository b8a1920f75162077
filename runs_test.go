package progressest

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"progressest/internal/ingest"
)

// sessionFixture is an in-process server plus one recorded trace's spec,
// model and observation batches, for driving sessions below HTTP.
type sessionFixture struct {
	srv     *Server
	eng     *Engine
	spec    *ingest.Spec
	model   *ingest.Model
	batches []ingest.Batch
}

func newSessionFixture(t *testing.T, ecfg EngineConfig, scfg SessionConfig) *sessionFixture {
	t.Helper()
	w, tr := sessionWorkload(t)
	f := &sessionFixture{eng: NewEngine(w, ecfg, MonitorOptions{UpdateEvery: 4})}
	f.srv = NewEngineServer(f.eng)
	f.srv.SetSessionConfig(scfg)
	t.Cleanup(f.srv.Close)
	f.spec = ingest.SpecFromTrace(tr, "ext", "fam")
	var err error
	if f.model, err = ingest.Build(f.spec); err != nil {
		t.Fatal(err)
	}
	f.batches = ingest.RecordBatches(tr, 64)
	return f
}

// stream opens a session and applies the recorded batches (all of them, or
// all but the completing one), returning the run and the monitor it was
// opened with.
func (f *sessionFixture) stream(t *testing.T, complete bool) (*trackedRun, *Monitor) {
	t.Helper()
	r, err := f.srv.openSession(context.Background(), f.spec, f.model)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	mon := r.mon
	batches := f.batches
	if !complete {
		batches = batches[:len(batches)-1]
	}
	for i := range batches {
		if _, _, err := f.srv.apply(r, &batches[i]); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	return r, mon
}

// TestSessionDoneCarriesFinalUpdate is the regression test for "done
// without the final update": the moment the completing apply returns, the
// mirror a progress read serves must already hold the Done update.
func TestSessionDoneCarriesFinalUpdate(t *testing.T) {
	f := newSessionFixture(t, EngineConfig{}, SessionConfig{})
	for i := 0; i < 200; i++ {
		r, _ := f.stream(t, true)
		info := r.info(true)
		if !info.Done || info.State != "completed" {
			t.Fatalf("session %d: completing apply returned with %+v", i, info)
		}
		if info.Update == nil || !info.Update.Done || info.Update.Query != 1 {
			t.Fatalf("session %d: done is readable before the final update: %+v", i, info.Update)
		}
	}
}

// TestTerminalRunRetainsNoMachinery: whichever way a session ends, the
// retained record holds no runner or Monitor (and through them no
// observer, trace or OnlineView) — what a finished native query keeps.
func TestTerminalRunRetainsNoMachinery(t *testing.T) {
	f := newSessionFixture(t, EngineConfig{}, SessionConfig{})
	ends := map[string]func(r *trackedRun){
		"completed": func(r *trackedRun) {
			if _, _, err := f.srv.apply(r, &f.batches[len(f.batches)-1]); err != nil {
				t.Fatal(err)
			}
		},
		"aborted": func(r *trackedRun) { f.srv.abort(r) },
		"expired": func(r *trackedRun) { f.srv.sweep(time.Now().Add(time.Hour)) },
	}
	for want, end := range ends {
		r, mon := f.stream(t, false)
		if r.runner == nil || r.mon == nil {
			t.Fatalf("%s: open session has no machinery", want)
		}
		end(r)
		r.mu.Lock()
		state, runner, held := r.state, r.runner, r.mon
		r.mu.Unlock()
		if state.String() != want {
			t.Fatalf("session ended %q, want %q", state, want)
		}
		if runner != nil || held != nil {
			t.Fatalf("%s session retains machinery: runner %v, monitor %v", want, runner != nil, held != nil)
		}
		if mon.obs != nil {
			t.Fatalf("%s session's monitor still holds its observer", want)
		}
	}
	// Native runs never hold any in the record.
	srv := httptest.NewServer(f.srv)
	defer srv.Close()
	var info runInfo
	if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query":0}`, &info); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitDone(t, srv.URL, info.ID)
	q, _ := f.srv.queries.lookup(info.ID)
	if q.runner != nil || q.mon != nil {
		t.Fatal("native run retains machinery")
	}
}

// TestSessionLimitConcurrentOpens is the regression test for the
// check-then-admit race: however many openers arrive at once, exactly
// MaxSessions get in and the rest are refused with errSessionLimit.
func TestSessionLimitConcurrentOpens(t *testing.T) {
	const limit, openers = 2, 16
	f := newSessionFixture(t, EngineConfig{MaxLivePerShard: 64}, SessionConfig{MaxSessions: limit})
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		runs := make([]*trackedRun, openers)
		errs := make([]error, openers)
		start := make(chan struct{})
		for i := 0; i < openers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				runs[i], errs[i] = f.srv.openSession(context.Background(), f.spec, f.model)
			}()
		}
		close(start)
		wg.Wait()
		opened := 0
		for i, err := range errs {
			switch {
			case err == nil:
				opened++
				f.srv.abort(runs[i])
			case !errors.Is(err, errSessionLimit):
				t.Fatalf("round %d: opener refused with %v, want errSessionLimit", round, err)
			}
		}
		if opened != limit {
			t.Fatalf("round %d: %d of %d concurrent opens succeeded, want exactly %d", round, opened, openers, limit)
		}
		if got := f.srv.sessionStats().OpenSessions; got != 0 {
			t.Fatalf("round %d: open count %d after aborting every session", round, got)
		}
	}
}

// TestSlotReleasedBeforeWaitReturns is the regression test for "slot
// release lags completion": with one slot and no queue, a caller running
// strictly one at a time is never refused, because the slot is back
// before Wait can report the run over.
func TestSlotReleasedBeforeWaitReturns(t *testing.T) {
	f := newSessionFixture(t, EngineConfig{MaxLivePerShard: 1, QueueDepth: 0}, SessionConfig{})
	t.Run("sessions", func(t *testing.T) {
		for i := 0; i < 200; i++ {
			_, mon := f.stream(t, true)
			if _, err := mon.Wait(); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
		}
	})
	t.Run("engine start", func(t *testing.T) {
		for i := 0; i < 200; i++ {
			m, err := f.eng.Start(context.Background(), i%f.eng.Workload().NumQueries())
			if err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
			for range m.Updates {
			}
			if _, err := m.Wait(); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
		}
	})
}

// TestSmallBodiesBounded: the two small-JSON routes refuse a body past
// 64 KiB with 413 instead of decoding it.
func TestSmallBodiesBounded(t *testing.T) {
	w := learningWorkload(t)
	lrn, err := OpenLearning(LearningConfig{Dir: t.TempDir(), DisableBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn.Close()
	srv := httptest.NewServer(NewServer(w, MonitorOptions{Learning: lrn}))
	defer srv.Close()
	pad := strings.Repeat("a", maxSmallBody)
	for _, c := range []struct{ path, body string }{
		{"/queries", `{"query":0,"client":"` + pad + `"}`},
		{"/models/rollback", `{"family":"` + pad + `"}`},
	} {
		if code := doJSON(t, http.MethodPost, srv.URL+c.path, c.body, nil); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", c.path, len(c.body), code)
		}
	}
}

// TestRetentionBothTables runs one scenario against each instance of the
// run table: with the bound at 2, four finished runs evict the oldest
// (whose id then 404s), while a run still open is never evicted, however
// old.
func TestRetentionBothTables(t *testing.T) {
	w, tr := sessionWorkload(t)
	for _, tree := range []string{"queries", "sessions"} {
		t.Run(tree, func(t *testing.T) {
			s := NewServer(w, MonitorOptions{UpdateEvery: 4})
			defer s.Close()
			s.SetSessionConfig(SessionConfig{MaxKept: 2})
			s.queries.maxKept = 2
			srv := httptest.NewServer(s)
			defer srv.Close()

			// A session stays open until its Done batch. A native query is
			// held open by tracking it with its executor prepared but not
			// yet started.
			table := s.sessions
			openLive := func() (string, func()) {
				id := openSession(t, srv.URL, tr, "ext", "fam")
				return id, func() { streamSession(t, srv.URL, id, tr, 64) }
			}
			finishOne := func() string {
				id, end := openLive()
				end()
				return id
			}
			if tree == "queries" {
				table = s.queries
				openLive = func() (string, func()) {
					run := &trackedRun{}
					var execute func()
					err := s.queries.track(run, func() (*Monitor, error) {
						return s.eng.admit(context.Background(), "fam", "",
							func(opts MonitorOptions) (m *Monitor, err error) {
								m, execute, err = s.eng.w.prepare(0, opts, true)
								return m, err
							})
					})
					if err != nil {
						t.Fatal(err)
					}
					return run.id, execute
				}
				finishOne = func() string {
					var info runInfo
					if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query":0}`, &info); code != http.StatusAccepted {
						t.Fatalf("submit: status %d", code)
					}
					waitDone(t, srv.URL, info.ID)
					return info.ID
				}
			}

			live, endLive := openLive() // the oldest run, open throughout
			var finished []string
			for i := 0; i < 4; i++ {
				finished = append(finished, finishOne())
			}
			status := func(id string) int {
				return doJSON(t, http.MethodGet, fmt.Sprintf("%s/%s/%s/progress", srv.URL, tree, id), "", nil)
			}
			if code := status(finished[0]); code != http.StatusNotFound {
				t.Fatalf("oldest finished run: status %d, want 404", code)
			}
			if code := status(finished[3]); code != http.StatusOK {
				t.Fatalf("newest finished run: status %d, want 200", code)
			}
			if code := status(live); code != http.StatusOK {
				t.Fatalf("open run was evicted: status %d", code)
			}
			var list []runInfo
			if code := doJSON(t, http.MethodGet, srv.URL+"/"+tree, "", &list); code != http.StatusOK {
				t.Fatalf("list: status %d", code)
			}
			// The run that triggered the last eviction may still be listed.
			if len(list) > 2+1 || list[0].ID != live || list[0].State != "open" {
				t.Fatalf("retention kept %d runs led by %+v; want <= 3 led by the open run %q", len(list), list[0], live)
			}
			if got := len(table.runs); got != len(list) {
				t.Fatalf("id map holds %d runs, listing %d", got, len(list))
			}
			endLive()
		})
	}
}
