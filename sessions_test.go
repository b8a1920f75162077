package progressest

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"progressest/internal/exec"
	"progressest/internal/ingest"
)

// sessionWorkload opens a small workload and records one finished native
// trace to stream through the ingestion surface.
func sessionWorkload(t *testing.T) (*Workload, *exec.Trace) {
	t.Helper()
	w, err := Open(Config{Dataset: TPCH, Queries: 4, Scale: 0.08, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	run, err := w.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return w, run.view.Trace
}

func marshalJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// doRaw issues a request and returns the raw response (the caller reads
// headers; the body is closed with the response decoded into out if
// non-nil).
func doRaw(t *testing.T, method, url, body string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp
}

// openSession opens a session over HTTP for the trace's shape and
// returns its id.
func openSession(t *testing.T, base string, tr *exec.Trace, workload, family string) string {
	t.Helper()
	spec := ingest.SpecFromTrace(tr, workload, family)
	var info runInfo
	if code := doJSON(t, http.MethodPost, base+"/sessions", marshalJSON(t, spec), &info); code != http.StatusCreated {
		t.Fatalf("open session: status %d", code)
	}
	if info.State != "open" || info.Family != family {
		t.Fatalf("opened session: %+v", info)
	}
	return info.ID
}

// streamSession streams the trace's recorded observation batches into
// the session, asserting the final batch completes it.
func streamSession(t *testing.T, base, id string, tr *exec.Trace, snapsPerBatch int) {
	t.Helper()
	for _, b := range ingest.RecordBatches(tr, snapsPerBatch) {
		var resp observeResponse
		if code := doJSON(t, http.MethodPost, base+"/sessions/"+id+"/observations", marshalJSON(t, b), &resp); code != http.StatusOK {
			t.Fatalf("observations: status %d", code)
		}
		if b.Done && resp.State != "completed" {
			t.Fatalf("final batch left session %q", resp.State)
		}
	}
}

// TestSessionHTTPLifecycle drives the full external-session surface over
// HTTP: open, stream, live progress, completion, stats accounting, and
// the error taxonomy for malformed and mis-ordered streams.
func TestSessionHTTPLifecycle(t *testing.T) {
	w, tr := sessionWorkload(t)
	server := NewServer(w, MonitorOptions{UpdateEvery: 4})
	defer server.Close()
	srv := httptest.NewServer(server)
	defer srv.Close()

	// Malformed opens reject up front.
	if code := doJSON(t, http.MethodPost, srv.URL+"/sessions", `{"family":"f","nodes":[]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("empty plan: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/sessions", marshalJSON(t, ingest.SpecFromTrace(tr, "ext", "")), nil); code != http.StatusBadRequest {
		t.Fatalf("missing family: status %d", code)
	}

	id := openSession(t, srv.URL, tr, "ext-engine", "ext-fam")

	// A mid-stream regression and an out-of-order snapshot reject with
	// 409 and leave the session open at its last consistent prefix.
	batches := ingest.RecordBatches(tr, 8)
	if code := doJSON(t, http.MethodPost, srv.URL+"/sessions/"+id+"/observations", marshalJSON(t, batches[0]), nil); code != http.StatusOK {
		t.Fatalf("first batch: status %d", code)
	}
	regress := ingest.Batch{Events: []ingest.Event{{Snapshot: &ingest.SnapshotEvent{
		Time: tr.TotalTime + 1, Deltas: []ingest.Delta{{Node: 0, K: -1}},
	}}}}
	if code := doJSON(t, http.MethodPost, srv.URL+"/sessions/"+id+"/observations", marshalJSON(t, regress), nil); code != http.StatusConflict {
		t.Fatalf("counter regression: status %d", code)
	}
	stale := ingest.Batch{Events: []ingest.Event{{Snapshot: &ingest.SnapshotEvent{
		Time: -1, Deltas: []ingest.Delta{{Node: 0, K: 1}},
	}}}}
	if code := doJSON(t, http.MethodPost, srv.URL+"/sessions/"+id+"/observations", marshalJSON(t, stale), nil); code != http.StatusConflict {
		t.Fatalf("out-of-order snapshot: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/sessions/"+id+"/observations", `{"events":[],"bogus":1}`, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown wire field: status %d", code)
	}

	// Live progress is readable mid-stream. The session's first update
	// reaches the route once the mirror goroutine has copied it, so poll
	// against a bounded deadline until it is there.
	var prog runInfo
	for deadline := time.Now().Add(5 * time.Second); ; {
		prog = runInfo{}
		if code := doJSON(t, http.MethodGet, srv.URL+"/sessions/"+id+"/progress", "", &prog); code != http.StatusOK {
			t.Fatalf("progress: status %d", code)
		}
		if prog.Update != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if prog.State != "open" || prog.Done {
		t.Fatalf("mid-stream progress: %+v", prog)
	}
	if prog.Update == nil || prog.Update.Query <= 0 || prog.Update.Query >= 1 {
		t.Fatalf("mid-stream estimate missing or out of range: %+v", prog.Update)
	}

	// The rest of the stream completes the session.
	for _, b := range batches[1:] {
		if code := doJSON(t, http.MethodPost, srv.URL+"/sessions/"+id+"/observations", marshalJSON(t, b), nil); code != http.StatusOK {
			t.Fatalf("batch: status %d", code)
		}
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/sessions/"+id+"/progress", "", &prog); code != http.StatusOK {
		t.Fatalf("progress: status %d", code)
	}
	if !prog.Done || prog.State != "completed" || prog.Update == nil || !prog.Update.Done || prog.Update.Query != 1 {
		t.Fatalf("completed progress: %+v", prog)
	}

	// Post-completion observations conflict; deletion is idempotent.
	if code := doJSON(t, http.MethodPost, srv.URL+"/sessions/"+id+"/observations", `{"done":true}`, nil); code != http.StatusConflict {
		t.Fatalf("post-completion batch: status %d", code)
	}
	var del map[string]string
	if code := doJSON(t, http.MethodDelete, srv.URL+"/sessions/"+id, "", &del); code != http.StatusOK || del["state"] != "completed" {
		t.Fatalf("delete completed session: %d %v", code, del)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/sessions/nope/progress", "", nil); code != http.StatusNotFound {
		t.Fatal("unknown session did not 404")
	}

	// The listing and the engine stats account for the session.
	var infos []runInfo
	if code := doJSON(t, http.MethodGet, srv.URL+"/sessions", "", &infos); code != http.StatusOK || len(infos) != 1 {
		t.Fatalf("session list: %d entries", len(infos))
	}
	var st EngineStats
	if code := doJSON(t, http.MethodGet, srv.URL+"/engine/stats", "", &st); code != http.StatusOK {
		t.Fatal("engine stats failed")
	}
	if st.Ingest == nil {
		t.Fatal("engine stats carry no ingest section")
	}
	if st.Ingest.Opened != 1 || st.Ingest.Completed != 1 || st.Ingest.OpenSessions != 0 ||
		st.Ingest.RejectedBatches != 2 || st.Ingest.Observations != int64(len(tr.Snapshots)) {
		t.Fatalf("ingest stats: %+v", st.Ingest)
	}
	// The session held an engine slot and released it on completion.
	if st.Admitted != 1 {
		t.Fatalf("session was not admitted through the gate: %+v", st)
	}
}

// TestSessionTTLExpiry covers idle-session GC below the HTTP layer: an
// open session idle past the TTL expires on sweep, releases its
// admission slot, and refuses further observations.
func TestSessionTTLExpiry(t *testing.T) {
	w, tr := sessionWorkload(t)
	eng := NewEngine(w, EngineConfig{}, MonitorOptions{UpdateEvery: 4})
	sm := NewEngineServer(eng)
	sm.SetSessionConfig(SessionConfig{TTL: 50 * time.Millisecond})
	defer sm.Close()

	spec := ingest.SpecFromTrace(tr, "ext", "fam")
	model, err := ingest.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sm.openSession(context.Background(), spec, model)
	if err != nil {
		t.Fatal(err)
	}
	mon := s.mon // the record drops it at expiry; Wait needs the handle
	if n := sm.sweep(time.Now()); n != 0 {
		t.Fatalf("fresh session swept: %d", n)
	}
	if n := sm.sweep(time.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("idle session not swept: %d", n)
	}
	if got := sm.sessionStats(); got.Expired != 1 || got.OpenSessions != 0 {
		t.Fatalf("stats after expiry: %+v", got)
	}
	if _, err := mon.Wait(); !errors.Is(err, errSessionExpired) {
		t.Fatalf("Wait after expiry: %v", err)
	}
	if _, _, err := sm.apply(s, &ingest.Batch{Done: true}); !errors.Is(err, ingest.ErrCompleted) {
		t.Fatalf("apply after expiry: %v", err)
	}
	// The admission slot came back: the gate reports no live work.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := eng.Stats(); st.Shards[0].Live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired session never released its admission slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionTTLJanitorHTTP proves the background janitor expires an
// idle session end to end: no sweep calls, just time passing.
func TestSessionTTLJanitorHTTP(t *testing.T) {
	w, tr := sessionWorkload(t)
	server := NewServer(w, MonitorOptions{UpdateEvery: 4})
	server.SetSessionConfig(SessionConfig{TTL: 30 * time.Millisecond})
	defer server.Close()
	srv := httptest.NewServer(server)
	defer srv.Close()

	id := openSession(t, srv.URL, tr, "ext", "fam")
	deadline := time.Now().Add(5 * time.Second)
	for {
		var prog runInfo
		doJSON(t, http.MethodGet, srv.URL+"/sessions/"+id+"/progress", "", &prog)
		if prog.State == "expired" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor never expired the idle session (state %q)", prog.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionIngestHarvestRetrain is the learning-loop e2e for external
// sessions: a completed ingested session harvests into the corpus under
// its own family tag (visible in GET /models), and a retrain fits the
// one model on it.
func TestSessionIngestHarvestRetrain(t *testing.T) {
	w, tr := sessionWorkload(t)
	lrn, err := OpenLearning(LearningConfig{
		Dir:               t.TempDir(),
		Selector:          SelectorConfig{Trees: 10},
		DisableBackground: true,
		DisableGate:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn.Close()
	server := NewServer(w, MonitorOptions{UpdateEvery: 4, Learning: lrn})
	defer server.Close()
	srv := httptest.NewServer(server)
	defer srv.Close()

	const family = "external-x"
	id := openSession(t, srv.URL, tr, "ext-engine", family)
	streamSession(t, srv.URL, id, tr, 16)

	// The completed session's examples landed under its family tag...
	if got := lrn.CorpusStats().Families[family]; got == 0 {
		t.Fatalf("corpus has no %q examples: %+v", family, lrn.CorpusStats().Families)
	}
	// ...visibly in GET /models...
	var models modelsResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/models", "", &models); code != http.StatusOK {
		t.Fatal("GET /models failed")
	}
	if models.Corpus.Families[family] == 0 {
		t.Fatalf("GET /models corpus families: %+v", models.Corpus.Families)
	}
	// ...and a retrain fits the serving model on them.
	var v ModelVersion
	if code := doJSON(t, http.MethodPost, srv.URL+"/models/retrain", "", &v); code != http.StatusOK {
		t.Fatal("retrain failed")
	}
	if cur, ok := lrn.Current(); !ok || cur.ID != v.ID || v.CorpusSize != lrn.CorpusSize() {
		t.Fatalf("retrain published %+v over a %d-example corpus; serving %+v", v, lrn.CorpusSize(), cur)
	}
}

// TestDrainingRetryAfter is the satellite regression test: 503 draining
// rejections — native submissions and session opens alike — carry the
// fixed Retry-After so well-behaved clients back off a shutting-down
// node.
func TestDrainingRetryAfter(t *testing.T) {
	w, tr := sessionWorkload(t)
	server := NewServer(w, MonitorOptions{UpdateEvery: 4})
	defer server.Close()
	srv := httptest.NewServer(server)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := server.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	var reject map[string]string
	resp := doRaw(t, http.MethodPost, srv.URL+"/queries", `{"query":0}`, &reject)
	if resp.StatusCode != http.StatusServiceUnavailable || reject["reason"] != "draining" {
		t.Fatalf("draining submit: status %d reason %q", resp.StatusCode, reject["reason"])
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("draining 503 Retry-After = %q, want \"5\"", got)
	}
	resp = doRaw(t, http.MethodPost, srv.URL+"/sessions", marshalJSON(t, ingest.SpecFromTrace(tr, "ext", "fam")), &reject)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "5" {
		t.Fatalf("draining session open: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestRollbackSurfacesPersistError is the satellite regression test for
// the rollback path: when the rolled-back serving version cannot be
// persisted, the rollback response says so instead of silently
// reporting success, and GET /models carries the same standing error.
func TestRollbackSurfacesPersistError(t *testing.T) {
	w := learningWorkload(t)
	dir := t.TempDir()
	lrn, err := OpenLearning(LearningConfig{
		Dir:               dir,
		Selector:          SelectorConfig{Trees: 10},
		DisableBackground: true,
		DisableGate:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn.Close()
	for i := 0; i < 3; i++ {
		m, err := w.Start(i, MonitorOptions{UpdateEvery: 4, Learning: lrn})
		if err != nil {
			t.Fatal(err)
		}
		for range m.Updates {
		}
		if _, err := m.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := lrn.Retrain(); err != nil {
			t.Fatal(err)
		}
	}

	// Break persistence: the models directory becomes a regular file, so
	// the manifest rewrite fails with ENOTDIR (root ignores file modes,
	// so chmod-based sabotage would not hold).
	modelsDir := filepath.Join(dir, "models")
	if err := os.RemoveAll(modelsDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(modelsDir, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewServer(w, MonitorOptions{UpdateEvery: 4, Learning: lrn}))
	defer srv.Close()
	var resp rollbackResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/models/rollback", "", &resp); code != http.StatusOK {
		t.Fatalf("rollback: status %d", code)
	}
	if resp.ID == 0 {
		t.Fatalf("rollback did not report the restored version: %+v", resp)
	}
	if resp.PersistError == "" {
		t.Fatal("rollback response hides the persistence failure")
	}
	var models modelsResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/models", "", &models); code != http.StatusOK {
		t.Fatal("GET /models failed")
	}
	if models.PersistError == "" {
		t.Fatal("GET /models hides the standing persistence failure")
	}
	if models.Current != resp.ID {
		t.Fatalf("rollback did not apply in memory: serving v%d, rollback said v%d", models.Current, resp.ID)
	}
}

// TestSessionLimit bounds concurrently open sessions: the opener beyond
// MaxSessions is rejected, and ending a session — by abort, expiry or
// drain alike — gives its place back.
func TestSessionLimit(t *testing.T) {
	w, tr := sessionWorkload(t)
	eng := NewEngine(w, EngineConfig{MaxLivePerShard: 8}, MonitorOptions{UpdateEvery: 4})
	sm := NewEngineServer(eng)
	sm.SetSessionConfig(SessionConfig{MaxSessions: 2})
	defer sm.Close()
	spec := ingest.SpecFromTrace(tr, "ext", "fam")
	model, err := ingest.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	var open []*trackedRun
	for i := 0; i < 2; i++ {
		s, err := sm.openSession(context.Background(), spec, model)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, s)
	}
	if _, err := sm.openSession(context.Background(), spec, model); !errors.Is(err, errSessionLimit) {
		t.Fatalf("third open: %v", err)
	}
	sm.abort(open[0])
	if got := sm.sessionStats().OpenSessions; got != 1 {
		t.Fatalf("open count after abort: %d, want 1", got)
	}
	if _, err := sm.openSession(context.Background(), spec, model); err != nil {
		t.Fatalf("open after abort: %v", err)
	}
	// A refused open gave its reservation back too: still exactly full.
	if _, err := sm.openSession(context.Background(), spec, model); !errors.Is(err, errSessionLimit) {
		t.Fatalf("open beyond the refilled bound: %v", err)
	}
	if n := sm.sweep(time.Now().Add(time.Hour)); n != 2 {
		t.Fatalf("sweep expired %d sessions, want 2", n)
	}
	if got := sm.sessionStats().OpenSessions; got != 0 {
		t.Fatalf("open count after expiry: %d, want 0", got)
	}
	for i := 0; i < 2; i++ {
		if _, err := sm.openSession(context.Background(), spec, model); err != nil {
			t.Fatalf("open after expiry: %v", err)
		}
	}
	sm.sessions.drain()
	if got := sm.sessionStats(); got.OpenSessions != 0 || got.Aborted != 3 || got.Expired != 2 {
		t.Fatalf("stats after drain: %+v", got)
	}
}

// TestSessionRefusesSpecsEstimatorsCannotRun posts, through ServeHTTP,
// well-formed session specs whose operators have the wrong number of
// children — specs the pipeline decomposition or the estimators would
// panic on, at open or at the first snapshot. Each answers 400 at open,
// and the server goes on opening sessions.
func TestSessionRefusesSpecsEstimatorsCannotRun(t *testing.T) {
	w, tr := sessionWorkload(t)
	server := NewServer(w, MonitorOptions{})
	defer server.Close()
	const scan = `{"op":"TableScan","table":"t","est_rows":100,"total":100}`
	for name, nodes := range map[string]string{
		"one-child HashJoin":       scan + `,{"op":"HashJoin","children":[0],"est_rows":100}`,
		"one-child NestedLoopJoin": scan + `,{"op":"NestedLoopJoin","children":[0],"est_rows":100}`,
		"three-child SemiJoin":     scan + `,` + scan + `,` + scan + `,{"op":"SemiJoin","children":[0,1,2],"est_rows":100}`,
		"lone Filter":              `{"op":"Filter","est_rows":100}`,
	} {
		rec := serve(server, http.MethodPost, "/sessions", []byte(`{"family":"f","nodes":[`+nodes+`]}`), true)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
	rec := serve(server, http.MethodPost, "/sessions", []byte(marshalJSON(t, ingest.SpecFromTrace(tr, "ext", "f"))), true)
	if rec.Code != http.StatusCreated {
		t.Fatalf("a valid spec after the refusals: status %d", rec.Code)
	}
}
