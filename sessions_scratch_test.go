package progressest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"progressest/internal/exec"
	"progressest/internal/ingest"
	"progressest/internal/progress"
)

// The pooled request scratch (body buffer + batch decoder slabs) must be
// invisible: whatever goroutine a batch lands on and whatever the scratch
// held before, a session's updates and trace are those of a sequential
// run that never saw a pool.

// scratchSession is one plan's pre-encoded session and the reference
// outcome of streaming it through a Runner directly (ingestedUpdates:
// fresh decoder per batch, no server).
type scratchSession struct {
	spec    []byte
	batches [][]byte
	final   ProgressUpdate
	trace   *exec.Trace
}

const scratchUpdateEvery = 4

// scratchFixture builds a server over a small workload and one
// scratchSession per query — four different plans.
func scratchFixture(t *testing.T, opts MonitorOptions) (*Server, []scratchSession) {
	t.Helper()
	w, err := Open(Config{Dataset: TPCH, Queries: 4, Scale: 0.08, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	opts.UpdateEvery = scratchUpdateEvery
	server := NewServer(w, opts)
	t.Cleanup(server.Close)
	var sessions []scratchSession
	for qi := 0; qi < w.NumQueries(); qi++ {
		run, err := w.Run(qi)
		if err != nil {
			t.Fatal(err)
		}
		tr := run.view.Trace
		ss := scratchSession{spec: []byte(marshalJSON(t, ingest.SpecFromTrace(tr, "ext-engine", "ext-fam")))}
		// A batch size off the update cadence, different per plan.
		for _, b := range ingest.RecordBatches(tr, 5+3*qi) {
			ss.batches = append(ss.batches, []byte(marshalJSON(t, b)))
		}
		updates, synth := ingestedUpdates(t, tr, nil, scratchUpdateEvery, 5+3*qi)
		ss.final, ss.trace = updates[len(updates)-1], synth
		sessions = append(sessions, ss)
	}
	return server, sessions
}

// serve runs one request through the handler. A request with
// announceLength false reaches the body read without a Content-Length,
// as a chunked upload does.
func serve(h http.Handler, method, path string, body []byte, announceLength bool) *httptest.ResponseRecorder {
	var rd io.Reader = bytes.NewReader(body)
	if !announceLength {
		rd = struct{ io.Reader }{rd}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

// openedSession is a session opened on the server: its id, its monitor,
// and — once it completes — a copy of the trace it synthesized, taken as
// OnDone delivers it. The server hands a session's snapshot history back
// to the executor's free list at completion, so nothing may read the
// trace after that.
type openedSession struct {
	id    string
	mon   *Monitor
	trace *exec.Trace
}

// openScratchSession opens ss on the server and subscribes to its
// finished trace.
func openScratchSession(server *Server, ss *scratchSession) (*openedSession, error) {
	rec := serve(server, http.MethodPost, "/sessions", ss.spec, true)
	if rec.Code != http.StatusCreated {
		return nil, fmt.Errorf("open: status %d: %s", rec.Code, rec.Body)
	}
	var info runInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		return nil, err
	}
	run, ok := server.sessions.lookup(info.ID)
	if !ok {
		return nil, fmt.Errorf("session %s not in the table", info.ID)
	}
	run.mu.Lock()
	sess := &openedSession{id: info.ID, mon: run.mon}
	run.mu.Unlock()
	harvest := sess.mon.obs.harvest
	sess.mon.obs.harvest = func(view *progress.OnlineView, tr *exec.Trace) {
		sess.trace = copyTrace(tr)
		if harvest != nil {
			harvest(view, tr)
		}
	}
	return sess, nil
}

// copyTrace copies tr with its snapshot rows.
func copyTrace(tr *exec.Trace) *exec.Trace {
	c := *tr
	c.Snapshots = make([]exec.Snapshot, len(tr.Snapshots))
	for i, s := range tr.Snapshots {
		c.Snapshots[i] = exec.Snapshot{Time: s.Time,
			K: slices.Clone(s.K), R: slices.Clone(s.R), W: slices.Clone(s.W)}
	}
	return &c
}

// checkScratchSession compares a completed session with its reference:
// the progress route's final update and the synthesized trace. The
// session's history must be back in the free list: its finished view
// holds no trace any more.
func checkScratchSession(server *Server, sess *openedSession, ss *scratchSession) error {
	rec := serve(server, http.MethodGet, "/sessions/"+sess.id+"/progress", nil, true)
	var info runInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		return err
	}
	if info.State != "completed" || info.Update == nil || !reflect.DeepEqual(*info.Update, ss.final) {
		return fmt.Errorf("session %s final update\n got %+v (%s)\nwant %+v", sess.id, info.Update, info.State, ss.final)
	}
	run, err := sess.mon.Wait()
	if err != nil {
		return err
	}
	if run.view.Trace != nil {
		return fmt.Errorf("session %s: the completed session still holds its trace", sess.id)
	}
	if sess.trace == nil || !sameTraces(sess.trace, ss.trace) {
		return fmt.Errorf("session %s: synthesized trace diverges from its sequential reference", sess.id)
	}
	return nil
}

// sameTraces compares what the estimators and the harvest read of two
// traces, bit for bit.
func sameTraces(a, b *exec.Trace) bool {
	return a.TotalTime == b.TotalTime &&
		reflect.DeepEqual(a.Snapshots, b.Snapshots) &&
		reflect.DeepEqual(a.N, b.N) && reflect.DeepEqual(a.FinalR, b.FinalR) && reflect.DeepEqual(a.FinalW, b.FinalW) &&
		reflect.DeepEqual(a.PipeSpans, b.PipeSpans) &&
		reflect.DeepEqual(a.DriverTotalsKnown, b.DriverTotalsKnown) && reflect.DeepEqual(a.DriverTotal, b.DriverTotal)
}

// runScratchSession drives one whole session through ServeHTTP.
func runScratchSession(server *Server, ss *scratchSession, announceLength bool) error {
	sess, err := openScratchSession(server, ss)
	if err != nil {
		return err
	}
	for _, body := range ss.batches {
		if rec := serve(server, http.MethodPost, "/sessions/"+sess.id+"/observations", body, announceLength); rec.Code != http.StatusOK {
			return fmt.Errorf("session %s: observations: status %d: %s", sess.id, rec.Code, rec.Body)
		}
	}
	return checkScratchSession(server, sess, ss)
}

// TestScratchPoolConcurrentSessions: 8 goroutines × 40 sessions, the
// plans interleaved so consecutive users of one scratch decode batches of
// different shapes; every session ends exactly where its sequential
// reference does.
func TestScratchPoolConcurrentSessions(t *testing.T) {
	server, sessions := scratchFixture(t, MonitorOptions{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if err := runScratchSession(server, &sessions[(g+i)%len(sessions)], (g+i)%3 != 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// poisonScratch overwrites everything a released scratch holds: the
// whole body buffer and every slab element the decoded batch addresses.
func poisonScratch(body []byte, batch *ingest.Batch) {
	for i := range body {
		body[i] = 0xA5
	}
	if batch == nil {
		return
	}
	const junk = -0x5A5A5A5A5A5A5A5A
	for i := range batch.Events {
		ev := &batch.Events[i]
		if ev.Start != nil {
			*ev.Start = ingest.StartEvent{Pipeline: junk, Time: junk}
		}
		if ev.Snapshot != nil {
			for j := range ev.Snapshot.Deltas {
				ev.Snapshot.Deltas[j] = ingest.Delta{Node: junk, K: junk, R: junk, W: junk}
			}
			*ev.Snapshot = ingest.SnapshotEvent{Time: junk}
		}
		*ev = ingest.Event{}
	}
	for i := range batch.Ends {
		batch.Ends[i] = ingest.PipeEnd{Pipeline: junk, Time: junk}
	}
}

// TestScratchPoolPoisoned: every scratch is filled with garbage the
// moment its handler lets go of it — so anything a Runner, Trace,
// ProgressUpdate or harvested example still aliased would read garbage —
// and the completed sessions' traces, progress bodies and corpus examples
// come out as if nothing had been reused.
func TestScratchPoolPoisoned(t *testing.T) {
	harvested := func(poison bool) (progress []string, examples any) {
		lrn, err := OpenLearning(LearningConfig{Dir: t.TempDir(), DisableBackground: true, DisableGate: true})
		if err != nil {
			t.Fatal(err)
		}
		defer lrn.Close()
		server, sessions := scratchFixture(t, MonitorOptions{Learning: lrn})
		if poison {
			scratchReleased = poisonScratch
			defer func() { scratchReleased = nil }()
		}
		for round := 0; round < 2; round++ {
			for i := range sessions {
				sess, err := openScratchSession(server, &sessions[i])
				if err != nil {
					t.Fatal(err)
				}
				for _, body := range sessions[i].batches {
					if rec := serve(server, http.MethodPost, "/sessions/"+sess.id+"/observations", body, round == 0); rec.Code != http.StatusOK {
						t.Fatalf("observations: status %d: %s", rec.Code, rec.Body)
					}
				}
				if err := checkScratchSession(server, sess, &sessions[i]); err != nil {
					t.Fatal(err)
				}
				body := serve(server, http.MethodGet, "/sessions/"+sess.id+"/progress", nil, true).Body.String()
				// Session ids differ between the two servers only by position, which is the same.
				progress = append(progress, body)
			}
		}
		got, err := lrn.store.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatal("no session harvested an example; the fixture is too small to prove anything")
		}
		return progress, got
	}
	cleanProgress, cleanExamples := harvested(false)
	poisonedProgress, poisonedExamples := harvested(true)
	if !reflect.DeepEqual(cleanProgress, poisonedProgress) {
		t.Fatalf("progress bodies differ once released scratch is overwritten:\nclean    %v\npoisoned %v", cleanProgress, poisonedProgress)
	}
	if !reflect.DeepEqual(cleanExamples, poisonedExamples) {
		t.Fatal("harvested examples differ once released scratch is overwritten")
	}
}

// TestScratchPoolRejectedBatch: a batch refused half-way through (409:
// its third snapshot regresses a counter) gives its scratch back like any
// other, and the next batches — another session's, of another plan —
// decode and apply correctly; so do the refused session's own.
func TestScratchPoolRejectedBatch(t *testing.T) {
	server, sessions := scratchFixture(t, MonitorOptions{})
	a, b := &sessions[0], &sessions[1]
	sessA, err := openScratchSession(server, a)
	if err != nil {
		t.Fatal(err)
	}
	sessB, err := openScratchSession(server, b)
	if err != nil {
		t.Fatal(err)
	}
	idA, idB := sessA.id, sessB.id
	released := 0
	scratchReleased = func([]byte, *ingest.Batch) { released++ }
	defer func() { scratchReleased = nil }()

	post := func(id string, body []byte, want int) {
		t.Helper()
		if rec := serve(server, http.MethodPost, "/sessions/"+id+"/observations", body, true); rec.Code != want {
			t.Fatalf("session %s: status %d, want %d: %s", id, rec.Code, want, rec.Body)
		}
	}
	post(idA, a.batches[0], http.StatusOK)
	// Two good snapshots, then a regression: the prefix applies, the batch
	// is refused, and the session's clock has moved past a.batches[1].
	var next ingest.Batch
	if err := json.Unmarshal(a.batches[1], &next); err != nil {
		t.Fatal(err)
	}
	bad := ingest.Batch{Events: append([]ingest.Event(nil), next.Events[:2]...)}
	bad.Events = append(bad.Events, ingest.Event{Snapshot: &ingest.SnapshotEvent{
		Time: a.trace.TotalTime, Deltas: []ingest.Delta{{Node: 0, K: -1}},
	}})
	post(idA, []byte(marshalJSON(t, bad)), http.StatusConflict)
	if released != 2 {
		t.Fatalf("%d scratch releases after 2 observation requests", released)
	}
	for _, body := range b.batches {
		post(idB, body, http.StatusOK)
	}
	if err := checkScratchSession(server, sessB, b); err != nil {
		t.Fatal(err)
	}
	// The refused session resumes from its consistent prefix: the rest of
	// the batch it was refused in, then the rest of the stream.
	rest := next
	rest.Events = next.Events[2:]
	post(idA, []byte(marshalJSON(t, rest)), http.StatusOK)
	for _, body := range a.batches[2:] {
		post(idA, body, http.StatusOK)
	}
	if err := checkScratchSession(server, sessA, a); err != nil {
		t.Fatal(err)
	}
}

// TestSessionBodyBound: both session routes answer 413 to a body over
// ingest.MaxBatchBytes — announced or not — and never a truncated-read
// 400; a body at the bound is judged on its content.
func TestSessionBodyBound(t *testing.T) {
	server, sessions := scratchFixture(t, MonitorOptions{})
	sess, err := openScratchSession(server, &sessions[0])
	if err != nil {
		t.Fatal(err)
	}
	id := sess.id
	pad := func(body []byte, size int) []byte {
		// Insignificant whitespace ahead of the closing brace.
		out := append([]byte(nil), body[:len(body)-1]...)
		out = append(out, bytes.Repeat([]byte(" "), size-len(body))...)
		return append(out, '}')
	}
	for _, route := range []struct {
		name, path string
		body       []byte
		ok         int
	}{
		{"open", "/sessions", sessions[0].spec, http.StatusCreated},
		{"observe", "/sessions/" + id + "/observations", sessions[0].batches[0], http.StatusOK},
	} {
		for _, announce := range []bool{true, false} {
			rec := serve(server, http.MethodPost, route.path, pad(route.body, ingest.MaxBatchBytes+10), announce)
			if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "exceeds the wire size bound") {
				t.Fatalf("%s, 8 MiB + 10 B (announced: %v): status %d: %s", route.name, announce, rec.Code, rec.Body)
			}
		}
		if rec := serve(server, http.MethodPost, route.path, pad(route.body, ingest.MaxBatchBytes), false); rec.Code != route.ok {
			t.Fatalf("%s, exactly 8 MiB: status %d: %s", route.name, rec.Code, rec.Body)
		}
	}
}

// TestRetainedSessionHeap pins what a finished session costs the daemon:
// the record and its final update, not the runner, the monitor or any
// part of the snapshot history. Driven through the handlers, a full
// retention table (256 terminal sessions) holds under 4 KB each, and
// three times as many sessions later the heap has not moved.
func TestRetainedSessionHeap(t *testing.T) {
	server, sessions := scratchFixture(t, MonitorOptions{})
	kept := server.sessionCfg.MaxKept
	heap := func() float64 {
		runtime.GC()
		runtime.GC() // the second cycle drops what the pools let go of in the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	runSessions := func(n int) {
		for i := 0; i < n; i++ {
			ss := &sessions[i%len(sessions)]
			sess, err := openScratchSession(server, ss)
			if err != nil {
				t.Fatal(err)
			}
			id := sess.id
			for _, body := range ss.batches {
				if rec := serve(server, http.MethodPost, "/sessions/"+id+"/observations", body, true); rec.Code != http.StatusOK {
					t.Fatalf("observations: status %d: %s", rec.Code, rec.Body)
				}
			}
		}
	}
	empty := heap()
	runSessions(kept)
	full := heap()
	runSessions(2 * kept)
	later := heap()
	if n := len(server.sessions.list()); n != kept {
		t.Fatalf("%d sessions retained, want %d", n, kept)
	}
	perSession := (full - empty) / float64(kept)
	t.Logf("heap: %.2f MB empty, %.2f MB with %d retained sessions (%.2f KB each), %.2f MB after %d more",
		empty/1e6, full/1e6, kept, perSession/1024, later/1e6, 2*kept)
	if perSession > 4096 {
		t.Fatalf("a retained terminal session holds %.1f KB, want at most 4 KB", perSession/1024)
	}
	if grown := later - full; grown > float64(kept)*1024 {
		t.Fatalf("heap grew %.0f KB over %d sessions beyond the retention bound", grown/1024, 2*kept)
	}
	runtime.KeepAlive(sessions) // the fixture is in all three readings
}
