package progressest_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"progressest"
)

func testWorkload(t *testing.T) *progressest.Workload {
	t.Helper()
	w, err := progressest.Open(progressest.Config{
		Dataset: progressest.TPCH, Queries: 4, Scale: 0.08, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestMonitorStreamsLiveUpdates drives the Monitor API end to end: the
// query executes on its own goroutine, updates stream while it runs, and
// the final update marks completion with every pipeline done.
func TestMonitorStreamsLiveUpdates(t *testing.T) {
	w := testWorkload(t)
	m, err := w.Start(0, progressest.MonitorOptions{UpdateEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	var updates []progressest.ProgressUpdate
	for u := range m.Updates {
		if u.Query < 0 || u.Query > 1 {
			t.Fatalf("query estimate %v out of [0,1]", u.Query)
		}
		if !u.Done && u.TrueProgress != -1 {
			t.Fatalf("true progress %v leaked before completion", u.TrueProgress)
		}
		updates = append(updates, u)
	}
	if len(updates) == 0 {
		t.Fatal("no updates delivered")
	}
	last := updates[len(updates)-1]
	if !last.Done {
		t.Fatalf("final update not marked done: %+v", last)
	}
	if last.TrueProgress != 1 || last.Query != 1 {
		t.Fatalf("final update: true %v query %v, want 1/1", last.TrueProgress, last.Query)
	}
	for _, pp := range last.Pipelines {
		if !pp.Done {
			t.Fatalf("pipeline %d not done in final update", pp.Pipeline)
		}
	}
	run, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if run.NumPipelines() != len(last.Pipelines) {
		t.Fatalf("run has %d pipelines, final update %d", run.NumPipelines(), len(last.Pipelines))
	}
}

// TestMonitorConflationUnderBatching pins the Updates contract on the
// batched hot path: a slow consumer never blocks the executing observer —
// the query runs to completion regardless of consumer pace — and every
// read observes fresh state (sequence numbers strictly increase, stale
// intermediate updates are conflated away, the final read is Done).
// Run under -race this also proves the recycled update buffers never leak
// across the channel: a delivered update is never written to again.
func TestMonitorConflationUnderBatching(t *testing.T) {
	w := testWorkload(t)
	m, err := w.Start(0, progressest.MonitorOptions{UpdateEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Consume far slower than the update rate: UpdateEvery=1 emits one
	// update per snapshot (~hundreds per query), while this loop sleeps
	// between reads. Without conflation the observer would stall on the
	// full channel and the deadline below would trip.
	lastSeq := -1
	reads := 0
	var final progressest.ProgressUpdate
	for u := range m.Updates {
		if u.Seq <= lastSeq {
			t.Fatalf("stale update: seq %d after %d", u.Seq, lastSeq)
		}
		// The received update must stay immutable while the observer keeps
		// emitting: hold the slice across the sleep and re-check it below.
		pipes := u.Pipelines
		snap := append([]progressest.PipelineProgress(nil), pipes...)
		lastSeq = u.Seq
		reads++
		time.Sleep(2 * time.Millisecond)
		for i := range pipes {
			if pipes[i] != snap[i] {
				t.Fatal("delivered update mutated after receipt")
			}
		}
		final = u
	}
	if !final.Done || final.Query != 1 {
		t.Fatalf("terminal update not observed: %+v", final)
	}
	if reads == 0 {
		t.Fatal("no updates read")
	}
	run, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// The slow consumer saw a conflated subset, not the full stream: the
	// final Seq counts every emitted update.
	if final.Seq < reads-1 {
		t.Fatalf("final seq %d below read count %d", final.Seq, reads)
	}
	if run.NumPipelines() != len(final.Pipelines) {
		t.Fatalf("run has %d pipelines, final update %d", run.NumPipelines(), len(final.Pipelines))
	}
}

// TestMonitorOutOfRange checks index validation.
func TestMonitorOutOfRange(t *testing.T) {
	w := testWorkload(t)
	if _, err := w.Start(99, progressest.MonitorOptions{}); err == nil {
		t.Fatal("expected error for out-of-range query index")
	}
}

// TestMonitorRejectsOracleEstimators: the oracle models need the finished
// trace, so FixedSelector refuses them when it is built, instead of a
// monitor panicking mid-execution.
func TestMonitorRejectsOracleEstimators(t *testing.T) {
	for _, e := range []progressest.Estimator{progressest.OracleGetNext, progressest.OracleBytes} {
		if sel, err := progressest.FixedSelector(e); err == nil {
			t.Fatalf("FixedSelector(%v) = %v, want an error", e, sel)
		}
	}
	for _, e := range progressest.AllEstimators() {
		if _, err := progressest.FixedSelector(e); err != nil {
			t.Fatalf("FixedSelector(%v): %v", e, err)
		}
	}
}

// TestServerServesLiveProgress smoke-tests the daemon over real HTTP: it
// submits a query, polls its progress while the query runs in-flight, and
// sees the terminal done state.
func TestServerServesLiveProgress(t *testing.T) {
	w := testWorkload(t)
	srv := httptest.NewServer(progressest.NewServer(w, progressest.MonitorOptions{UpdateEvery: 1}))
	defer srv.Close()

	// Health.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Submit.
	body, _ := json.Marshal(map[string]int{"query": 1})
	resp, err = http.Post(srv.URL+"/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var info struct {
		ID    string `json:"id"`
		Query int    `json:"query"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.ID == "" || info.Query != 1 {
		t.Fatalf("bad submit response: %+v", info)
	}

	// Poll until done.
	type progressResp struct {
		ID     string `json:"id"`
		Done   bool   `json:"done"`
		Update *struct {
			Query     float64 `json:"query"`
			Done      bool    `json:"done"`
			Pipelines []struct {
				Estimator string  `json:"estimator"`
				Estimate  float64 `json:"estimate"`
			} `json:"pipelines"`
		} `json:"update"`
	}
	deadline := time.Now().Add(30 * time.Second)
	var last progressResp
	for {
		if time.Now().After(deadline) {
			t.Fatal("query did not finish in time")
		}
		resp, err := http.Get(srv.URL + "/queries/" + info.ID + "/progress")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("progress status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&last); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if last.Update != nil {
			if q := last.Update.Query; q < 0 || q > 1 {
				t.Fatalf("query progress %v out of [0,1]", q)
			}
		}
		if last.Done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if last.Update == nil || !last.Update.Done || last.Update.Query != 1 {
		t.Fatalf("terminal update not observed: %+v", last.Update)
	}
	if len(last.Update.Pipelines) == 0 || last.Update.Pipelines[0].Estimator == "" {
		t.Fatalf("pipeline estimator names missing: %+v", last.Update.Pipelines)
	}

	// Unknown id.
	resp, err = http.Get(srv.URL + "/queries/nope/progress")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// List contains the submitted query.
	resp, err = http.Get(srv.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	var list []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("list: %+v", list)
	}
}
