package progressest

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseQoSWeights(t *testing.T) {
	w, err := ParseQoSWeights(" tpch = 9 , tpcds=1 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 2 || w["tpch"] != 9 || w["tpcds"] != 1 {
		t.Fatalf("parsed %v", w)
	}
	if w, err := ParseQoSWeights("  "); err != nil || w != nil {
		t.Fatalf("empty spec: %v, %v", w, err)
	}
	for _, bad := range []string{"tpch", "tpch=0", "tpch=-2", "=3", "tpch=x", "tpch=9,tpch=1"} {
		if _, err := ParseQoSWeights(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// postJSON issues a POST and returns the raw response with its decoded
// JSON body, so headers (Retry-After) are assertable too.
func postJSON(t *testing.T, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp
}

// TestEngineStartTaggedClass: a client tag refines the admission class
// to family|client, surfaced on the Monitor and in the per-class stats.
func TestEngineStartTaggedClass(t *testing.T) {
	w := serverWorkload(t)
	e := NewEngine(w, EngineConfig{QoSWeights: map[string]int{w.QueryFamily(0): 7}}, MonitorOptions{UpdateEvery: 16})
	defer e.Drain(context.Background())

	m, err := e.StartTagged(context.Background(), 0, "alice")
	if err != nil {
		t.Fatal(err)
	}
	wantClass := w.QueryFamily(0) + "|alice"
	if m.Class() != wantClass {
		t.Fatalf("monitor class %q, want %q", m.Class(), wantClass)
	}
	if _, err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	// The slot releases (recording the admission-to-done sample) in a
	// goroutine the moment Wait unblocks — poll the stats briefly.
	var found *ClassStats
	deadline := time.Now().Add(5 * time.Second)
	for found == nil || found.Latency.Samples == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("class %q never recorded its latency sample: %+v", wantClass, found)
		}
		st := e.Stats()
		found = nil
		for i := range st.Classes {
			if st.Classes[i].Class == wantClass {
				found = &st.Classes[i]
			}
		}
		time.Sleep(time.Millisecond)
	}
	// The tagged class inherits the family's weight and recorded its
	// fast-path queue wait next to the admission-to-done sample.
	if found.Weight != 7 || found.Admitted != 1 || found.QueueWait.Samples != 1 {
		t.Fatalf("class stats %+v", found)
	}
	// An untagged start of the same query lands in the bare family class.
	m2, err := e.Start(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Class() != w.QueryFamily(0) {
		t.Fatalf("untagged class %q, want %q", m2.Class(), w.QueryFamily(0))
	}
	if _, err := m2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestServerQueueFullRejectWire: a saturated engine answers 429 with
// reason "queue_full" and a Retry-After header, and GET /engine/stats
// exposes the windowed queue-wait percentiles and per-class accounting.
func TestServerQueueFullRejectWire(t *testing.T) {
	w := serverWorkload(t)
	s := NewEngineServer(NewEngine(w, EngineConfig{Shards: 1, MaxLivePerShard: 1},
		MonitorOptions{UpdateEvery: 4, Pace: 20 * time.Millisecond}))
	srv := httptest.NewServer(s)
	defer srv.Close()

	var first struct {
		ID    string `json:"id"`
		Class string `json:"class"`
	}
	if resp := postJSON(t, srv.URL+"/queries", `{"query": 0, "client": "alice"}`, &first); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	if want := w.QueryFamily(0) + "|alice"; first.Class != want {
		t.Fatalf("submit class %q, want %q", first.Class, want)
	}
	var reject struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	resp := postJSON(t, srv.URL+"/queries", `{"query": 1}`, &reject)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status %d, want 429", resp.StatusCode)
	}
	if reject.Reason != "queue_full" || reject.Error == "" {
		t.Fatalf("429 body %+v, want reason queue_full", reject)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}

	// The stats wire form carries the QoS fields.
	var st struct {
		Rejected  int64 `json:"rejected"`
		ShedTotal int64 `json:"shed_total"`
		QueueWait struct {
			Samples int     `json:"samples"`
			P99MS   float64 `json:"p99_ms"`
		} `json:"queue_wait"`
		Classes []struct {
			Class     string `json:"class"`
			Weight    int    `json:"weight"`
			Admitted  int64  `json:"admitted"`
			QueueWait struct {
				Samples int `json:"samples"`
			} `json:"queue_wait"`
		} `json:"classes"`
	}
	r, err := http.Get(srv.URL + "/engine/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 1 || st.QueueWait.Samples != 1 {
		t.Fatalf("stats rejected=%d wait samples=%d, want 1 and 1", st.Rejected, st.QueueWait.Samples)
	}
	found := false
	for _, c := range st.Classes {
		if c.Class == first.Class && c.Admitted == 1 && c.QueueWait.Samples == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("classes %+v missing %q with one admission", st.Classes, first.Class)
	}
	waitDone(t, srv.URL, first.ID)
}

// TestServerDeadlineShed: with deadline admission on and observed waits
// in the window, a submission whose deadline_ms cannot cover the
// predicted wait bounces with 429 reason "deadline_shed" and a
// Retry-After — without ever occupying a queue slot.
func TestServerDeadlineShed(t *testing.T) {
	w := serverWorkload(t)
	s := NewEngineServer(NewEngine(w,
		EngineConfig{Shards: 1, MaxLivePerShard: 1, QueueDepth: 8, DeadlineAdmission: true},
		MonitorOptions{UpdateEvery: 4, Pace: 10 * time.Millisecond}))
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Prime the windows with a real contended wait: q0 occupies the only
	// slot, q1 queues behind it for q0's whole (paced) runtime.
	var q0, q1 struct {
		ID string `json:"id"`
	}
	if resp := postJSON(t, srv.URL+"/queries", `{"query": 0}`, &q0); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("q0 submit: status %d", resp.StatusCode)
	}
	q1done := make(chan struct{})
	go func() {
		defer close(q1done)
		if resp := postJSON(t, srv.URL+"/queries", `{"query": 0}`, &q1); resp.StatusCode != http.StatusAccepted {
			t.Errorf("q1 submit: status %d", resp.StatusCode)
		}
	}()
	waitDone(t, srv.URL, q0.ID)
	<-q1done
	waitDone(t, srv.URL, q1.ID)

	// Saturate again and submit under a fresh client class with a 1ms
	// budget: the class has no waits of its own, so the predictor falls
	// back to the aggregate window, where q1's long wait dominates.
	var q2 struct {
		ID string `json:"id"`
	}
	if resp := postJSON(t, srv.URL+"/queries", `{"query": 0}`, &q2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("q2 submit: status %d", resp.StatusCode)
	}
	var reject struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	resp := postJSON(t, srv.URL+"/queries", `{"query": 0, "client": "late", "deadline_ms": 1}`, &reject)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("doomed submit: status %d, want 429", resp.StatusCode)
	}
	if reject.Reason != "deadline_shed" {
		t.Fatalf("429 body %+v, want reason deadline_shed", reject)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline shed without a Retry-After header")
	}
	var st EngineStats
	r, err := http.Get(srv.URL + "/engine/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ShedTotal != 1 || st.Queued != 0 || !st.DeadlineAdmission {
		t.Fatalf("stats shed=%d queued=%d deadline=%v, want 1, 0, true", st.ShedTotal, st.Queued, st.DeadlineAdmission)
	}
	waitDone(t, srv.URL, q2.ID)
}
