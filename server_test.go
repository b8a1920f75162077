package progressest

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// serverWorkload builds a small, fast workload for HTTP tests.
func serverWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := Open(Config{Dataset: TPCH, Queries: 6, Scale: 0.08, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// doJSON issues a request and decodes the JSON body into out (if non-nil).
func doJSON(t *testing.T, method, url string, body string, out any) int {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
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
	return resp.StatusCode
}

// waitDone polls a query's progress until its terminal state.
func waitDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("query %s did not finish in time", id)
		}
		var resp struct {
			Done bool `json:"done"`
		}
		if code := doJSON(t, http.MethodGet, base+"/queries/"+id+"/progress", "", &resp); code != http.StatusOK {
			t.Fatalf("progress status %d", code)
		}
		if resp.Done {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerRejectsBadRoutesAndMethods(t *testing.T) {
	w := serverWorkload(t)
	srv := httptest.NewServer(NewServer(w, MonitorOptions{}))
	defer srv.Close()

	// Unknown paths.
	for _, path := range []string{"/nope", "/queries/q1", "/models/nope", "/engine/resize"} {
		if code := doJSON(t, http.MethodGet, srv.URL+path, "", nil); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
	}
	// Wrong methods on registered paths.
	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/healthz"},
		{http.MethodDelete, "/queries"},
		{http.MethodPost, "/queries/q1/progress"},
		{http.MethodPost, "/engine/stats"},
		{http.MethodPost, "/models"},
		{http.MethodGet, "/models/retrain"},
		{http.MethodGet, "/models/rollback"},
	} {
		if code := doJSON(t, c.method, srv.URL+c.path, "", nil); code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, code)
		}
	}
}

func TestServerSubmitValidation(t *testing.T) {
	w := serverWorkload(t)
	srv := httptest.NewServer(NewServer(w, MonitorOptions{}))
	defer srv.Close()

	if code := doJSON(t, http.MethodPost, srv.URL+"/queries", "{not json", nil); code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 999}`, nil); code != http.StatusBadRequest {
		t.Errorf("out-of-range index: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": -1}`, nil); code != http.StatusBadRequest {
		t.Errorf("negative index: status %d, want 400", code)
	}
}

// TestServerAdmissionBound shrinks the live-query cap to 1 and verifies a
// second concurrent submission is rejected with 429 while the first still
// runs, then admitted once the slot frees up.
func TestServerAdmissionBound(t *testing.T) {
	w := serverWorkload(t)
	// Pacing keeps the first query alive long enough to observe the 429;
	// no queue, so a saturated engine rejects immediately.
	s := NewEngineServer(NewEngine(w, EngineConfig{Shards: 1, MaxLivePerShard: 1},
		MonitorOptions{UpdateEvery: 4, Pace: 20 * time.Millisecond}))
	srv := httptest.NewServer(s)
	defer srv.Close()

	var first struct {
		ID string `json:"id"`
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 0}`, &first); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	var errResp struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 1}`, &errResp); code != http.StatusTooManyRequests {
		t.Fatalf("second submit while full: status %d, want 429", code)
	}
	if !strings.Contains(errResp.Error, "capacity") {
		t.Fatalf("429 body: %q", errResp.Error)
	}
	waitDone(t, srv.URL, first.ID)
	if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 1}`, nil); code != http.StatusAccepted {
		t.Fatalf("submit after drain: status %d, want 202", code)
	}
}

// TestServerRetentionEvictsOldest shrinks the retention bound and checks
// finished queries are evicted oldest-first while their ids 404 afterwards.
func TestServerRetentionEvictsOldest(t *testing.T) {
	w := serverWorkload(t)
	s := NewServer(w, MonitorOptions{UpdateEvery: 16})
	s.queries.maxKept = 2
	srv := httptest.NewServer(s)
	defer srv.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		var info struct {
			ID string `json:"id"`
		}
		if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 0}`, &info); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		waitDone(t, srv.URL, info.ID)
		ids = append(ids, info.ID)
	}
	var list []struct {
		ID string `json:"id"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/queries", "", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list) > 2+1 { // the submission that triggered eviction may still be listed
		t.Fatalf("retention kept %d queries, want <= 3", len(list))
	}
	// The oldest query is gone.
	if code := doJSON(t, http.MethodGet, srv.URL+"/queries/"+ids[0]+"/progress", "", nil); code != http.StatusNotFound {
		t.Fatalf("evicted query progress: status %d, want 404", code)
	}
}

func TestServerModelRoutesWithoutLearning(t *testing.T) {
	w := serverWorkload(t)
	srv := httptest.NewServer(NewServer(w, MonitorOptions{}))
	defer srv.Close()
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/models"},
		{http.MethodPost, "/models/retrain"},
		{http.MethodPost, "/models/rollback"},
	} {
		var errResp struct {
			Error string `json:"error"`
		}
		if code := doJSON(t, c.method, srv.URL+c.path, "", &errResp); code != http.StatusNotFound {
			t.Errorf("%s %s without learning: status %d, want 404", c.method, c.path, code)
		}
		if !strings.Contains(errResp.Error, "learning") {
			t.Errorf("%s %s: unhelpful error %q", c.method, c.path, errResp.Error)
		}
	}
}

func TestServerModelRoutes(t *testing.T) {
	w := serverWorkload(t)
	lrn, err := OpenLearning(LearningConfig{
		Dir:               t.TempDir(),
		Selector:          SelectorConfig{Trees: 10},
		DisableBackground: true,
		// The route assertions below rely on every retrain swapping in.
		DisableGate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn.Close()
	srv := httptest.NewServer(NewServer(w, MonitorOptions{UpdateEvery: 8, Learning: lrn}))
	defer srv.Close()

	// Empty corpus: retrain must refuse, and v0 serves, with nothing
	// beneath it to roll back to.
	if code := doJSON(t, http.MethodPost, srv.URL+"/models/retrain", "", nil); code != http.StatusConflict {
		t.Fatalf("retrain on empty corpus: status %d, want 409", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/models/rollback", "", nil); code != http.StatusConflict {
		t.Fatalf("rollback from v0: status %d, want 409", code)
	}
	var models modelsResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/models", "", &models); code != http.StatusOK {
		t.Fatalf("GET /models: status %d", code)
	}
	if models.Current != 0 || len(models.Versions) != 1 || models.CorpusSize != 0 ||
		models.Versions[0].ID != 0 || models.Versions[0].Source != "fixed" || !models.Versions[0].Current {
		t.Fatalf("initial models state: %+v", models)
	}

	// Feed the corpus by running queries through the server.
	for i := 0; i < 3; i++ {
		var info struct {
			ID    string `json:"id"`
			Model int    `json:"model"`
		}
		if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 0}`, &info); code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		if info.Model != 0 {
			t.Fatalf("model %d before any version exists", info.Model)
		}
		waitDone(t, srv.URL, info.ID)
	}

	// Retrain: a version appears and is current.
	var v1 ModelVersion
	if code := doJSON(t, http.MethodPost, srv.URL+"/models/retrain", "", &v1); code != http.StatusOK {
		t.Fatalf("retrain: status %d", code)
	}
	if v1.ID != 1 || v1.Source != "manual" || v1.CorpusSize == 0 {
		t.Fatalf("first version: %+v", v1)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/models", "", &models); code != http.StatusOK {
		t.Fatalf("GET /models: status %d", code)
	}
	if models.Current != 1 || len(models.Versions) != 2 || models.Versions[0].Current || !models.Versions[1].Current {
		t.Fatalf("models after retrain: %+v", models)
	}
	// The corpus shape rides along: segment count, bytes and per-family
	// example counts from the store's in-memory counters.
	if models.Corpus.Segments == 0 || models.Corpus.Bytes == 0 || models.Corpus.Examples != models.CorpusSize {
		t.Fatalf("corpus stats missing from GET /models: %+v", models.Corpus)
	}
	total := 0
	for _, n := range models.Corpus.Families {
		total += n
	}
	if total != models.Corpus.Examples {
		t.Fatalf("corpus family counts sum to %d, want %d: %+v", total, models.Corpus.Examples, models.Corpus)
	}
	if models.Harvest.Queries != 3 || models.Harvest.Examples == 0 {
		t.Fatalf("harvest stats: %+v", models.Harvest)
	}

	// New queries are served by the published version.
	var info struct {
		ID    string `json:"id"`
		Model int    `json:"model"`
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 1}`, &info); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if info.Model != 1 {
		t.Fatalf("query served by model %d, want 1", info.Model)
	}
	waitDone(t, srv.URL, info.ID)
	var prog struct {
		Model int `json:"model"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/queries/"+info.ID+"/progress", "", &prog); code != http.StatusOK || prog.Model != 1 {
		t.Fatalf("progress model: status %d, model %d", code, prog.Model)
	}

	// Second retrain then rollback: current walks 2 -> 1.
	var v2 ModelVersion
	if code := doJSON(t, http.MethodPost, srv.URL+"/models/retrain", "", &v2); code != http.StatusOK || v2.ID != 2 {
		t.Fatalf("second retrain: %+v", v2)
	}
	// A rollback naming a family is refused (400) and rolls nothing back:
	// one model serves every family, and an old client's per-family
	// rollback must not silently move it.
	for _, body := range []string{`{"family": "lineitem"}`, `{"family": "no-such-family"}`} {
		if code := doJSON(t, http.MethodPost, srv.URL+"/models/rollback", body, nil); code != http.StatusBadRequest {
			t.Fatalf("rollback %s: status %d, want 400", body, code)
		}
		if cur, _ := lrn.Current(); cur.ID != v2.ID {
			t.Fatalf("rollback %s moved the serving model to v%d", body, cur.ID)
		}
	}
	// An empty family is the plain rollback.
	var back ModelVersion
	if code := doJSON(t, http.MethodPost, srv.URL+"/models/rollback", `{"family": ""}`, &back); code != http.StatusOK || back.ID != 1 {
		t.Fatalf("rollback: %+v", back)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/models", "", &models); code != http.StatusOK {
		t.Fatalf("GET /models: status %d", code)
	}
	if models.Current != 1 || len(models.Versions) != 3 {
		t.Fatalf("models after rollback: current %d, %d versions", models.Current, len(models.Versions))
	}

	// Healthz reports the serving model and corpus size.
	var health struct {
		Model      int `json:"model"`
		CorpusSize int `json:"corpus_size"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/healthz", "", &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health.Model != 1 || health.CorpusSize == 0 {
		t.Fatalf("healthz learning fields: %+v", health)
	}
	// Rolling back past the first version returns to v0
	// (TestRollbackFromV1LandsOnV0 covers what serves then).
	if code := doJSON(t, http.MethodPost, srv.URL+"/models/rollback", "", &back); code != http.StatusOK || back.ID != 0 {
		t.Fatalf("rollback past first: status %d, %+v; want 200 and v0", code, back)
	}
}
