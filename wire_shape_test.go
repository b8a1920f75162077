package progressest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// keyPaths returns the document's object keys in emission order, as
// dotted paths. An array contributes its first element's keys under
// "name[]"; the keys named in opaque hold maps keyed by data rather than
// schema, so they are listed but not descended into. encoding/json decodes
// case-insensitively and ignores unknown keys, so a struct-decoding test
// cannot notice a lost or misspelt tag — the exact ordered list can.
func keyPaths(t *testing.T, doc []byte, opaque ...string) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	token := func() json.Token {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("walking %s: %v", doc, err)
		}
		return tok
	}
	var out []string
	var walk func(prefix string, emit bool)
	walk = func(prefix string, emit bool) {
		switch token() {
		case json.Delim('{'):
			for dec.More() {
				path := prefix + token().(string)
				if emit {
					out = append(out, path)
				}
				walk(path+".", emit && !slices.Contains(opaque, path))
			}
			token()
		case json.Delim('['):
			for i := 0; dec.More(); i++ {
				walk(strings.TrimSuffix(prefix, ".")+"[].", emit && i == 0)
			}
			token()
		}
	}
	walk("", true)
	return out
}

func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return body
}

func assertKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s keys moved:\n got %q\nwant %q", what, got, want)
	}
}

var latencyKeys = []string{"samples", "total", "p50_ms", "p90_ms", "p99_ms"}

// under prefixes every key with its parent path.
func under(prefix string, keys []string) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = prefix + "." + k
	}
	return out
}

// TestWireKeyOrder pins the exact ordered JSON keys of the documents the
// daemon serves — engine stats with per-class accounting, the model
// lifecycle with a version, a decision, a canary and corpus
// stats present, health, and a run — so that re-declaring or aliasing a
// wire struct cannot silently rename, drop or reorder a field.
func TestWireKeyOrder(t *testing.T) {
	w := learningWorkload(t)
	lrn, err := OpenLearning(LearningConfig{
		Dir:               t.TempDir(),
		Selector:          SelectorConfig{Trees: 10},
		DisableBackground: true,
		DisableGate:       true,
		CanaryWindow:      64,
		FamilyQuota:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn.Close()
	eng := NewEngine(w, EngineConfig{Shards: 2, MaxLivePerShard: 4, QueueDepth: 4},
		MonitorOptions{UpdateEvery: 4, Learning: lrn})
	srv := httptest.NewServer(NewEngineServer(eng))
	defer srv.Close()
	defer eng.Drain(t.Context())

	submit := func(q string) (id string, doc []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/queries", "application/json", strings.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		doc, _ = io.ReadAll(resp.Body)
		var info struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(doc, &info); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d, %s", q, resp.StatusCode, doc)
		}
		waitDone(t, srv.URL, info.ID)
		return info.ID, doc
	}
	for i := 0; i < 3; i++ {
		submit(fmt.Sprintf(`{"query": %d}`, i))
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/models/retrain", "", nil); code != http.StatusOK {
		t.Fatalf("retrain: status %d", code)
	}
	// Served by version 1, so "model" rides on the run and the drift
	// window has a target; then a background-sourced retrain, which canary
	// confirmation diverts into a pending challenger.
	id, submitted := submit(`{"query": 3, "client": "alice"}`)
	if v, err := lrn.ret.Retrain("auto"); err != nil || v != nil {
		t.Fatalf("auto retrain: version %v, err %v; want a pending canary", v, err)
	}

	run := []string{"id", "query", "workload", "family", "class", "shard", "model", "state", "done", "observations"}
	assertKeys(t, "POST /queries", keyPaths(t, submitted),
		slices.Insert(slices.Clone(run), 2, "text"))
	assertKeys(t, "GET /queries/{id}/progress", keyPaths(t, getRaw(t, srv.URL+"/queries/"+id+"/progress")),
		slices.Concat(run, []string{"update", "update.seq", "update.time", "update.query", "update.pipelines",
			"update.pipelines[].pipeline", "update.pipelines[].started", "update.pipelines[].done",
			"update.pipelines[].estimator", "update.pipelines[].estimate", "update.pipelines[].driver_fraction",
			"update.done", "update.true_progress"}))

	assertKeys(t, "GET /healthz", keyPaths(t, getRaw(t, srv.URL+"/healthz")),
		[]string{"corpus_size", "model", "queries", "shards", "status"})

	assertKeys(t, "GET /engine/stats", keyPaths(t, getRaw(t, srv.URL+"/engine/stats")), slices.Concat(
		[]string{"shards", "shards[].shard", "shards[].live", "shards[].admitted",
			"queued", "queue_depth", "max_live_per_shard", "admitted", "rejected", "shed_total", "queue_wait"},
		under("queue_wait", latencyKeys),
		[]string{"classes", "classes[].class", "classes[].weight", "classes[].queued", "classes[].admitted",
			"classes[].rejected", "classes[].shed", "classes[].queue_wait"},
		under("classes[].queue_wait", latencyKeys),
		[]string{"classes[].latency"},
		under("classes[].latency", latencyKeys),
		[]string{"deadline_admission", "draining",
			"ingest", "ingest.open_sessions", "ingest.opened", "ingest.completed", "ingest.expired",
			"ingest.aborted", "ingest.batches", "ingest.rejected_batches", "ingest.observations",
			"ingest.ttl_seconds"}))

	assertKeys(t, "GET /models", keyPaths(t, getRaw(t, srv.URL+"/models"), "corpus.families"),
		[]string{"current", "corpus_size",
			"corpus", "corpus.segments", "corpus.bytes", "corpus.examples", "corpus.families",
			"corpus.family_quota",
			"harvest", "harvest.queries", "harvest.examples", "harvest.skipped", "harvest.errors",
			"versions", "versions[].id", "versions[].trained_at", "versions[].corpus_size",
			"versions[].holdout_l1", "versions[].holdout_n", "versions[].source", "versions[].decision",
			"versions[].current",
			"drift", "drift[].version", "drift[].baseline_l1", "drift[].baseline_n",
			"drift[].observed_l1", "drift[].observed_p90", "drift[].samples", "drift[].window",
			"drift[].min_samples", "drift[].ratio", "drift[].drifted", "drift[].since",
			"drift[].last_trigger", "drift[].last_decision",
			"canaries", "canaries[].source", "canaries[].champion",
			"canaries[].proposed_at", "canaries[].expires_at", "canaries[].samples", "canaries[].window",
			"canaries[].champion_l1", "canaries[].challenger_l1", "canaries[].holdout_l1",
			"decisions", "decisions[].at", "decisions[].trigger", "decisions[].version",
			"decisions[].decision", "decisions[].holdout_l1"})
}

// TestWireStructFields pins, for the wire structs the root package shares
// with the internal layers, every exported Go field name with its JSON
// tag, in declaration order — the omitempty fields the documents above
// happened not to carry included.
func TestWireStructFields(t *testing.T) {
	fields := func(v any) []string {
		typ := reflect.TypeOf(v)
		out := make([]string, typ.NumField())
		for i := range out {
			f := typ.Field(i)
			out[i] = f.Name + " " + f.Type.String() + " " + f.Tag.Get("json")
		}
		return out
	}
	for _, tc := range []struct {
		v    any
		want []string
	}{
		{ShardStats{}, []string{"Shard int shard", "Live int live", "Admitted int64 admitted"}},
		{HarvestStats{}, []string{"Queries int queries", "Examples int examples", "Skipped int skipped",
			"Errors int errors"}},
		{CorpusStats{}, []string{"Segments int segments", "Bytes int64 bytes", "Examples int examples",
			"Families map[string]int families", "FamilyQuota int family_quota,omitempty",
			"CompactionRuns int compaction_runs,omitempty", "CompactedSegments int compacted_segments,omitempty",
			"CompactionDropped int compaction_dropped,omitempty", "CacheHits uint64 -", "CacheMisses uint64 -"}},
		{RetrainDecision{}, []string{"At time.Time at", "Trigger string trigger", "Version int version", "Decision string decision", "HoldoutL1 float64 holdout_l1",
			"BaselineL1 float64 baseline_l1,omitempty", "ObservedL1 float64 observed_l1,omitempty"}},
		{CanaryStatus{}, []string{"Source string source", "Champion int champion",
			"ProposedAt time.Time proposed_at", "ExpiresAt time.Time expires_at", "Samples int samples",
			"Window int window", "ChampionL1 float64 champion_l1", "ChallengerL1 float64 challenger_l1",
			"HoldoutL1 float64 holdout_l1"}},
	} {
		if got := fields(tc.v); !slices.Equal(got, tc.want) {
			t.Errorf("%T fields moved:\n got %q\nwant %q", tc.v, got, tc.want)
		}
	}
}
