package progressest

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

// TestEngineShardsServeConcurrently: `-shards 4` serves concurrent
// queries spread across all shards, and GET /engine/stats reports the
// per-shard live counts while they run.
func TestEngineShardsServeConcurrently(t *testing.T) {
	w := serverWorkload(t)
	eng := NewEngine(w, EngineConfig{Shards: 4, MaxLivePerShard: 1, QueueDepth: 8},
		MonitorOptions{UpdateEvery: 4, Pace: 15 * time.Millisecond})
	srv := httptest.NewServer(NewEngineServer(eng))
	defer srv.Close()

	var ids []string
	var shards []int
	for i := 0; i < 4; i++ {
		var info struct {
			ID    string `json:"id"`
			Shard int    `json:"shard"`
		}
		if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 0}`, &info); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids = append(ids, info.ID)
		shards = append(shards, info.Shard)
	}
	sort.Ints(shards)
	for i, s := range shards {
		if s != i {
			t.Fatalf("submissions placed on shards %v, want one per shard 0..3", shards)
		}
	}

	var stats EngineStats
	if code := doJSON(t, http.MethodGet, srv.URL+"/engine/stats", "", &stats); code != http.StatusOK {
		t.Fatalf("engine stats: status %d", code)
	}
	if len(stats.Shards) != 4 || stats.QueueDepth != 8 || stats.MaxLivePerShard != 1 {
		t.Fatalf("engine stats shape: %+v", stats)
	}
	if stats.Admitted != 4 {
		t.Fatalf("admitted %d, want 4", stats.Admitted)
	}
	live := 0
	for _, sh := range stats.Shards {
		if sh.Live > 1 {
			t.Fatalf("shard %d over its live bound: %+v", sh.Shard, stats.Shards)
		}
		live += sh.Live
	}
	if live == 0 {
		t.Fatal("no query still live under pacing — stats observed nothing")
	}
	for _, id := range ids {
		waitDone(t, srv.URL, id)
	}
}

// TestEngineFixedPoolSize pins the pool-size defaulting: an unset or
// non-positive Shards is one shard, and a set one is the pool's size for
// the engine's life — NumShards and the stats' shard list agree.
func TestEngineFixedPoolSize(t *testing.T) {
	w := serverWorkload(t)
	for _, tc := range []struct {
		name string
		cfg  EngineConfig
		want int
	}{
		{"all unset: fixed single shard", EngineConfig{}, 1},
		{"shards only: fixed pool", EngineConfig{Shards: 5}, 5},
		{"negative shards: fixed single shard", EngineConfig{Shards: -3}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(w, tc.cfg, MonitorOptions{})
			defer eng.Drain(context.Background())
			if got := eng.NumShards(); got != tc.want {
				t.Fatalf("cfg %+v: %d shards, want %d", tc.cfg, got, tc.want)
			}
			if got := len(eng.Stats().Shards); got != tc.want {
				t.Fatalf("cfg %+v: stats list %d shards, want %d", tc.cfg, got, tc.want)
			}
		})
	}
}

// TestEngineQueueAdmitsWhenSlotFrees: with every shard busy a submission
// waits in the bounded queue (visible in /engine/stats) and is admitted
// once the live query finishes, rather than being rejected.
func TestEngineQueueAdmitsWhenSlotFrees(t *testing.T) {
	w := serverWorkload(t)
	eng := NewEngine(w, EngineConfig{Shards: 1, MaxLivePerShard: 1, QueueDepth: 2},
		MonitorOptions{UpdateEvery: 4, Pace: 10 * time.Millisecond})
	srv := httptest.NewServer(NewEngineServer(eng))
	defer srv.Close()

	var first struct {
		ID string `json:"id"`
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 0}`, &first); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	type result struct {
		code int
		id   string
	}
	second := make(chan result, 1)
	go func() {
		var info struct {
			ID string `json:"id"`
		}
		code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 1}`, &info)
		second <- result{code, info.ID}
	}()

	// The queued submission shows up in the stats before it is admitted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats EngineStats
		doJSON(t, http.MethodGet, srv.URL+"/engine/stats", "", &stats)
		if stats.Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submission never appeared in the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	res := <-second
	if res.code != http.StatusAccepted {
		t.Fatalf("queued submit: status %d, want 202 after the slot freed", res.code)
	}
	waitDone(t, srv.URL, first.ID)
	waitDone(t, srv.URL, res.id)
}

// TestEngineDrainFailsQueuedSubmissions: Drain under load answers queued
// submissions with 503 immediately (no stranded requests), refuses new
// ones, and still lets the in-flight query finish.
func TestEngineDrainFailsQueuedSubmissions(t *testing.T) {
	w := serverWorkload(t)
	eng := NewEngine(w, EngineConfig{Shards: 1, MaxLivePerShard: 1, QueueDepth: 4},
		MonitorOptions{UpdateEvery: 4, Pace: 10 * time.Millisecond})
	s := NewEngineServer(eng)
	srv := httptest.NewServer(s)
	defer srv.Close()

	var first struct {
		ID string `json:"id"`
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 0}`, &first); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	queued := make(chan int, 1)
	go func() {
		queued <- doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 1}`, nil)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats EngineStats
		doJSON(t, http.MethodGet, srv.URL+"/engine/stats", "", &stats)
		if stats.Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second submission never queued")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	select {
	case code := <-queued:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("queued submission during drain: status %d, want 503", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued submission stranded by Drain")
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 2}`, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("new submission during drain: status %d, want 503", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight query completed and was recorded.
	var resp struct {
		Done bool `json:"done"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/queries/"+first.ID+"/progress", "", &resp); code != http.StatusOK || !resp.Done {
		t.Fatalf("drained query: status %d done %v", code, resp.Done)
	}
}

// TestLearningModelPersistsAcrossRestart: a retrained model is restored
// after reopening the corpus directory, so a restarted daemon serves
// queries with it instead of the fixed-estimator fallback.
func TestLearningModelPersistsAcrossRestart(t *testing.T) {
	w := learningWorkload(t)
	dir := t.TempDir()
	lrn, err := OpenLearning(LearningConfig{
		Dir:               dir,
		Selector:          SelectorConfig{Trees: 10},
		DisableBackground: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.Start(0, MonitorOptions{UpdateEvery: 4, Learning: lrn})
	if err != nil {
		t.Fatal(err)
	}
	for range m.Updates {
	}
	if _, err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	v1, err := lrn.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if err := lrn.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the daemon resumes from the persisted version, before any
	// fresh traffic or retrain.
	lrn2, err := OpenLearning(LearningConfig{
		Dir:               dir,
		Selector:          SelectorConfig{Trees: 10},
		DisableBackground: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn2.Close()
	cur, ok := lrn2.Current()
	if !ok {
		t.Fatal("no model restored after restart")
	}
	if cur.Source != "restored" || cur.HoldoutL1 != v1.HoldoutL1 || cur.CorpusSize != v1.CorpusSize {
		t.Fatalf("restored version %+v, want metadata of %+v", cur, v1)
	}
	m2, err := w.Start(1, MonitorOptions{UpdateEvery: 4, Learning: lrn2})
	if err != nil {
		t.Fatal(err)
	}
	if m2.ModelVersion() != cur.ID {
		t.Fatalf("post-restart query served by v%d, want restored v%d", m2.ModelVersion(), cur.ID)
	}
	for range m2.Updates {
	}
	if _, err := m2.Wait(); err != nil {
		t.Fatal(err)
	}
}
