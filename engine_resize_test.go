package progressest

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitStats polls GET /engine/stats until pred accepts a snapshot.
func waitStats(t *testing.T, base, what string, pred func(EngineStats) bool) EngineStats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st EngineStats
		if code := doJSON(t, http.MethodGet, base+"/engine/stats", "", &st); code != http.StatusOK {
			t.Fatalf("engine stats: status %d", code)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never reached %q; last stats: %+v", what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEngineAdaptivePoolEndToEnd is the acceptance e2e: a sustained
// submission burst keeps the admission queue hot, the autoscaler grows
// the pool to MaxShards — both the shard count and the grow events
// observable in GET /engine/stats — and once the burst stops and the
// shards idle, the pool shrinks back to MinShards.
func TestEngineAdaptivePoolEndToEnd(t *testing.T) {
	w := serverWorkload(t)
	eng := NewEngine(w, EngineConfig{
		Shards:               1,
		MaxLivePerShard:      1,
		QueueDepth:           2,
		MinShards:            1,
		MaxShards:            3,
		AutoscaleInterval:    10 * time.Millisecond,
		AutoscaleGrowPolls:   2,
		AutoscaleShrinkPolls: 3,
		AutoscaleCooldown:    5 * time.Millisecond,
	}, MonitorOptions{UpdateEvery: 2, Pace: 10 * time.Millisecond})
	srv := httptest.NewServer(NewEngineServer(eng))
	defer srv.Close()

	if st := waitStats(t, srv.URL, "initial size", func(EngineStats) bool { return true }); st.CurrentShards != 1 ||
		st.MinShards != 1 || st.MaxShards != 3 || !st.Autoscale {
		t.Fatalf("initial stats: %+v", st)
	}

	// Burst: enough concurrent submitters to keep the queue full and the
	// overflow rejecting — the two signals the controller reads as hot.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{}
			body := fmt.Sprintf(`{"query": %d}`, i%w.NumQueries())
			for {
				select {
				case <-stop:
					return
				default:
				}
				req, _ := http.NewRequest(http.MethodPost, srv.URL+"/queries", strings.NewReader(body))
				resp, err := client.Do(req)
				if err == nil {
					resp.Body.Close()
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}

	grown := waitStats(t, srv.URL, "grow to max shards", func(st EngineStats) bool {
		return st.CurrentShards == 3
	})
	var sawGrow bool
	for _, ev := range grown.ResizeEvents {
		if ev.Source == "autoscale" && ev.To > ev.From {
			sawGrow = true
		}
	}
	if !sawGrow {
		t.Fatalf("no autoscale grow event in %+v", grown.ResizeEvents)
	}
	if grown.LastDecision == nil {
		t.Fatal("no autoscaler decision surfaced in stats")
	}

	// End the burst; queries finish, shards idle, the pool shrinks back.
	close(stop)
	wg.Wait()
	shrunk := waitStats(t, srv.URL, "shrink back to min shards", func(st EngineStats) bool {
		return st.CurrentShards == 1 && st.Queued == 0
	})
	var sawShrink bool
	for _, ev := range shrunk.ResizeEvents {
		if ev.Source == "autoscale" && ev.To < ev.From {
			sawShrink = true
		}
	}
	if !sawShrink {
		t.Fatalf("no autoscale shrink event in %+v", shrunk.ResizeEvents)
	}
	// The reaped shards' lifetime counters survive in the stats.
	var sum int64
	for _, sh := range shrunk.Shards {
		sum += sh.Admitted
	}
	if sum != shrunk.Admitted || shrunk.Admitted == 0 {
		t.Fatalf("lifetime counters: shard sum %d vs admitted %d", sum, shrunk.Admitted)
	}
	// Every submitted query still completes after the pool moved twice.
	var infos []struct {
		ID   string `json:"id"`
		Done bool   `json:"done"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/queries", "", &infos); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	for _, q := range infos {
		waitDone(t, srv.URL, q.ID)
	}
}

// TestEngineOperatorResizeEndpoint: POST /engine/resize is the operator
// override — it resizes a fixed (non-autoscaled) pool in both
// directions (a regrow over reaped shards included), answers with the
// document GET /engine/stats serves, validates its input, and is refused
// once the engine drains.
func TestEngineOperatorResizeEndpoint(t *testing.T) {
	w := serverWorkload(t)
	eng := NewEngine(w, EngineConfig{Shards: 2, MaxLivePerShard: 1, QueueDepth: 4},
		MonitorOptions{UpdateEvery: 4, Pace: 10 * time.Millisecond})
	s := NewEngineServer(eng)
	srv := httptest.NewServer(s)
	defer srv.Close()

	var st EngineStats
	if code := doJSON(t, http.MethodPost, srv.URL+"/engine/resize", `{"shards": 4}`, &st); code != http.StatusOK {
		t.Fatalf("resize up: status %d", code)
	}
	if st.CurrentShards != 4 || len(st.Shards) != 4 || st.Resizes != 1 {
		t.Fatalf("post-grow stats: %+v", st)
	}
	if len(st.ResizeEvents) != 1 || st.ResizeEvents[0].Source != "operator" {
		t.Fatalf("resize events: %+v", st.ResizeEvents)
	}
	// The answer is the whole stats document, session accounting included.
	if st.Ingest == nil {
		t.Fatalf("resize response lacks the ingest block GET /engine/stats carries: %+v", st)
	}
	// The widened pool actually serves: four concurrently held paced
	// queries land on four distinct shards.
	spread := func(when string) {
		t.Helper()
		seen := map[int]bool{}
		var ids []string
		for i := 0; i < 4; i++ {
			var info struct {
				ID    string `json:"id"`
				Shard int    `json:"shard"`
			}
			if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 0}`, &info); code != http.StatusAccepted {
				t.Fatalf("%s: submit %d: status %d", when, i, code)
			}
			seen[info.Shard] = true
			ids = append(ids, info.ID)
		}
		if len(seen) != 4 {
			t.Fatalf("%s: 4 concurrent queries used shards %v, want all 4", when, seen)
		}
		for _, id := range ids {
			waitDone(t, srv.URL, id)
		}
	}
	spread("post-grow")

	if code := doJSON(t, http.MethodPost, srv.URL+"/engine/resize", `{"shards": 1}`, &st); code != http.StatusOK {
		t.Fatalf("resize down: status %d", code)
	}
	if st.CurrentShards != 1 {
		t.Fatalf("post-shrink stats: %+v", st)
	}
	// Regrow resurrects the three reaped shards, and they serve.
	if err := eng.Resize(4); err != nil {
		t.Fatal(err)
	}
	spread("post-regrow")

	// Invalid sizes — including one past the pool cap, which must fail
	// validation instead of allocating a billion shard slots.
	for _, body := range []string{`{"shards": 0}`, `{"shards": -2}`, `{"shards": 1000000000}`, `{not json`} {
		if code := doJSON(t, http.MethodPost, srv.URL+"/engine/resize", body, nil); code != http.StatusBadRequest {
			t.Fatalf("resize %s: status %d, want 400", body, code)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/engine/resize", `{"shards": 2}`, nil); code != http.StatusConflict {
		t.Fatalf("resize while draining: status %d, want 409", code)
	}
	if err := eng.Resize(200); !IsDraining(err) {
		t.Fatalf("resize while draining: %v, want IsDraining", err)
	}
}

// TestEngineResizeSoak races real query execution against a resize storm
// at the Engine level (under -race): every admitted query must execute,
// whichever shard's slot it was granted mid-resize, stats must stay
// serviceable throughout, and every query must complete.
func TestEngineResizeSoak(t *testing.T) {
	w := serverWorkload(t)
	eng := NewEngine(w, EngineConfig{Shards: 2, MaxLivePerShard: 2, QueueDepth: 16},
		MonitorOptions{UpdateEvery: 8})
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		sizes := []int{1, 4, 2, 5, 1, 3}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.Resize(sizes[i%len(sizes)]); err != nil {
				t.Errorf("soak resize: %v", err)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := eng.Stats()
			if st.CurrentShards < 1 {
				t.Errorf("stats mid-soak: %+v", st)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for worker := 0; worker < 6; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				m, err := eng.Start(context.Background(), (worker+i)%w.NumQueries())
				if err != nil {
					t.Errorf("soak start: %v", err)
					return
				}
				for range m.Updates {
				}
				if _, err := m.Wait(); err != nil {
					t.Errorf("soak wait: %v", err)
					return
				}
			}
		}(worker)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	st := eng.Stats()
	if st.Admitted != 6*8 {
		t.Fatalf("admitted %d, want %d", st.Admitted, 6*8)
	}
	for _, sh := range st.Shards {
		if sh.Live != 0 {
			t.Fatalf("shard %d still live after soak: %+v", sh.Shard, st.Shards)
		}
	}
}

// TestEngineConfigShardBoundsDefaulting pins the EngineConfig
// defaulting contract: unset bounds collapse to a fixed pool of the
// requested size, MinShards alone means "start at Shards, allowed to
// shrink", and an initial size outside explicit bounds is clamped into
// them.
func TestEngineConfigShardBoundsDefaulting(t *testing.T) {
	w := serverWorkload(t)
	cases := []struct {
		name             string
		cfg              EngineConfig
		wantCur, wantMin int
		wantMax          int
		wantAutoscale    bool
	}{
		{"all unset: fixed single shard", EngineConfig{}, 1, 1, 1, false},
		{"shards only: fixed pool", EngineConfig{Shards: 5}, 5, 5, 5, false},
		{"min only keeps the requested size", EngineConfig{Shards: 5, MinShards: 2}, 5, 2, 5, true},
		{"max only grows the range", EngineConfig{Shards: 2, MaxShards: 6}, 2, 2, 6, true},
		{"initial below min is raised", EngineConfig{Shards: 1, MinShards: 3, MaxShards: 6}, 3, 3, 6, true},
		{"initial above max is lowered", EngineConfig{Shards: 9, MinShards: 2, MaxShards: 4}, 4, 2, 4, true},
		{"min wins a conflicting max", EngineConfig{Shards: 1, MinShards: 4, MaxShards: 2}, 4, 4, 4, false},
		{"disabled autoscale keeps bounds visible", EngineConfig{Shards: 2, MaxShards: 6, DisableAutoscale: true}, 2, 2, 6, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(w, tc.cfg, MonitorOptions{})
			defer eng.Drain(context.Background())
			st := eng.Stats()
			if st.CurrentShards != tc.wantCur || st.MinShards != tc.wantMin ||
				st.MaxShards != tc.wantMax || st.Autoscale != tc.wantAutoscale {
				t.Fatalf("cfg %+v: got cur %d min %d max %d autoscale %v, want %d/%d/%d/%v",
					tc.cfg, st.CurrentShards, st.MinShards, st.MaxShards, st.Autoscale,
					tc.wantCur, tc.wantMin, tc.wantMax, tc.wantAutoscale)
			}
		})
	}
}

// TestDriftStateInvariantAcrossResize pins the design note the adaptive
// pool relies on: the drift monitor's windows are engine-global, each
// hanging off the model version it judges rather than off a shard, so
// resizing the pool migrates no drift state — the windows, verdicts and
// sample counts are bit-identical across a grow and a shrink, and keep
// accumulating afterwards.
func TestDriftStateInvariantAcrossResize(t *testing.T) {
	w := learningWorkload(t)
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
	eng := NewEngine(w, EngineConfig{Shards: 2, MaxLivePerShard: 2, QueueDepth: 4},
		MonitorOptions{UpdateEvery: 4, Learning: lrn})

	runQuery := func(i int) {
		t.Helper()
		m, err := eng.Start(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		for range m.Updates {
		}
		if _, err := m.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	// Build a corpus, publish a version, then serve queries pinned to it
	// so the drift window accrues observations.
	runQuery(0)
	runQuery(1)
	if _, err := lrn.Retrain(); err != nil {
		t.Fatal(err)
	}
	runQuery(2)
	runQuery(3)
	before := lrn.DriftStatus()
	if len(before) == 0 {
		t.Fatal("no drift state accrued before the resize")
	}
	total := 0
	for _, st := range before {
		total += st.Samples
	}
	if total == 0 {
		t.Fatalf("drift windows empty before the resize: %+v", before)
	}

	// Resize in both directions. No queries run in between, so any
	// difference would be resize-induced state migration — which must not
	// exist.
	if err := eng.Resize(5); err != nil {
		t.Fatal(err)
	}
	if err := eng.Resize(1); err != nil {
		t.Fatal(err)
	}
	after := lrn.DriftStatus()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("drift state changed across resize:\nbefore %+v\nafter  %+v", before, after)
	}

	// The windows keep accumulating on the resized pool: same targets,
	// more samples.
	runQuery(4)
	grown := lrn.DriftStatus()
	grownTotal := 0
	for _, st := range grown {
		grownTotal += st.Samples
	}
	if grownTotal <= total {
		t.Fatalf("drift window stopped accumulating after resize: %d -> %d samples", total, grownTotal)
	}
}
