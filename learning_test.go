package progressest

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"progressest/internal/selection"
	"progressest/internal/workload"
)

func learningWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := Open(Config{Dataset: TPCH, Queries: 8, Scale: 0.08, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestContinuousLearningLoopEndToEnd proves the full loop of the
// subsystem: queries run through the Monitor with harvesting on, the
// corpus accrues examples bit-identical to a batch harvest of the same
// traces, a retrain publishes a new selector version, and progressd
// serves subsequent queries with the hot-swapped version — with zero
// dropped or blocked progress requests during the swap (run under -race).
func TestContinuousLearningLoopEndToEnd(t *testing.T) {
	w := learningWorkload(t)
	lrn, err := OpenLearning(LearningConfig{
		Dir:               t.TempDir(),
		Selector:          SelectorConfig{Trees: 10},
		DisableBackground: true,
		// This test proves the swap mechanics; gate decisions get their
		// own coverage.
		DisableGate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn.Close()

	// Phase 1: run queries through the Monitor with harvesting on.
	var expected []selection.Example
	for i := 0; i < 3; i++ {
		m, err := w.Start(i, MonitorOptions{UpdateEvery: 4, Learning: lrn})
		if err != nil {
			t.Fatal(err)
		}
		if m.ModelVersion() != 0 {
			t.Fatalf("query served by version %d before any was published", m.ModelVersion())
		}
		for range m.Updates {
		}
		run, err := m.Wait()
		if err != nil {
			t.Fatal(err)
		}
		// Batch-harvest the very same trace with the shared converter.
		expected = append(expected, workload.HarvestTrace(run.view.Trace, w.inner.Spec.Name, w.QueryFamily(i), i, 0)...)
	}

	// Phase 2: the corpus holds exactly the batch-harvest examples,
	// bit-identical in features and labels.
	got, err := lrn.store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) != len(expected) {
		t.Fatalf("corpus has %d examples, batch harvest %d", len(got), len(expected))
	}
	for i := range expected {
		if !reflect.DeepEqual(got[i], expected[i]) {
			t.Fatalf("corpus example %d is not bit-identical to the batch harvest:\n got %+v\nwant %+v",
				i, got[i], expected[i])
		}
	}
	if st := lrn.HarvestStats(); st.Queries != 3 || st.Examples != len(expected) || st.Errors != 0 {
		t.Fatalf("harvest stats: %+v", st)
	}

	// Phase 3: retrain produces a new selector version...
	v1, err := lrn.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if v1.ID != 1 || v1.CorpusSize != len(expected) || !v1.Current {
		t.Fatalf("retrained version: %+v", v1)
	}

	// ...and progressd serves subsequent queries with it, visibly.
	srv := httptest.NewServer(NewServer(w, MonitorOptions{UpdateEvery: 2, Learning: lrn}))
	defer srv.Close()
	var info struct {
		ID    string `json:"id"`
		Model int    `json:"model"`
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 3}`, &info); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if info.Model != v1.ID {
		t.Fatalf("query served by model %d, want %d", info.Model, v1.ID)
	}

	// Phase 4: hot-swap under load — hammer progress requests from many
	// goroutines while a second retrain swaps the model in. Every single
	// request must succeed; the atomic pointer swap never blocks serving.
	stop := make(chan struct{})
	errCh := make(chan error, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/queries/" + info.ID + "/progress")
				if err != nil {
					errCh <- err
					return
				}
				code := resp.StatusCode
				resp.Body.Close()
				if code != http.StatusOK {
					errCh <- &httpStatusError{code}
					return
				}
			}
		}()
	}
	v2, err := lrn.Retrain() // the swap happens while requests fly
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // keep hammering a beat after the swap
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("progress request dropped/failed during hot swap: %v", err)
	default:
	}

	// Phase 5: the swapped version is current in GET /models and serves
	// the next query.
	var models modelsResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/models", "", &models); code != http.StatusOK {
		t.Fatalf("GET /models: status %d", code)
	}
	if models.Current != v2.ID || len(models.Versions) != 2 {
		t.Fatalf("models after swap: current %d, %d versions", models.Current, len(models.Versions))
	}
	var info2 struct {
		ID    string `json:"id"`
		Model int    `json:"model"`
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/queries", `{"query": 4}`, &info2); code != http.StatusAccepted {
		t.Fatalf("submit after swap: status %d", code)
	}
	if info2.Model != v2.ID {
		t.Fatalf("post-swap query served by model %d, want %d", info2.Model, v2.ID)
	}
	waitDone(t, srv.URL, info.ID)
	waitDone(t, srv.URL, info2.ID)
}

type httpStatusError struct{ code int }

func (e *httpStatusError) Error() string { return http.StatusText(e.code) }

// TestLearningSeedSelectorServesImmediately: a seed selector is published
// as version 1 so the very first query is selector-served.
func TestLearningSeedSelectorServesImmediately(t *testing.T) {
	w := learningWorkload(t)
	ex, err := w.Harvest()
	if err != nil {
		t.Fatal(err)
	}
	seedSel, err := TrainSelector(ex, SelectorConfig{Trees: 10})
	if err != nil {
		t.Fatal(err)
	}
	lrn, err := OpenLearning(LearningConfig{
		Dir:               t.TempDir(),
		Selector:          SelectorConfig{Trees: 10},
		SeedSelector:      seedSel,
		SeedExamples:      ex,
		DisableBackground: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn.Close()
	cur, ok := lrn.Current()
	if !ok || cur.ID != 1 || cur.Source != "seed" {
		t.Fatalf("seed version: %+v ok=%v", cur, ok)
	}
	m, err := w.Start(0, MonitorOptions{UpdateEvery: 4, Learning: lrn})
	if err != nil {
		t.Fatal(err)
	}
	if m.ModelVersion() != 1 {
		t.Fatalf("first query served by version %d, want 1", m.ModelVersion())
	}
	for range m.Updates {
	}
	if _, err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	// The seed examples are mixed into retraining, so even this tiny
	// observed corpus trains fine.
	v, err := lrn.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 2 || v.CorpusSize == 0 {
		t.Fatalf("retrain with seed examples: %+v", v)
	}
}

// TestLearningCorpusPersistsAcrossReopen: the corpus directory survives a
// daemon restart.
func TestLearningCorpusPersistsAcrossReopen(t *testing.T) {
	w := learningWorkload(t)
	dir := t.TempDir()
	lrn, err := OpenLearning(LearningConfig{Dir: dir, DisableBackground: true})
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
	n := lrn.CorpusSize()
	if n == 0 {
		t.Fatal("nothing harvested")
	}
	if err := lrn.Close(); err != nil {
		t.Fatal(err)
	}
	lrn2, err := OpenLearning(LearningConfig{Dir: dir, DisableBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn2.Close()
	if lrn2.CorpusSize() != n {
		t.Fatalf("corpus lost across reopen: %d -> %d", n, lrn2.CorpusSize())
	}
}

// TestLearningRollbackSurvivesReopen: an operator rollback is durable.
// The rolled-back-to version — not the version it displaced — must be the
// one a restarted daemon serves, which is exactly what the manifest sync
// inside Learning's rollback path guarantees.
func TestLearningRollbackSurvivesReopen(t *testing.T) {
	w := learningWorkload(t)
	dir := t.TempDir()
	cfg := LearningConfig{
		Dir:               dir,
		Selector:          SelectorConfig{Trees: 10},
		DisableBackground: true,
		DisableGate:       true,
	}
	lrn, err := OpenLearning(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two versions with distinguishable corpus sizes: restore renumbers
	// IDs, so the reopened daemon's serving version is matched by
	// training metadata instead.
	grow := func(q int) {
		m, err := w.Start(q, MonitorOptions{UpdateEvery: 4, Learning: lrn})
		if err != nil {
			t.Fatal(err)
		}
		for range m.Updates {
		}
		if _, err := m.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	grow(0)
	v1, err := lrn.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	grow(1)
	v2, err := lrn.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if v1.CorpusSize == v2.CorpusSize {
		t.Fatal("test needs distinguishable versions")
	}
	back, err := lrn.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != v1.ID {
		t.Fatalf("rollback landed on version %d, want %d", back.ID, v1.ID)
	}
	if err := lrn.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": the reopened daemon serves the rolled-back-to version.
	lrn2, err := OpenLearning(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lrn2.Close()
	cur, ok := lrn2.Current()
	if !ok {
		t.Fatal("no serving version after reopen")
	}
	if cur.CorpusSize != v1.CorpusSize || !cur.TrainedAt.Equal(v1.TrainedAt) {
		t.Fatalf("reopened daemon serves %+v, want the rolled-back-to version (corpus %d, trained %v)",
			cur, v1.CorpusSize, v1.TrainedAt)
	}
	if cur.Source != "restored" {
		t.Fatalf("reopened serving source %q, want restored", cur.Source)
	}
}

// TestExportImportExamples round-trips a batch harvest through the shared
// corpus format (the cmd/trainsel -corpus/-export path).
func TestExportImportExamples(t *testing.T) {
	w := learningWorkload(t)
	ex, err := w.Harvest()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ExportExamples(dir, ex); err != nil {
		t.Fatal(err)
	}
	// Export is append-only: a second export extends the corpus.
	if err := ExportExamples(dir, ex[:2]); err != nil {
		t.Fatal(err)
	}
	got, err := ImportExamples(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ex)+2 {
		t.Fatalf("imported %d examples, want %d", len(got), len(ex)+2)
	}
	for i := range ex {
		if !reflect.DeepEqual(got[i], ex[i]) {
			t.Fatalf("example %d mangled in export/import round trip", i)
		}
	}
	// Importing an empty directory fails with a helpful error — and must
	// not conjure a corpus there.
	empty := t.TempDir()
	if _, err := ImportExamples(empty); err == nil || !strings.Contains(err.Error(), "no corpus segments") {
		t.Fatalf("empty corpus import: %v", err)
	}
	if entries, _ := os.ReadDir(empty); len(entries) != 0 {
		t.Fatalf("read-only import created %d files", len(entries))
	}
	// A mistyped path errors instead of silently creating the directory.
	missing := filepath.Join(empty, "typo")
	if _, err := ImportExamples(missing); err == nil {
		t.Fatal("missing corpus dir should error")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("read-only import created the mistyped directory")
	}
}

// TestMonitorLearningWithExplicitSelector: an explicit Selector wins over
// the registry (version reports 0) but harvesting still happens.
func TestMonitorLearningWithExplicitSelector(t *testing.T) {
	w := learningWorkload(t)
	ex, err := w.Harvest()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := TrainSelector(ex, SelectorConfig{Trees: 10})
	if err != nil {
		t.Fatal(err)
	}
	lrn, err := OpenLearning(LearningConfig{Dir: t.TempDir(), DisableBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn.Close()
	m, err := w.Start(0, MonitorOptions{UpdateEvery: 4, Selector: sel, Learning: lrn})
	if err != nil {
		t.Fatal(err)
	}
	if m.ModelVersion() != 0 {
		t.Fatalf("explicit selector should report version 0, got %d", m.ModelVersion())
	}
	for range m.Updates {
	}
	if _, err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	if lrn.CorpusSize() == 0 {
		t.Fatal("explicit selector disabled harvesting")
	}
}

// TestModelsReportCompactionError: a compaction pass that fails on the
// background poll reaches the operator through LastTrainingError and
// GET /models training_error.
func TestModelsReportCompactionError(t *testing.T) {
	w := learningWorkload(t)
	dir := t.TempDir()
	lrn, err := OpenLearning(LearningConfig{
		Dir:             dir,
		Selector:        SelectorConfig{Trees: 5},
		Poll:            time.Millisecond,
		MaxSegmentBytes: 2048,
		MaxExamples:     30,
		FamilyQuota:     12,
		DisablePersist:  true,
		// The loop starts below, once the corpus is broken.
		DisableBackground: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn.Close()
	// Over the cap, with family b's 12 examples quota-protected in every
	// segment, so whole-segment retention cannot bring it back down.
	for i := 0; i < 60; i++ {
		ex := selection.Example{Features: make([]float64, 6), Family: "a", Signature: "heavy"}
		if i%5 == 4 {
			ex.Family, ex.Signature = "b", "light"
		}
		for j := range ex.Features {
			ex.Features[j] = float64(i) / 100
		}
		if err := lrn.store.Append(ex); err != nil {
			t.Fatal(err)
		}
	}
	if st := lrn.CorpusStats(); st.Examples <= 30 || st.Segments < 2 {
		t.Fatalf("corpus not over its cap across sealed segments: %+v", st)
	}
	// Cut the oldest sealed segment short under the open store: its
	// bookkeeping now counts records the file no longer holds.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments %v: %v", segs, err)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()/2); err != nil {
		t.Fatal(err)
	}
	lrn.ret.Start()
	deadline := time.Now().Add(5 * time.Second)
	for lrn.LastTrainingError() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	terr := lrn.LastTrainingError()
	if terr == nil || !strings.Contains(terr.Error(), "compact") {
		t.Fatalf("LastTrainingError = %v, want the compaction failure", terr)
	}
	srv := httptest.NewServer(NewServer(w, MonitorOptions{Learning: lrn}))
	defer srv.Close()
	var models struct {
		TrainingError string `json:"training_error"`
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/models", "", &models); code != http.StatusOK {
		t.Fatalf("GET /models: status %d", code)
	}
	if !strings.Contains(models.TrainingError, "compact") {
		t.Fatalf("GET /models training_error = %q, want the compaction failure", models.TrainingError)
	}
}
