package progressest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"progressest/internal/exec"
	"progressest/internal/ingest"
)

// snapshotCycle is the steady-state replay harness behind the paired
// hot-path benchmarks and the zero-alloc assertions: a warm
// monitorObserver plus the recorded snapshots of one real execution, fed
// in UpdateEvery-sized ticks that wrap around the recording. A synthetic
// thin keeps the view's storage bounded, exactly as the engine's
// MaxObservations bound does in a long-running query — so each tick is
// one Start→Update→Done-cycle slice at steady state. The monitor's fixed
// estimator settles every pipeline at its start; a picking cycle starts
// them on the view alone, so every snapshot computes a full row and its
// marker crossings, and every thin re-derives them, as while a
// selector's pick is still open.
type snapshotCycle struct {
	obs      *monitorObserver
	snaps    []exec.Snapshot
	every    int
	pos      int
	retained []exec.Snapshot // mirrors the view's retained snapshots
	batched  bool
}

// thinAt bounds the retained history (just under
// exec.DefaultTargetObservations+1), so at steady state the view's
// observation tables have stopped growing.
const thinAt = 384

func newSnapshotCycle(t testing.TB, batched, picking bool) *snapshotCycle {
	t.Helper()
	w, err := Open(Config{Dataset: TPCH, Queries: 2, Scale: 0.08, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := w.planned(0)
	if err != nil {
		t.Fatal(err)
	}
	tr := exec.RunDecomposed(w.inner.DB, pq.plan, pq.pipes, exec.Options{})
	const every = 8
	if len(tr.Snapshots) < 4*every {
		t.Fatalf("recorded trace too short for cycling: %d snapshots", len(tr.Snapshots))
	}
	obs, _ := newTestObserver(t, w, 0, nil, every)
	// Replay the pipeline starts so every pipeline that ran is live.
	start := obs.OnPipelineStart
	if picking {
		start = obs.view.OnPipelineStart
	}
	for pi := range tr.Pipes.Pipelines {
		if tr.PipeSpans[pi].Start < 0 {
			continue
		}
		start(exec.PipelineStart{
			Pipe: pi, Time: tr.PipeSpans[pi].Start,
			DriverTotalsKnown: tr.DriverTotalsKnown[pi], DriverTotals: tr.DriverTotal,
		})
	}
	c := &snapshotCycle{obs: obs, snaps: tr.Snapshots, every: every, batched: batched,
		retained: make([]exec.Snapshot, 0, thinAt+every)}
	// Warm to steady state: past the first updates (whose buffers enter
	// the conflation recycle) and through several thins, after which every
	// buffer in the path has reached its final capacity.
	for i := 0; i < 4*thinAt/every; i++ {
		c.tick()
	}
	return c
}

// tick feeds one UpdateEvery-sized segment of snapshots — producing
// exactly one conflated ProgressUpdate — and thins when the retained
// history reaches the bound.
func (c *snapshotCycle) tick() {
	if c.pos+c.every > len(c.snaps) {
		c.pos = 0
	}
	seg := c.snaps[c.pos : c.pos+c.every]
	c.pos += c.every
	if c.batched {
		c.obs.OnSnapshots(seg)
	} else {
		for i := range seg {
			c.obs.OnSnapshots(seg[i : i+1])
		}
	}
	c.retained = append(c.retained, seg...)
	if len(c.retained) >= thinAt {
		kept := c.retained[:0]
		for r := 1; r < len(c.retained); r += 2 {
			kept = append(kept, c.retained[r])
		}
		c.retained = kept
		c.obs.OnThin(kept)
	}
}

// cycleModes are the paired delivery modes under comparison.
var cycleModes = []struct {
	name    string
	batched bool
}{
	{"batched", true},
	{"unbatched", false},
}

// BenchmarkSnapshotUpdateCycle is the paired hot-path benchmark: one
// update tick (UpdateEvery snapshots fed, estimates advanced, one
// conflated ProgressUpdate assembled and sent) at steady state, batched
// vs per-snapshot delivery. CI asserts 0 allocs/op on both modes.
func BenchmarkSnapshotUpdateCycle(b *testing.B) {
	for _, mode := range cycleModes {
		b.Run(mode.name, func(b *testing.B) {
			c := newSnapshotCycle(b, mode.batched, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.tick()
			}
		})
	}
}

// BenchmarkMonitorStartToDone is the end-to-end figure: a full monitored
// query — Start, stream every update, Wait — with a fixed estimator
// ("/batched", the key of its BENCH_baseline.json history) and served by
// a trained selector ("/selector"), beside "/bare": the same cached plan
// executed with no observer. (start→done − bare) / bare is what
// estimation adds to a query; execution itself dominates.
func BenchmarkMonitorStartToDone(b *testing.B) {
	w, err := Open(Config{Dataset: TPCH, Queries: 2, Scale: 0.08, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	pq, err := w.planned(0) // warm the plan cache
	if err != nil {
		b.Fatal(err)
	}
	sel := trainedSelector(b)
	monitored := func(opts MonitorOptions) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := w.Start(0, opts)
				if err != nil {
					b.Fatal(err)
				}
				for range m.Updates {
				}
				if _, err := m.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("batched", monitored(MonitorOptions{}))
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			exec.RunDecomposed(w.inner.DB, pq.plan, pq.pipes, exec.Options{})
		}
	})
	b.Run("selector", monitored(MonitorOptions{Selector: sel}))
}

// observeFixture drives POST /sessions/{id}/observations through
// Server.ServeHTTP with a recorder: a recorded 16-snapshot batch whose
// snapshot times are rewritten in place before every post (a session's
// clock only moves forward), so the fixture itself allocates nothing but
// the request and the recorder (serve, sessions_scratch_test.go).
type observeFixture struct {
	tb     testing.TB
	server *Server
	spec   []byte
	path   string
	body   []byte
	times  []int // offset of each snapshot's 10-digit time in body
	clock  int   // the last time written
	posted int   // snapshots posted to the current session
}

// observeFixtureSnapshots bounds what one fixture session ingests before
// post opens the next: its history is retained until it ends.
const observeFixtureSnapshots = 16384

func newObserveFixture(tb testing.TB) *observeFixture {
	tb.Helper()
	w, err := Open(Config{Dataset: TPCH, Queries: 2, Scale: 0.08, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	run, err := w.Run(0)
	if err != nil {
		tb.Fatal(err)
	}
	f := &observeFixture{tb: tb, server: NewServer(w, MonitorOptions{}), clock: 1e9}
	tb.Cleanup(f.server.Close)
	if f.spec, err = json.Marshal(ingest.SpecFromTrace(run.view.Trace, "bench-ext", "bench-fam")); err != nil {
		tb.Fatal(err)
	}
	// A mid-session batch: 16 snapshots, no start events.
	batch := ingest.RecordBatches(run.view.Trace, 16)[1]
	f.body = append(f.body, `{"events":[`...)
	for i, ev := range batch.Events {
		deltas, err := json.Marshal(ev.Snapshot.Deltas)
		if err != nil {
			tb.Fatal(err)
		}
		if i > 0 {
			f.body = append(f.body, ',')
		}
		f.body = append(f.body, `{"snapshot":{"time":`...)
		f.times = append(f.times, len(f.body))
		f.body = append(f.body, "0000000000"...)
		f.body = append(f.body, `,"deltas":`...)
		f.body = append(f.body, deltas...)
		f.body = append(f.body, `}}`...)
	}
	f.body = append(f.body, `]}`...)
	f.open()
	return f
}

func (f *observeFixture) open() {
	rec := serve(f.server, http.MethodPost, "/sessions", f.spec, true)
	var info runInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || rec.Code != http.StatusCreated {
		f.tb.Fatalf("open session: status %d: %s", rec.Code, rec.Body)
	}
	f.path, f.posted = "/sessions/"+info.ID+"/observations", 0
}

// post sends the batch once more, its snapshots stamped with the next 16
// clock ticks.
func (f *observeFixture) post() {
	if f.posted >= observeFixtureSnapshots {
		serve(f.server, http.MethodDelete, strings.TrimSuffix(f.path, "/observations"), nil, true)
		f.open()
	}
	for _, at := range f.times {
		f.clock++
		for i, v := at+9, f.clock; i >= at; i, v = i-1, v/10 {
			f.body[i] = byte('0' + v%10)
		}
	}
	rec := serve(f.server, http.MethodPost, f.path, f.body, true)
	if rec.Code != http.StatusOK {
		f.tb.Fatalf("observations: status %d: %s", rec.Code, rec.Body)
	}
	f.posted += len(f.times)
}

// BenchmarkSessionObserve is the session wire's unit of work, handler to
// handler: one observation batch read, decoded, applied to the session's
// estimators and acknowledged.
func BenchmarkSessionObserve(b *testing.B) {
	f := newObserveFixture(b)
	f.post() // the first batch starts the pipelines
	b.SetBytes(int64(len(f.body)))
	b.ReportAllocs()
	for b.Loop() {
		f.post()
	}
}

// serverFixture drives BenchmarkMonitorStartToDone's query through
// Server.ServeHTTP with a recorder, the way the server's clients do:
// submitted as a native query, or replayed as an external session from
// its recorded spec and observation batches. Responses are read for
// their id and state only, so the fixture itself allocates little
// beyond the requests and the recorders.
type serverFixture struct {
	tb      testing.TB
	server  *Server
	submit  []byte   // POST /queries body
	spec    []byte   // POST /sessions body
	batches [][]byte // the session's observation batches, the last done
}

func newServerFixture(tb testing.TB, opts MonitorOptions) *serverFixture {
	tb.Helper()
	w, err := Open(Config{Dataset: TPCH, Queries: 2, Scale: 0.08, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	run, err := w.Run(0)
	if err != nil {
		tb.Fatal(err)
	}
	f := &serverFixture{tb: tb, server: NewServer(w, opts), submit: []byte(`{"query":0}`)}
	tb.Cleanup(f.server.Close)
	if f.spec, err = json.Marshal(ingest.SpecFromTrace(run.view.Trace, "bench-ext", "bench-fam")); err != nil {
		tb.Fatal(err)
	}
	for _, b := range ingest.RecordBatches(run.view.Trace, 64) {
		body, err := json.Marshal(b)
		if err != nil {
			tb.Fatal(err)
		}
		f.batches = append(f.batches, body)
	}
	return f
}

// post sends body and returns the id the response names.
func (f *serverFixture) post(path string, body []byte, want int) string {
	rec := serve(f.server, http.MethodPost, path, body, true)
	if rec.Code != want {
		f.tb.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
	}
	const key = `"id":"`
	_, id, _ := bytes.Cut(rec.Body.Bytes(), []byte(key))
	id, _, _ = bytes.Cut(id, []byte(`"`))
	return string(id)
}

// completed reads the run's progress route once and reports whether the
// run is completed.
func (f *serverFixture) completed(tree, id string) bool {
	rec := serve(f.server, http.MethodGet, "/"+tree+"/"+id+"/progress", nil, true)
	if rec.Code != http.StatusOK {
		f.tb.Fatalf("progress of %s: status %d: %s", id, rec.Code, rec.Body)
	}
	return bytes.Contains(rec.Body.Bytes(), []byte(`"state":"completed"`))
}

// query submits the query, waits until its run's mirror holds the final
// update, and reads its progress once.
func (f *serverFixture) query() {
	id := f.post("/queries", f.submit, http.StatusAccepted)
	run, ok := f.server.queries.lookup(id)
	if !ok {
		f.tb.Fatalf("query %q not in the table", id)
	}
	run.mirrored.Wait()
	if !f.completed("queries", id) {
		f.tb.Fatalf("query %s is not completed once mirrored", id)
	}
}

// session opens the session, posts every batch — the last completes it —
// and reads its progress once.
func (f *serverFixture) session() {
	id := f.post("/sessions", f.spec, http.StatusCreated)
	path := "/sessions/" + id + "/observations"
	for _, b := range f.batches {
		f.post(path, b, http.StatusOK)
	}
	if !f.completed("sessions", id) {
		f.tb.Fatalf("session %s is not completed after its done batch", id)
	}
}

// BenchmarkServerStartToDone is the served twin of
// BenchmarkMonitorStartToDone: one native query through ServeHTTP — POST
// /queries, then progress reads until the run is completed — as the
// server's clients run it, its snapshot history borrowed from the
// executor's free list and handed back at the end. How many reads a
// query takes depends on how the two goroutines were scheduled, so the
// reads per query ride along as a metric of their own.
func BenchmarkServerStartToDone(b *testing.B) {
	f := newServerFixture(b, MonitorOptions{})
	b.ReportAllocs()
	reads := 0
	for b.Loop() {
		id := f.post("/queries", f.submit, http.StatusAccepted)
		for reads++; !f.completed("queries", id); reads++ {
		}
	}
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
}
