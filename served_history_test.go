package progressest

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"testing"

	"progressest/internal/exec"
	"progressest/internal/ingest"
	"progressest/internal/progress"
	"progressest/internal/workload"
)

// servedOutcome is what one run shows anyone: its exact update stream
// (the last update is the final one) and, with learning attached, the
// digest of the examples its harvest labelled.
type servedOutcome struct {
	updates   []ProgressUpdate
	harvested int
	examples  [sha256.Size]byte
}

// observe subscribes to m's exact update stream and its harvest, and
// returns where they land. send also passes each update on to the
// conflated channel, as a session's mirror needs.
func observe(m *Monitor, qi int, send bool) *servedOutcome {
	out := new(servedOutcome)
	obs := m.obs
	obs.deliver = func(u ProgressUpdate) {
		c := u
		c.Pipelines = slices.Clone(u.Pipelines)
		out.updates = append(out.updates, c)
		if send {
			obs.send(u)
		}
	}
	if harvest := obs.harvest; harvest != nil {
		obs.harvest = func(view *progress.OnlineView, tr *exec.Trace) {
			exs := workload.LabelView(view, tr, "", "", qi, 0)
			out.harvested, out.examples = len(exs), sha256.Sum256(fmt.Appendf(nil, "%v", exs))
			harvest(view, tr)
		}
	}
	return out
}

// servedJob is one run of TestServedHistoryMatchesFreshRuns: a query of
// a dataset under one monitor configuration, executed natively (with or
// without thinning) or replayed as an external session, and its
// outcome on memory of its own.
type servedJob struct {
	name    string
	w       *Workload
	server  *Server // the session's server; nil for a native run
	qi      int
	opts    MonitorOptions
	exec    exec.Options
	session *servedSession
	want    *servedOutcome
}

// servedSession is a session's wire form: the spec, its model, the
// observation batches.
type servedSession struct {
	spec    *ingest.Spec
	model   *ingest.Model
	batches []ingest.Batch
}

// run executes j — on a history and view memory borrowed from their
// free lists and handed back at the end when served, on memory the trace
// and the view own otherwise — and returns its outcome. A served run's
// finished view must have lost its trace and its pipelines.
func (j *servedJob) run(served bool) (*servedOutcome, error) {
	if j.session != nil {
		return j.runSession(served)
	}
	pq, err := j.w.planned(j.qi)
	if err != nil {
		return nil, err
	}
	m, err := newMonitor(pq.plan, pq.pipes, pq.starts, j.w.inner.Spec.Name, j.w.inner.QueryFamily(j.qi), j.qi, j.opts, served)
	if err != nil {
		return nil, err
	}
	out := observe(m, j.qi, false)
	opts := j.exec
	opts.Observer, opts.SnapshotBatch = m.obs, m.obs.every
	m.execute(j.w.inner.DB, pq.plan, pq.pipes, opts)
	if served && (m.view.Trace != nil || m.view.Pipelines != nil || m.lent != nil) {
		return nil, fmt.Errorf("%s: a served run kept its trace or its view's memory", j.name)
	}
	return out, nil
}

// runSession streams the session through the server's own open and
// apply when served; on memory of its own, through a monitor and a
// Runner set up as openSession sets them up, minus the borrowing.
func (j *servedJob) runSession(served bool) (*servedOutcome, error) {
	s := j.session
	if !served {
		m, err := newMonitor(s.model.Plan, s.model.Pipes, nil, s.spec.Workload, s.spec.Family, -1, j.opts, false)
		if err != nil {
			return nil, err
		}
		out := observe(m, -1, false)
		runner := ingest.NewRunner(s.model, m.obs, m.obs.every, 0)
		for i := range s.batches {
			if err := runner.Apply(&s.batches[i]); err != nil {
				return nil, err
			}
		}
		tr, err := runner.Finish(s.batches[len(s.batches)-1].Ends)
		if err != nil {
			return nil, err
		}
		m.finish(tr, nil)
		return out, nil
	}
	r, err := j.server.openSession(context.Background(), s.spec, s.model)
	if err != nil {
		return nil, err
	}
	mon := r.mon
	out := observe(mon, -1, true)
	for i := range s.batches {
		if _, _, err := j.server.apply(r, &s.batches[i]); err != nil {
			return nil, err
		}
	}
	if st := r.info(false).State; st != "completed" || mon.view.Trace != nil || mon.hist != nil || mon.view.Pipelines != nil || mon.lent != nil {
		return nil, fmt.Errorf("%s: session %s, trace kept %v, history kept %v, view memory kept %v",
			j.name, st, mon.view.Trace != nil, mon.hist != nil, mon.view.Pipelines != nil || mon.lent != nil)
	}
	return out, nil
}

// TestServedHistoryMatchesFreshRuns runs every query of TPCH, TPCDS,
// Real1 and Real2 — natively without and with thinning, and replayed as
// an external session — with a fixed estimator, a trained selector and
// learning attached, first each on memory of its own, then in one
// shuffled interleaving on snapshot histories borrowed from the free
// list and handed back when the run is over, so each run records on
// chunks and a header slab some other plan sized and left behind: once
// on one goroutine, once from four; their views, likewise, on view
// memory — pipelines, marker rows, the feature vector, the policy's
// state, the harvest's finished table — another plan sized and left
// behind. Every update stream, final update included, and every
// harvested-example digest must be the fresh run's.
// Then every native query goes through POST /queries once per
// configuration, and its progress route's final update must be the
// fresh run's too.
func TestServedHistoryMatchesFreshRuns(t *testing.T) {
	lrn, err := OpenLearning(LearningConfig{Dir: t.TempDir(), DisableBackground: true, DisableGate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lrn.Close()
	configs := []struct {
		name string
		opts MonitorOptions
	}{
		{"fixed", MonitorOptions{UpdateEvery: 4}},
		{"selector", MonitorOptions{UpdateEvery: 4, Selector: trainedSelector(t)}},
		{"learning", MonitorOptions{UpdateEvery: 4, Learning: lrn}},
	}
	thinning := exec.Options{TargetObservations: 4000, MaxObservations: 300}
	var jobs []*servedJob
	servers := map[*Server][]*servedJob{} // native jobs without thinning, by the server that submits them
	for _, ds := range []Dataset{TPCH, TPCDS, Real1, Real2} {
		w, err := Open(Config{Dataset: ds, Queries: 8, Scale: 0.05, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range configs {
			server := NewServer(w, c.opts)
			t.Cleanup(server.Close)
			for qi := range w.NumQueries() {
				pq, err := w.planned(qi)
				if err != nil {
					t.Fatal(err)
				}
				tr := exec.RunDecomposed(w.inner.DB, pq.plan, pq.pipes, exec.Options{})
				sess := &servedSession{spec: ingest.SpecFromTrace(tr, "ext", w.inner.QueryFamily(qi)), batches: ingest.RecordBatches(tr, 7)}
				if sess.model, err = ingest.Build(sess.spec); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%v/%s/q%d", ds, c.name, qi)
				plain := &servedJob{name: name + "/native", w: w, qi: qi, opts: c.opts}
				jobs = append(jobs, plain,
					&servedJob{name: name + "/thinning", w: w, qi: qi, opts: c.opts, exec: thinning},
					&servedJob{name: name + "/session", w: w, server: server, qi: qi, opts: c.opts, session: sess})
				servers[server] = append(servers[server], plain)
			}
		}
	}
	harvested := 0
	for _, j := range jobs {
		if j.want, err = j.run(false); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		if len(j.want.updates) < 2 || !j.want.updates[len(j.want.updates)-1].Done {
			t.Fatalf("%s: %d updates, the last not final", j.name, len(j.want.updates))
		}
		harvested += j.want.harvested
	}
	if harvested == 0 {
		t.Fatal("no run harvested an example; the learning configuration proves nothing")
	}
	t.Logf("%d jobs; the fresh runs harvested %d examples", len(jobs), harvested)
	rand.New(rand.NewPCG(45, 1)).Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })

	check := func(t *testing.T, j *servedJob) {
		got, err := j.run(true)
		switch {
		case err != nil:
			t.Errorf("%s: %v", j.name, err)
		case !reflect.DeepEqual(got.updates, j.want.updates):
			t.Errorf("%s: the served update stream differs from the fresh run's", j.name)
		case got.harvested != j.want.harvested || got.examples != j.want.examples:
			t.Errorf("%s: the served run harvested other examples than the fresh run", j.name)
		}
	}
	t.Run("sequential", func(t *testing.T) {
		for _, j := range jobs {
			check(t, j)
		}
	})
	t.Run("parallel4", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < len(jobs); i += 4 {
					check(t, jobs[i])
				}
			}()
		}
		wg.Wait()
	})
	t.Run("http", func(t *testing.T) {
		for server, native := range servers {
			for _, j := range native {
				want := j.want.updates[len(j.want.updates)-1]
				want.Pipelines = slices.Clone(want.Pipelines)
				for i := range want.Pipelines {
					want.Pipelines[i].Estimator = 0 // not on the wire; EstimatorName is
				}
				if got := submitAndWait(t, server, j.qi); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: POST /queries ended on\n %+v\nwant %+v", j.name, got, want)
				}
			}
		}
	})
}

// submitAndWait submits query qi through ServeHTTP, waits until the
// run's mirror holds its final update, and returns the update the
// progress route answers with.
func submitAndWait(tb testing.TB, server *Server, qi int) ProgressUpdate {
	tb.Helper()
	rec := serve(server, http.MethodPost, "/queries", fmt.Appendf(nil, `{"query":%d}`, qi), true)
	var info runInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || rec.Code != http.StatusAccepted {
		tb.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
	}
	run, ok := server.queries.lookup(info.ID)
	if !ok {
		tb.Fatalf("query %s not in the table", info.ID)
	}
	run.mirrored.Wait()
	rec = serve(server, http.MethodGet, "/queries/"+info.ID+"/progress", nil, true)
	info = runInfo{}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.Update == nil || !info.Done {
		tb.Fatalf("progress of %s: status %d: %s", info.ID, rec.Code, rec.Body)
	}
	return *info.Update
}

// TestServedReadAfterReleasePanics: once a served run's history and view
// memory are back in their free lists, its finished view holds neither
// trace nor pipelines, so a finished read — here through the QueryRun
// Wait still hands out — panics instead of reading the counters or the
// estimator state of the run that recorded over them next, the reads
// that touch only the view's pipelines included.
func TestServedReadAfterReleasePanics(t *testing.T) {
	w, err := Open(Config{Dataset: TPCH, Queries: 2, Scale: 0.08, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	served := func() *Monitor {
		m, run, err := w.prepare(0, MonitorOptions{}, true)
		if err != nil {
			t.Fatal(err)
		}
		run()
		return m
	}
	run, err := served().Wait()
	if err != nil {
		t.Fatal(err)
	}
	served() // records on the history the first run handed back
	for name, read := range map[string]func(){
		"Estimates":    func() { run.Estimates(0, DNE) },
		"TrueProgress": func() { run.TrueProgress(0) },
		"Errors":       func() { run.Errors(0, DNE) },
		"Observations": func() { run.Observations(0) },
		"Features":     func() { run.Features(0) },
		"Weight":       func() { run.PipelineWeight(0) },
		"Query":        func() { run.QueryEstimates(DNE) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a served run after its history went back did not panic", name)
				}
			}()
			read()
		}()
	}
}
