package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"progressest"
	"progressest/internal/datagen"
	"progressest/internal/engine"
	"progressest/internal/exec"
	"progressest/internal/features"
	"progressest/internal/feedback"
	"progressest/internal/ingest"
	"progressest/internal/optimizer"
	"progressest/internal/pipeline"
	"progressest/internal/plan"
	"progressest/internal/progress"
	"progressest/internal/qos"
	"progressest/internal/selection"
	"progressest/internal/workload"
)

// The probe suite times each layer from outside, through its exported
// functions, with one caller. It is the same on every workload: the
// driver's contract wants every per-layer metric from every traced run.

// probeRounds is how many times each probe walks the serving queries.
const probeRounds = 2

// updateEvery is MonitorOptions' default update cadence, which is also
// the snapshot batch size the monitor asks the executor for.
const updateEvery = 8

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeLoop returns the mean nanoseconds of one call of fn over n calls.
func timeLoop(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(n)
}

// planned is one serving query, planned once.
type planned struct {
	plan  *plan.Plan
	pipes *pipeline.Decomposition
}

// prober holds what the probes share.
type prober struct {
	e    *env
	cfg  runConfig
	rep  *report
	w    *workload.Workload
	sel  *selection.Selector
	plan []planned
}

func runProbes(e *env, cfg runConfig, rep *report) error {
	p := &prober{e: e, cfg: cfg, rep: rep}
	if err := p.probeSetupLayers(); err != nil {
		return err
	}
	var err error
	if e.sessions == nil {
		if e.sessions, err = recordSessions(p.w); err != nil {
			return err
		}
	}
	// The internal form of the seed selector, by way of its file format.
	path := filepath.Join(cfg.dir, "selector.json")
	if err := e.selector.Save(path); err != nil {
		return fmt.Errorf("save selector: %w", err)
	}
	if p.sel, err = selection.Load(path); err != nil {
		return fmt.Errorf("load selector: %w", err)
	}
	for _, probe := range []func() error{
		p.probeExecAndEstimators, p.probeMonitor, p.probeEngine,
		p.probeFronts, p.probeIngest, p.probeFeedback,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	p.putQualityContext()
	return nil
}

// probeSetupLayers times what set-up pays once: datagen, optimizer
// statistics, cold planning and decomposition.
func (p *prober) probeSetupLayers() error {
	spec := servingSpec()
	start := time.Now()
	db := datagen.Generate(spec.Kind, datagen.Params{Scale: spec.Scale, Zipf: spec.Zipf, Seed: spec.Seed})
	p.rep.put("datagen.generate_ms", float64(time.Since(start))/1e6, 1)
	if err := db.ApplyDesign(datagen.Designs(spec.Kind)[spec.Design]); err != nil {
		return err
	}
	start = time.Now()
	stats := optimizer.BuildStats(db)
	p.rep.put("optimizer.build_stats_ms", float64(time.Since(start))/1e6, 1)

	var err error
	if p.w, err = workload.Build(spec); err != nil {
		return err
	}
	cold := optimizer.NewPlanner(db, stats)
	var planUS, decomposeUS []float64
	for i, q := range p.w.Queries {
		start = time.Now()
		pl, err := cold.Plan(q)
		planUS = append(planUS, micros(time.Since(start)))
		if err != nil {
			return fmt.Errorf("plan query %d: %w", i, err)
		}
		start = time.Now()
		pipeline.Decompose(pl)
		decomposeUS = append(decomposeUS, micros(time.Since(start)))
		// The plans the other probes execute belong to the database they
		// run on.
		if pl, err = p.w.Planner.Plan(q); err != nil {
			return err
		}
		p.plan = append(p.plan, planned{plan: pl, pipes: pipeline.Decompose(pl)})
	}
	p.rep.put("optimizer.plan_us", median(planUS), len(planUS))
	p.rep.put("pipeline.decompose_us", median(decomposeUS), len(decomposeUS))
	return nil
}

// estimatorProbe is an OnlineView that, after every delivered batch,
// times the calls the monitor makes on it.
type estimatorProbe struct {
	*progress.OnlineView
	sel                      *selection.Selector
	estimate, features, pick []float64 // ns per call
}

func (ep *estimatorProbe) OnSnapshot(s exec.Snapshot) { ep.OnSnapshots([]exec.Snapshot{s}) }

func (ep *estimatorProbe) OnSnapshots(batch []exec.Snapshot) {
	ep.OnlineView.OnSnapshots(batch)
	dne := func(int) progress.Kind { return progress.DNE }
	const reps = 8 // amortise the clock reads over a ~100 ns call
	ep.estimate = append(ep.estimate, timeLoop(reps, func() { ep.QueryEstimate(dne) }))
	for _, pl := range ep.Pipelines {
		if !pl.Started || pl.Ended {
			continue
		}
		ep.features = append(ep.features, timeLoop(reps, func() { features.OnlineFull(pl) }))
		ep.pick = append(ep.pick, timeLoop(reps, func() { ep.sel.PickOnline(pl) }))
	}
}

// probeExecAndEstimators times the executor bare, then replays its traces
// into a bare OnlineView for the estimator advance and, through
// estimatorProbe, the per-update calls.
func (p *prober) probeExecAndEstimators() error {
	var runUS, perSnap, snaps, advance []float64
	ep := &estimatorProbe{sel: p.sel}
	for round := 0; round < probeRounds; round++ {
		for _, q := range p.plan {
			start := time.Now()
			tr := exec.RunDecomposed(p.w.DB, q.plan, q.pipes, exec.Options{})
			d := time.Since(start)
			n := max(len(tr.Snapshots), 1)
			runUS = append(runUS, micros(d))
			snaps = append(snaps, float64(len(tr.Snapshots)))
			perSnap = append(perSnap, float64(d)/float64(n))

			view := progress.NewOnlineView(q.plan, q.pipes)
			view.Reserve = exec.DefaultTargetObservations + 1
			start = time.Now()
			exec.Replay(tr, view, updateEvery)
			advance = append(advance, float64(time.Since(start))/float64(n))

			ep.OnlineView = progress.NewOnlineView(q.plan, q.pipes)
			exec.Replay(tr, ep, updateEvery)
		}
	}
	p.rep.put("exec.run_us", median(runUS), len(runUS))
	p.rep.put("exec.snapshots_per_query", median(snaps), len(snaps))
	p.rep.put("exec.ns_per_snapshot", median(perSnap), len(perSnap))
	p.rep.put("progress.advance_ns_per_snapshot", median(advance), len(advance))
	p.rep.put("progress.query_estimate_ns", median(ep.estimate), len(ep.estimate))
	p.rep.put("features.online_full_ns", median(ep.features), len(ep.features))
	p.rep.put("selection.pick_online_us", median(ep.pick)/1e3, len(ep.pick))

	x := p.e.corpus[0].Features
	model := p.sel.Models[progress.DNE]
	const predicts = 20000
	p.rep.put("mart.predict_ns", timeLoop(predicts, func() { model.Predict(x) }), predicts)
	p.rep.put("selection.train_ms", p.e.trainMS, 1)
	p.rep.put("mart.train_ms_per_model", p.e.trainMS/float64(len(p.sel.Kinds)), len(p.sel.Kinds))
	return nil
}

// follow drains a monitor's updates and waits for the run.
func follow(m *progressest.Monitor) (final progressest.ProgressUpdate, err error) {
	for u := range m.Updates {
		final = u
	}
	_, err = m.Wait()
	return final, err
}

// probeMonitor times Workload.Start to done, and what one query
// allocates on that path.
func (p *prober) probeMonitor() error {
	opts := progressest.MonitorOptions{Selector: p.e.selector}
	var startUS, doneUS, updates []float64
	pass := func(record bool) error {
		for i := 0; i < p.e.serving.NumQueries(); i++ {
			t0 := time.Now()
			m, err := p.e.serving.Start(i, opts)
			if err != nil {
				return err
			}
			t1 := time.Now()
			final, err := follow(m)
			if err != nil {
				return err
			}
			if record {
				startUS = append(startUS, micros(t1.Sub(t0)))
				doneUS = append(doneUS, micros(time.Since(t0)))
				updates = append(updates, float64(final.Seq+1))
			}
		}
		return nil
	}
	for round := 0; round < probeRounds; round++ {
		if err := pass(true); err != nil {
			return err
		}
	}
	before := readMem()
	if err := pass(false); err != nil {
		return err
	}
	mem := memSince(before)
	n := p.e.serving.NumQueries()
	p.rep.put("monitor.start_us", median(startUS), len(startUS))
	p.rep.put("monitor.start_to_done_us", median(doneUS), len(doneUS))
	p.rep.put("monitor.updates_per_query", median(updates), len(updates))
	p.rep.put("monitor.allocs_per_query", float64(mem.mallocs)/float64(n), n)
	p.rep.put("monitor.kb_per_query", float64(mem.bytes)/1024/float64(n), n)
	return nil
}

// probeEngine times Engine.Start, the gate's uncontended admit/release
// and the fair queue's enqueue/dispatch pair.
func (p *prober) probeEngine() error {
	eng := progressest.NewEngine(p.e.serving, servingEngineConfig(), progressest.MonitorOptions{Selector: p.e.selector})
	var startUS []float64
	for round := 0; round < probeRounds; round++ {
		for i := 0; i < p.e.serving.NumQueries(); i++ {
			t0 := time.Now()
			m, err := eng.Start(context.Background(), i)
			if err != nil {
				return err
			}
			startUS = append(startUS, micros(time.Since(t0)))
			if _, err := follow(m); err != nil {
				return err
			}
		}
	}
	if err := drain(eng.Drain); err != nil {
		return err
	}
	p.rep.put("engine.start_us", median(startUS), len(startUS))

	const admits = 20000
	gate := engine.NewGate(engine.Config{Shards: 2, MaxLivePerShard: 64, QueueDepth: 64})
	var admitErr error
	ns := timeLoop(admits, func() {
		slot, err := gate.AdmitClass(context.Background(), "lineitem")
		if err != nil {
			admitErr = err
			return
		}
		slot.Release()
	})
	if admitErr != nil {
		return fmt.Errorf("gate admit: %w", admitErr)
	}
	p.rep.put("engine.gate_admit_ns", ns, admits)

	sched := qos.New(qos.Options{Weights: map[string]int{"lineitem": 3}, TotalDepth: 64})
	classes := [2]*qos.Class{sched.Lookup("lineitem"), sched.Lookup("customer")}
	var waiters [8]*qos.Waiter
	for i := range waiters {
		waiters[i] = qos.NewWaiter()
	}
	at := time.Now()
	i := 0
	var queueErr error
	ns = timeLoop(admits, func() {
		if err := sched.Enqueue(classes[i%2], waiters[i%len(waiters)], at); err != nil {
			queueErr = err
		}
		sched.Next(at)
		i++
	})
	if queueErr != nil {
		return fmt.Errorf("qos enqueue: %w", queueErr)
	}
	p.rep.put("qos.enqueue_next_ns", ns, admits)
	return nil
}

// recorderCaller drives Server.ServeHTTP directly, with a response
// recorder in place of the socket.
func recorderCaller(srv *progressest.Server, seed int64) *caller {
	return newCaller("http://bench.invalid", roundTripFunc(func(r *http.Request) (*http.Response, error) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		return rec.Result(), nil
	}), seed, 0, nil)
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// opMicros runs op once per serving query, probeRounds times, and
// returns each duration.
func opMicros(n int, op func(i int) error) ([]float64, error) {
	var out []float64
	for round := 0; round < probeRounds; round++ {
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := op(i); err != nil {
				return nil, err
			}
			out = append(out, micros(time.Since(start)))
		}
	}
	return out, nil
}

// httpDepths are both fronts' operations timed through the daemon: over
// the socket, and through Server.ServeHTTP with a recorder.
type httpDepths struct {
	socketNative, socketSession []float64
	recNative, recSession       []float64
}

// belowBoundOps is how many operations of each front the probe daemon
// serves before its first traced pass: enough to fill every plan cache,
// few enough that neither retention bound (1024 queries, 256 sessions) is
// reached and no submit or open has anything to evict.
const belowBoundOps = 160

// probeHTTP drives a fresh daemon with one traced caller twice: below the
// retention bounds, then past them as the workloads' own warm-up leaves
// it. The handler spans of the two passes differ by what a submit and an
// open pay for scanning the retained entries.
func (p *prober) probeHTTP() (h httpDepths, err error) {
	e, tr := p.e, p.cfg.tr
	eng := progressest.NewEngine(e.serving, servingEngineConfig(), progressest.MonitorOptions{Selector: e.selector})
	d := startDaemon(eng, tr)
	defer func() {
		if stopErr := d.stop(); stopErr != nil && err == nil {
			err = stopErr
		}
	}()
	bodies := submitBodies(e.serving.NumQueries())
	fin := &finals{first: make(map[int]*progressest.ProgressUpdate)}
	nativeOp := func(c *caller, id int64) error { return c.nativeOp(bodies, id) }
	sessionOp := func(c *caller, id int64) error { return c.sessionOp(e.sessions, fin, id) }
	n := e.serving.NumQueries()

	warm := newCallers(d, e.clients, p.cfg.seed, nil)
	defer closeCallers(warm)
	warmUp := func(native, session int) error {
		for _, w := range []loopResult{closedLoop(warm, 0, native, nativeOp), closedLoop(warm, 0, session, sessionOp)} {
			if w.firstErr != nil {
				return fmt.Errorf("probe warm-up: %w", w.firstErr)
			}
		}
		return nil
	}
	// socketPass is depth 0: one caller, client and handler spans on.
	socketPass := func() (native, session []float64, spans []span, err error) {
		first := tr.len()
		tr.on.Store(true)
		defer tr.on.Store(false)
		sock := newCallers(d, 1, p.cfg.seed, tr)
		defer closeCallers(sock)
		if native, err = opMicros(n, func(int) error { return sock[0].nativeOp(bodies, opIDs.Add(1)) }); err != nil {
			return nil, nil, nil, err
		}
		if session, err = opMicros(n, func(int) error { return sock[0].sessionOp(e.sessions, fin, opIDs.Add(1)) }); err != nil {
			return nil, nil, nil, err
		}
		return native, session, tr.snapshot()[first:], nil
	}

	if err := warmUp(belowBoundOps, belowBoundOps/2); err != nil {
		return h, err
	}
	_, _, spans, err := socketPass()
	if err != nil {
		return h, err
	}
	below := handlerSpans(spans)
	p.rep.put("server.submit_below_bound_us", median(below["server.submit"]), len(below["server.submit"]))
	p.rep.put("server.session_open_below_bound_us", median(below["server.session_open"]), len(below["server.session_open"]))

	if err := warmUp(nativeWarmOps, sessionWarmOps); err != nil {
		return h, err
	}
	if h.socketNative, h.socketSession, spans, err = socketPass(); err != nil {
		return h, err
	}
	steady := handlerSpans(spans)
	for metric, name := range map[string]string{
		"server.submit_us":        "server.submit",
		"server.read_us":          "server.read",
		"server.session_open_us":  "server.session_open",
		"server.observe_us":       "server.observe",
		"server.http_overhead_us": "overhead",
	} {
		p.rep.put(metric, median(steady[name]), len(steady[name]))
	}

	// Depth 1, Server.ServeHTTP with a recorder.
	rec := recorderCaller(d.srv, p.cfg.seed)
	if h.recNative, err = opMicros(n, func(int) error { return rec.nativeOp(bodies, 0) }); err != nil {
		return h, err
	}
	h.recSession, err = opMicros(n, func(int) error { return rec.sessionOp(e.sessions, fin, 0) })
	return h, err
}

// handlerSpans groups the durations (us) of the Server.ServeHTTP spans by
// name; "overhead" is the socket's own share of each round trip, the
// client span minus the handler span it caused.
func handlerSpans(spans []span) map[string][]float64 {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		parent, ok := byID[s.Parent]
		if !ok || !strings.HasPrefix(s.Name, "server.") {
			continue
		}
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e3)
		out["overhead"] = append(out["overhead"], float64(parent.dur()-s.dur())/1e3)
	}
	return out
}

// probeFronts peels both HTTP fronts: the same operation timed at each
// successive depth, from the socket down to the executor (native) or the
// wire decoder (sessions).
func (p *prober) probeFronts() error {
	e := p.e
	opts := progressest.MonitorOptions{Selector: e.selector}
	n := e.serving.NumQueries()
	h, err := p.probeHTTP()
	if err != nil {
		return err
	}

	// Native depths 2..5.
	eng := progressest.NewEngine(e.serving, servingEngineConfig(), opts)
	engineUS, err := opMicros(n, func(i int) error {
		m, err := eng.Start(context.Background(), i)
		if err != nil {
			return err
		}
		_, err = follow(m)
		return err
	})
	if err != nil {
		return err
	}
	if err := drain(eng.Drain); err != nil {
		return err
	}
	monitorUS, err := opMicros(n, func(i int) error {
		m, err := e.serving.Start(i, opts)
		if err != nil {
			return err
		}
		_, err = follow(m)
		return err
	})
	if err != nil {
		return err
	}
	viewUS, _ := opMicros(n, func(i int) error {
		q := p.plan[i]
		view := progress.NewOnlineView(q.plan, q.pipes)
		view.Reserve = exec.DefaultTargetObservations + 1
		exec.RunDecomposed(p.w.DB, q.plan, q.pipes, exec.Options{Observer: view, SnapshotBatch: updateEvery})
		return nil
	})
	execUS, _ := opMicros(n, func(i int) error {
		exec.RunDecomposed(p.w.DB, p.plan[i].plan, p.plan[i].pipes, exec.Options{})
		return nil
	})
	p.putBudget("native", []depth{
		{"http", "socket: POST /queries + GET progress until done", h.socketNative},
		{"server", "Server.ServeHTTP, same requests, recorder", h.recNative},
		{"engine", "Engine.Start -> done", engineUS},
		{"monitor", "Workload.Start -> done", monitorUS},
		{"progress", "exec.RunDecomposed with an OnlineView observer", viewUS},
		{"exec", "exec.RunDecomposed bare", execUS},
	})

	// Session depths 2..4: the ingest path with the estimators attached,
	// with a no-op observer, and the wire decode alone.
	ingestUS := func(observer func(m *ingest.Model) exec.Observer) ([]float64, error) {
		return opMicros(n, func(i int) error {
			in := &e.sessions[i]
			spec, err := ingest.DecodeSpec(bytes.NewReader(in.spec))
			if err != nil {
				return err
			}
			model, err := ingest.Build(spec)
			if err != nil {
				return err
			}
			runner := ingest.NewRunner(model, observer(model), updateEvery, 0)
			for _, wire := range in.batches {
				b, err := ingest.DecodeBatch(wire)
				if err != nil {
					return err
				}
				if err := runner.Apply(b); err != nil {
					return err
				}
				if b.Done {
					if _, err := runner.Finish(b.Ends); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	applyViewUS, err := ingestUS(func(m *ingest.Model) exec.Observer {
		view := progress.NewOnlineView(m.Plan, m.Pipes)
		view.Reserve = exec.DefaultTargetObservations + 1
		return view
	})
	if err != nil {
		return err
	}
	applyBareUS, err := ingestUS(func(*ingest.Model) exec.Observer { return exec.BaseObserver{} })
	if err != nil {
		return err
	}
	decodeUS, err := opMicros(n, func(i int) error {
		in := &e.sessions[i]
		if _, err := ingest.DecodeSpec(bytes.NewReader(in.spec)); err != nil {
			return err
		}
		for _, wire := range in.batches {
			if _, err := ingest.DecodeBatch(wire); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.putBudget("session", []depth{
		{"http", "socket: POST /sessions + per batch POST, GET", h.socketSession},
		{"server", "Server.ServeHTTP, same requests, recorder", h.recSession},
		{"progress", "DecodeSpec+Build+DecodeBatch+Apply into an OnlineView", applyViewUS},
		{"ingest_apply", "the same into a no-op observer", applyBareUS},
		{"ingest_decode", "DecodeSpec + DecodeBatch alone", decodeUS},
	})
	return nil
}

// putBudget reports one peeled budget: its rows as budget.<front>.* and
// the table itself for the printout and the trace file.
func (p *prober) putBudget(front string, levels []depth) {
	rows := peelBudget(levels)
	p.rep.Budgets[front] = rows
	p.rep.put("budget."+front+".op_us", rows[0].SpanUS, len(levels[0].us))
	for i, row := range rows {
		p.rep.put("budget."+front+"."+row.Layer+"_us", row.SelfUS, len(levels[i].us))
	}
}

// probeIngest times the ingest layer's calls one by one.
func (p *prober) probeIngest() error {
	var decodeSpec, build, decodeBatch, batchBytes, apply, finish, snaps []float64
	for i := range p.e.sessions {
		in := &p.e.sessions[i]
		t := time.Now()
		spec, err := ingest.DecodeSpec(bytes.NewReader(in.spec))
		decodeSpec = append(decodeSpec, micros(time.Since(t)))
		if err != nil {
			return err
		}
		t = time.Now()
		model, err := ingest.Build(spec)
		build = append(build, micros(time.Since(t)))
		if err != nil {
			return err
		}
		view := progress.NewOnlineView(model.Plan, model.Pipes)
		view.Reserve = exec.DefaultTargetObservations + 1
		runner := ingest.NewRunner(model, view, updateEvery, 0)
		for _, wire := range in.batches {
			t = time.Now()
			b, err := ingest.DecodeBatch(wire)
			decodeBatch = append(decodeBatch, micros(time.Since(t)))
			if err != nil {
				return err
			}
			batchBytes = append(batchBytes, float64(len(wire)))
			t = time.Now()
			err = runner.Apply(b)
			apply = append(apply, micros(time.Since(t)))
			if err != nil {
				return err
			}
			if b.Done {
				t = time.Now()
				_, err := runner.Finish(b.Ends)
				finish = append(finish, micros(time.Since(t)))
				if err != nil {
					return err
				}
			}
		}
		snaps = append(snaps, float64(in.snapshots))
	}
	p.rep.put("ingest.decode_spec_us", median(decodeSpec), len(decodeSpec))
	p.rep.put("ingest.build_us", median(build), len(build))
	p.rep.put("ingest.decode_batch_us", median(decodeBatch), len(decodeBatch))
	p.rep.put("ingest.batch_bytes", median(batchBytes), len(batchBytes))
	p.rep.put("ingest.apply_us", median(apply), len(apply))
	p.rep.put("ingest.finish_us", median(finish), len(finish))
	p.rep.put("ingest.snapshots_per_session", median(snaps), len(snaps))
	// The number that decides whether the session wire needs a binary
	// encoding: the JSON decode's share of one batch's handler time.
	if observe := p.rep.Metrics["server.observe_us"].Value; observe > 0 {
		p.rep.put("ingest.json_share", median(decodeBatch)/observe, len(decodeBatch))
	} else {
		p.rep.put("ingest.json_share", 0, 0)
	}
	return nil
}

// probeFeedback times the corpus store at the seed corpus' scale and the
// harvest of one finished trace.
func (p *prober) probeFeedback() error {
	dir := filepath.Join(p.cfg.dir, "probe-corpus")
	opts := feedback.StoreOptions{MaxSegmentBytes: corpusSegmentBytes, MaxExamples: -1}
	s, err := feedback.OpenStore(dir, opts)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := s.AppendAll(p.e.corpus); err != nil {
		s.Close()
		return err
	}
	p.rep.put("feedback.append_us_per_example", micros(time.Since(start))/float64(len(p.e.corpus)), len(p.e.corpus))
	if err := s.Close(); err != nil {
		return err
	}

	start = time.Now()
	if s, err = feedback.OpenStore(dir, opts); err != nil {
		return err
	}
	defer s.Close()
	p.rep.put("feedback.open_store_ms", float64(time.Since(start))/1e6, 1)
	start = time.Now()
	if _, err := s.Snapshot(); err != nil {
		return err
	}
	p.rep.put("feedback.snapshot_cold_ms", float64(time.Since(start))/1e6, 1)
	const repeats = 5
	var warm, family []float64
	for i := 0; i < repeats; i++ {
		start = time.Now()
		if _, err := s.Snapshot(); err != nil {
			return err
		}
		warm = append(warm, float64(time.Since(start))/1e6)
		start = time.Now()
		if _, err := s.SnapshotFamily("lineitem"); err != nil {
			return err
		}
		family = append(family, float64(time.Since(start))/1e6)
	}
	p.rep.put("feedback.snapshot_warm_ms", median(warm), repeats)
	p.rep.put("feedback.snapshot_family_ms", median(family), repeats)

	harvester := feedback.NewHarvester(s, 0, nil, nil)
	var labelUS, harvestUS []float64
	for i := range p.e.sessions {
		in := &p.e.sessions[i]
		family := p.e.serving.QueryFamily(in.query)
		start = time.Now()
		workload.HarvestTrace(in.trace, "bench", family, in.query, 0)
		labelUS = append(labelUS, micros(time.Since(start)))
		start = time.Now()
		if _, err := harvester.HarvestTrace(in.trace, "bench", family, in.query); err != nil {
			return err
		}
		harvestUS = append(harvestUS, micros(time.Since(start)))
	}
	p.rep.put("workload.harvest_trace_us", median(labelUS), len(labelUS))
	p.rep.put("feedback.harvest_trace_us", median(harvestUS), len(harvestUS))

	st := s.Stats()
	p.rep.put("feedback.segments", float64(st.Segments), 0)
	p.rep.put("feedback.examples", float64(st.Examples), 0)
	ratio := 0.0
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		ratio = float64(st.CacheHits) / float64(lookups)
	}
	p.rep.put("feedback.cache_hit_ratio", ratio, int(st.CacheHits+st.CacheMisses))
	return nil
}

// putQualityContext reports the numbers selector_l1 and selector_regret
// are read against.
func (p *prober) putQualityContext() {
	q := p.e.quality
	n := len(p.e.holdout)
	for k, l1 := range q.fixedL1 {
		p.rep.put("progress.l1."+k.String(), l1, n)
	}
	p.rep.put("selection.oracle_l1", q.oracleL1, n)
	p.rep.put("selection.best_fixed_l1", q.fixedL1[q.bestFixed], n)
	p.rep.put("selection.picked_optimal_share", q.pickedOptimal, n)
}
