// Command progressd is the progress-estimation daemon: it builds a
// workload (database + parameterised queries), optionally loads a trained
// selection model, and serves live query monitoring over HTTP. The
// serving core is a sharded engine — one workload behind one admission
// gate with a bounded queue and least-loaded dispatch over a fixed pool
// of -shards shards, each a bucket of -max-live admission slots, so
// -shards × -max-live is the concurrency cap — and submitted queries
// execute concurrently up to that cap while their streaming progress
// estimates (per pipeline and combined per eq. 5 of the paper) are
// polled as JSON. GET /engine/stats reports each shard's live and
// lifetime admission counters.
//
// Admission is QoS-aware. -qos-weights assigns weighted-fair-queueing
// weights to workload families ("tpch=9,tpcds=1"): queued submissions
// are scheduled per admission class — the query's family, refined to
// family|client when the submission body carries a "client" tag — so
// under saturation every class converges to at least its weight share
// of the admissions instead of one hot family (or client) starving the
// rest. Per-class windowed queue-wait and admission-to-done percentiles
// (p50/p90/p99) are exported in GET /engine/stats.
// -deadline-admission sheds a submission whose "deadline_ms" cannot
// cover the predicted queue wait immediately (429, reason
// "deadline_shed") instead of letting it queue to die; rejected
// submissions carry a Retry-After header derived from observed waits.
//
// With -learn the daemon closes the paper's training loop on its own
// traffic: every finished query is harvested into an on-disk corpus
// (tagged with its workload family), a background retrainer periodically
// fits a fresh selection model on it — one model serves every query, as
// in the paper — and versions that pass the retrain-quality gate are
// hot-swapped into serving without dropping a progress request. Accepted
// versions are persisted next to the corpus, so a restarted daemon
// resumes from its last trained model. -model (or an earlier corpus)
// seeds the loop.
//
// Endpoints:
//
//	POST /queries                {"query": i}  start workload query i
//	GET  /queries                              list submitted queries
//	GET  /queries/{id}/progress                freshest progress update
//	GET  /engine/stats                         shard pool, queue + QoS state
//	GET  /healthz                              liveness probe
//	GET  /models                               corpus + model versions + drift (-learn)
//	GET  /models/drift                         observed-vs-predicted standing (-learn)
//	POST /models/retrain                       train + gate + hot-swap (-learn)
//	POST /models/rollback                      revert to previous (-learn)
//	POST   /sessions                           open an external estimation session
//	POST   /sessions/{id}/observations         stream counter observations
//	GET    /sessions/{id}/progress             freshest session progress update
//	GET    /sessions                           list sessions
//	DELETE /sessions/{id}                      abort an open session
//
// The session endpoints serve progress estimation to queries executing
// on EXTERNAL engines: the engine opens a session with its plan shape,
// streams monotone counter observations, and reads the same progress
// stream native queries get; on completion the run is harvested into the
// -learn corpus under the session's family, joining retraining and
// drift monitoring. Sessions admit through the same QoS gate as native
// submissions; -ingest-ttl expires sessions that stop streaming, and
// -ingest-max-sessions bounds the concurrently open ones.
//
// Usage:
//
//	progressd [-addr :8080] [-workload tpch|tpcds|real1|real2]
//	          [-design 0|1|2] [-queries N] [-scale F] [-zipf F] [-seed N]
//	          [-shards N] [-queue-depth N] [-max-live N]
//	          [-qos-weights fam=w,...] [-class-queue-depth N]
//	          [-deadline-admission]
//	          [-every N] [-pace D] [-model selector.json]
//	          [-learn corpus/] [-retrain-after N] [-retrain-every D]
//	          [-gate-tolerance F] [-no-gate]
//	          [-drift-ratio F] [-drift-window N] [-no-drift-retrain]
//	          [-family-quota N]
//	          [-canary-window N] [-canary-max-age D] [-drift-reject-limit N]
//	          [-pprof addr]
//
// -pprof serves the net/http/pprof profiling endpoints on a separate
// listener (for example -pprof localhost:6060 exposes
// /debug/pprof/profile, /debug/pprof/heap, ...), so the zero-alloc
// observation hot path can be profiled in a running daemon under real
// load. Off by default; bind it to localhost in production.
//
// -gate-tolerance is the quality gate's accepted relative holdout-L1
// regression (0 means strict: a candidate must not be worse than the
// serving model beyond a 0.01 absolute slack); -no-gate hot-swaps every
// retrain unconditionally.
//
// With -learn the daemon also monitors model drift: it joins each served
// query's pinned model version with the estimator errors later harvested
// for that query, and once the windowed observed error exceeds the
// version's holdout baseline by -drift-ratio (plus a 0.01 absolute
// slack), the model is retrained with trigger "drift" — unless
// -no-drift-retrain leaves the decision to the operator. GET
// /models/drift exposes the serving version's standing and the
// retrainer's decision history.
//
// The corpus is seg-*.log files only; open keeps a record count and
// per-family counts for each segment, and a retrain reads the whole
// corpus once (that read is a sliver of the fit). Every background poll
// takes one corpus snapshot and fits the model at most once, whether the
// size/age policy or a drift verdict asked for it.
// Every selector fit bins its matrix once and fits the candidate estimators' models on
// min(GOMAXPROCS, candidates) goroutines; there is no knob.
//
// -family-quota protects sparse workload families from burst traffic:
// retention and compaction keep at least N examples of every tagged
// family on disk, and every background retrainer poll first compacts the
// corpus, rewriting sealed segments and downsampling the largest (family,
// plan signature) groups first, so one hot family's flood cannot evict a
// rarer family's examples from the training corpus.
//
// -canary-window gates hot-swaps on live evidence: a background-retrained
// model that passes the holdout gate first shadow-scores on N live
// queries against the serving champion and only swaps in if its observed
// error holds up (pending challengers are visible in GET /models as
// "canaries"; -canary-max-age bounds the wait). -drift-reject-limit is
// the auto-rollback breaker: after N consecutive rejected drift retrains
// of a still-drifting model, the serving version itself is rolled back,
// exactly as POST /models/rollback would.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it stops accepting
// connections, fails queued admissions instead of stranding them, drains
// in-flight queries (bounded by -drain-timeout) so their traces still
// land in the corpus, then stops the retrainer and syncs the corpus.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux (served only with -pprof)
	"os"
	"os/signal"
	"syscall"
	"time"

	"progressest"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	wl := flag.String("workload", "tpch", "workload family: tpch, tpcds, real1, real2")
	design := flag.Int("design", 1, "physical design: 0=untuned, 1=partial, 2=full")
	queries := flag.Int("queries", 100, "number of queries to generate")
	scale := flag.Float64("scale", 0.15, "database scale")
	zipf := flag.Float64("zipf", 1, "data skew factor z")
	seed := flag.Int64("seed", 1, "random seed")
	shards := flag.Int("shards", 1, "shards in the pool: buckets of -max-live admission slots, so the concurrency cap is shards × max-live")
	queueDepth := flag.Int("queue-depth", 64, "admissions queued once all shards are at capacity (0 = reject immediately)")
	maxLive := flag.Int("max-live", 64, "concurrent queries per shard")
	qosWeights := flag.String("qos-weights", "", "fair-queueing weights per workload family, e.g. tpch=9,tpcds=1 (unlisted classes weigh 1)")
	classQueueDepth := flag.Int("class-queue-depth", 0, "one admission class's share of the queue (default: -queue-depth, no per-class tightening)")
	deadlineAdmission := flag.Bool("deadline-admission", false, "shed submissions whose deadline_ms cannot cover the predicted queue wait instead of queueing them")
	every := flag.Int("every", 8, "record a progress update every N counter snapshots")
	pace := flag.Duration("pace", 0, "pace execution: sleep per progress update (0 = full speed)")
	model := flag.String("model", "", "optional trained selector (see cmd/trainsel)")
	learn := flag.String("learn", "", "corpus directory: harvest finished queries and retrain continuously")
	retrainAfter := flag.Int("retrain-after", 256, "retrain once the corpus grew by this many examples")
	retrainEvery := flag.Duration("retrain-every", time.Minute, "minimum interval between automatic retrains")
	gateTolerance := flag.Float64("gate-tolerance", 0.25, "retrain-quality gate: accepted relative holdout-L1 regression (0 = strict)")
	noGate := flag.Bool("no-gate", false, "disable the retrain-quality gate (every retrain hot-swaps)")
	driftRatio := flag.Float64("drift-ratio", 1.5, "drift monitor: the serving model drifts once its observed serving L1 exceeds baseline*ratio + 0.01")
	driftWindow := flag.Int("drift-window", 256, "drift monitor: observed errors kept per serving version")
	noDriftRetrain := flag.Bool("no-drift-retrain", false, "track drift but never auto-retrain on it (operator decides)")
	familyQuota := flag.Int("family-quota", 0, "per-family corpus retention floor: keep at least N examples of every tagged family through retention and compaction (0 = off)")
	canaryWindow := flag.Int("canary-window", 0, "champion/challenger confirmation: shadow-score retrained models on N live queries before hot-swap (0 = swap immediately)")
	canaryMaxAge := flag.Duration("canary-max-age", 5*time.Minute, "reject a challenger that cannot fill its confirmation window within this long")
	driftRejectLimit := flag.Int("drift-reject-limit", 3, "auto-rollback after N consecutive rejected drift retrains of a still-drifting model (0 = off)")
	trees := flag.Int("trees", 200, "MART boosting iterations for retrained models")
	ingestTTL := flag.Duration("ingest-ttl", 2*time.Minute, "expire external estimation sessions that ingested nothing for this long (negative = never)")
	ingestMaxSessions := flag.Int("ingest-max-sessions", 256, "concurrently open external estimation sessions")
	ingestMaxObs := flag.Int("ingest-max-obs", 0, "counter snapshots one session may ingest (0 = default 65536)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown deadline for in-flight queries")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	flag.Parse()

	datasets := map[string]progressest.Dataset{
		"tpch": progressest.TPCH, "tpcds": progressest.TPCDS,
		"real1": progressest.Real1, "real2": progressest.Real2,
	}
	dataset, ok := datasets[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(2)
	}
	weights, err := progressest.ParseQoSWeights(*qosWeights)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-qos-weights: %v\n", err)
		os.Exit(2)
	}

	log.Printf("building %s workload (%d queries, scale %g, zipf %g, design %d)...",
		*wl, *queries, *scale, *zipf, *design)
	w, err := progressest.Open(progressest.Config{
		Dataset: dataset,
		Queries: *queries,
		Scale:   *scale,
		Zipf:    *zipf,
		Design:  progressest.Design(*design),
		Seed:    *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	opts := progressest.MonitorOptions{UpdateEvery: *every, Pace: *pace}
	var sel *progressest.Selector
	if *model != "" {
		sel, err = progressest.LoadSelector(*model)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded selection model from %s", *model)
	}

	var learning *progressest.Learning
	if *learn != "" {
		// An explicit -gate-tolerance 0 means STRICT, which the config
		// encodes as negative (its zero value selects the default).
		gt := *gateTolerance
		if gt == 0 {
			gt = -1
		}
		// Same convention for -drift-reject-limit 0 (no auto-rollback
		// breaker): explicit zero means OFF, which the config encodes as
		// negative.
		drl := *driftRejectLimit
		if drl <= 0 {
			drl = -1
		}
		learning, err = progressest.OpenLearning(progressest.LearningConfig{
			Dir:                 *learn,
			Selector:            progressest.SelectorConfig{Trees: *trees, Seed: *seed},
			MinNewExamples:      *retrainAfter,
			MinInterval:         *retrainEvery,
			SeedSelector:        sel,
			GateTolerance:       gt,
			DisableGate:         *noGate,
			DriftRatio:          *driftRatio,
			DriftWindow:         *driftWindow,
			DisableDriftRetrain: *noDriftRetrain,
			FamilyQuota:         *familyQuota,
			CanaryWindow:        *canaryWindow,
			CanaryMaxAge:        *canaryMaxAge,
			DriftRejectLimit:    drl,
		})
		if err != nil {
			log.Fatal(err)
		}
		opts.Learning = learning
		log.Printf("continuous learning on: corpus %s (%d examples), retrain after %d new examples / %s",
			*learn, learning.CorpusSize(), *retrainAfter, *retrainEvery)
		if cur, ok := learning.Current(); ok {
			log.Printf("serving model v%d (source %s)", cur.ID, cur.Source)
		}
	} else {
		// Without learning the explicit model (if any) serves statically.
		opts.Selector = sel
	}

	if *pprofAddr != "" {
		// The profiling endpoints live on their own listener (the default
		// mux, which the pprof import registers on), so enabling them never
		// widens the serving API's exposure.
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	eng := progressest.NewEngine(w, progressest.EngineConfig{
		Shards:            *shards,
		MaxLivePerShard:   *maxLive,
		QueueDepth:        *queueDepth,
		QoSWeights:        weights,
		ClassQueueDepth:   *classQueueDepth,
		DeadlineAdmission: *deadlineAdmission,
	}, opts)
	server := progressest.NewEngineServer(eng)
	server.SetSessionConfig(progressest.SessionConfig{
		TTL:             *ingestTTL,
		MaxSessions:     *ingestMaxSessions,
		MaxObservations: *ingestMaxObs,
	})
	defer server.Close()
	httpSrv := &http.Server{Addr: *addr, Handler: server}

	errCh := make(chan error, 1)
	go func() {
		qos := ""
		if len(weights) > 0 {
			qos = fmt.Sprintf(", qos weights %v", weights)
		}
		if *deadlineAdmission {
			qos += ", deadline admission"
		}
		log.Printf("progressd listening on %s (%d queries ready, %d shard(s) × %d live, queue %d%s)",
			*addr, w.NumQueries(), eng.NumShards(), *maxLive, *queueDepth, qos)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("received %v; shutting down...", sig)
	case err := <-errCh:
		if learning != nil {
			learning.Close()
		}
		log.Fatal(err)
	}

	// Graceful shutdown: drain the engine CONCURRENTLY with the HTTP
	// shutdown — Drain's first act is failing every queued admission, and
	// those waiters are blocked HTTP handlers http.Server.Shutdown would
	// otherwise wait out for the whole deadline, leaving no budget for
	// the in-flight queries. With both running, queued submissions 503
	// immediately, Shutdown finishes the unblocked exchanges, executing
	// queries drain so their traces still reach the corpus, and only then
	// the retrainer stops and the corpus syncs.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- server.Drain(ctx) }()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := <-drained; err != nil {
		log.Printf("drain: %v", err)
	}
	if learning != nil {
		// Shutdown honors the remaining deadline: an in-flight training
		// run past it is abandoned rather than stalling the exit.
		if err := learning.Shutdown(ctx); err != nil {
			log.Printf("learning shutdown: %v", err)
		}
		log.Printf("corpus synced (%d examples)", learning.CorpusSize())
	}
	log.Printf("progressd stopped")
}
