package progressest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"progressest/internal/engine"
	"progressest/internal/ingest"
)

// Server exposes live progress estimation over HTTP — the daemon core of
// cmd/progressd. It fronts a sharded Engine and keeps one kind of record,
// the tracked run: a query executing in process, or an external engine's
// session streaming its counters in. Both admit through the same QoS
// gate (waiting in its bounded fair queue when every shard is at
// capacity), hold their slot until they end, drive the same estimators,
// harvest into the same corpus, and live in the same state machine —
// open → completed | aborted | expired. The two resource trees differ
// only in the counter source their POST attaches; list and progress are
// one handler each, answering one wire shape (runInfo):
//
//	POST /queries                {"query": i}  -> run, holding a slot of the least-loaded shard
//	GET  /queries                              -> list of submitted queries
//	GET  /queries/{id}/progress                -> run + freshest ProgressUpdate
//
//	POST   /sessions                        {plan spec} -> run, fed by the routes below
//	POST   /sessions/{id}/observations      {counter batch} -> apply result
//	GET    /sessions                                    -> list of sessions
//	GET    /sessions/{id}/progress                      -> run + freshest ProgressUpdate
//	DELETE /sessions/{id}                               -> abort the session
//
//	GET  /engine/stats                         -> shard pool, queue + QoS state
//	GET  /healthz                              -> {"status": "ok"}
//
// Every run records its placement (shard), family, admission class and
// the selector version that serves it ("model"). Once a
// run ends only that identity and its last update are retained — the
// monitor, trace and counter source are dropped — until eviction: each
// tree keeps its finished runs up to its own bound (1024 queries,
// SessionConfig.MaxKept sessions), oldest evicted first.
//
// A POST may carry "client" (refines the admission class from the family
// to family|client, so fairness holds between a family's clients) and
// "deadline_ms" (bounds the admission wait; with deadline admission on, a
// request whose deadline cannot cover the predicted queue wait is shed
// immediately). Admission refusals answer with a JSON "reason" —
// "queue_full", "deadline_shed", "session_limit" or "draining" — and
// 429/503s carry a Retry-After header derived from observed queue waits.
//
// A session streams monotone counter observations that are validated
// and rejected on regression or reordering (see internal/ingest and the
// README's "Estimation as a service"); one idle past the TTL expires
// (SetSessionConfig).
//
// When MonitorOptions.Learning is set, the model-lifecycle routes come
// alive too (404 otherwise):
//
//	GET  /models                               -> corpus + version history + drift
//	GET  /models/drift                         -> observed-vs-predicted standing
//	POST /models/retrain                       -> train + gate + hot-swap
//	POST /models/rollback                      -> revert to the previous one
type Server struct {
	eng *Engine
	mux *http.ServeMux

	// queries and sessions are the two instances of the tracked-run table.
	queries, sessions *runTable

	sessionCfg SessionConfig
	janitor    sync.Once // starts the TTL sweeper on the first session
	stopOnce   sync.Once
	stopCh     chan struct{}
	// Lifetime ingestion counters of the session wire.
	batches, observations, rejectedBatches atomic.Int64
}

// defaultMaxKept bounds retention of finished queries. (The
// concurrent-execution bound lives in EngineConfig.MaxLivePerShard.)
const defaultMaxKept = 1024

// NewServer wraps the workload in an HTTP monitoring server backed by a
// single-shard engine. The monitor options apply to every submitted
// query. Use NewEngineServer for a sharded pool.
func NewServer(w *Workload, opts MonitorOptions) *Server {
	return NewEngineServer(NewEngine(w, EngineConfig{}, opts))
}

// NewEngineServer wraps a sharded engine in the HTTP monitoring server.
func NewEngineServer(e *Engine) *Server {
	s := &Server{
		eng:      e,
		mux:      http.NewServeMux(),
		queries:  newRunTable("query", defaultMaxKept),
		sessions: newRunTable("session", 0),
		stopCh:   make(chan struct{}),
	}
	s.SetSessionConfig(SessionConfig{})
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("POST /queries", s.handleSubmit)
	s.mux.HandleFunc("POST /sessions", s.handleSessionOpen)
	s.mux.HandleFunc("GET /queries", s.queries.handleList)
	s.mux.HandleFunc("GET /sessions", s.sessions.handleList)
	s.mux.HandleFunc("GET /queries/{id}/progress", s.queries.handleProgress)
	s.mux.HandleFunc("GET /sessions/{id}/progress", s.sessions.handleProgress)
	s.mux.HandleFunc("POST /sessions/{id}/observations", s.handleSessionObserve)
	s.mux.HandleFunc("DELETE /sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /engine/stats", s.handleEngineStats)
	s.mux.HandleFunc("GET /models", s.handleModels)
	s.mux.HandleFunc("GET /models/drift", s.handleDrift)
	s.mux.HandleFunc("POST /models/retrain", s.handleRetrain)
	s.mux.HandleFunc("POST /models/rollback", s.handleRollback)
	return s
}

// SetSessionConfig sets the external-session layer's sizing (TTL,
// open-session bound, observation cap, retention). Call it before the
// server starts handling requests.
func (s *Server) SetSessionConfig(cfg SessionConfig) {
	s.sessionCfg = cfg.withDefaults()
	s.sessions.maxKept, s.sessions.maxOpen = s.sessionCfg.MaxKept, s.sessionCfg.MaxSessions
}

// Close stops the session layer's background janitor. It does not drain;
// use Drain first for a graceful shutdown.
func (s *Server) Close() { s.stopOnce.Do(func() { close(s.stopCh) }) }

// Drain stops admission — queued submissions get 503 immediately instead
// of stranding — and blocks until every admitted query has finished or
// the context expires. Open ingestion sessions are aborted first: each
// holds an admission slot for its lifetime, and an external engine that
// never completes must not hold the drain hostage. It is the
// graceful-shutdown hook cmd/progressd uses between http.Server.Shutdown
// and Learning.Close, so in-flight queries still land in the corpus.
func (s *Server) Drain(ctx context.Context) error {
	s.sessions.drain()
	return s.eng.Drain(ctx)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxSmallBody bounds the small JSON request bodies (submit,
// rollback); the session routes bound theirs in requestScratch.readBody.
const maxSmallBody = 64 << 10

// decodeBody decodes a small JSON request body into v; an optional body
// may be empty. On failure it answers — 413 past maxSmallBody, 400
// otherwise — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, optional bool) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSmallBody)).Decode(v)
	if err == nil || optional && errors.Is(err, io.EOF) {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "invalid body: %v", err)
	return false
}

// drainingRetryAfter is the fixed Retry-After stamped on 503 draining
// rejections. Draining has no observed-wait signal to derive a hint from
// (the queue is being failed, not measured), but well-behaved clients
// still need SOME backoff — without a header they hammer a shutting-down
// node, or worse, a load balancer re-targets them at full rate. A few
// seconds is enough for the fleet's usual drain-and-restart.
const drainingRetryAfter = 5 * time.Second

// writeReject answers an admission refusal: the machine-readable reason
// ("queue_full", "deadline_shed" or "draining") rides next to the error
// text, and a positive retryAfter becomes a Retry-After header (whole
// seconds, rounded up, at least 1 — clients without backoff of their own
// can honor it directly).
func writeReject(w http.ResponseWriter, status int, reason string, retryAfter time.Duration, err error) {
	if status == http.StatusTooManyRequests || retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, map[string]string{
		"error":  fmt.Sprintf("submit: %v", err),
		"reason": reason,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{
		"status":  "ok",
		"queries": s.eng.Workload().NumQueries(),
		"shards":  s.eng.NumShards(),
	}
	if l := s.eng.learning(); l != nil {
		if cur, ok := l.Current(); ok {
			resp["model"] = cur.ID
		}
		resp["corpus_size"] = l.CorpusSize()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleEngineStats is GET /engine/stats: the engine's snapshot plus the
// session layer's accounting.
func (s *Server) handleEngineStats(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	st.Ingest = s.sessionStats()
	writeJSON(w, http.StatusOK, st)
}

// submitRequest is the POST /queries body.
type submitRequest struct {
	// Query is the workload query index to execute.
	Query int `json:"query"`
	// Client optionally tags the submission with its issuer, refining the
	// admission class from the query's family to "family|client" (which
	// inherits the family's QoS weight).
	Client string `json:"client,omitempty"`
	// DeadlineMS optionally bounds the admission wait in milliseconds;
	// with deadline admission on, a submission whose deadline cannot
	// cover the predicted queue wait is shed immediately (429,
	// reason "deadline_shed").
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// admitRun runs one of the two run constructors under the request's
// admission deadline and returns the run, or answers the refusal and
// returns nil. The engine owns admission: the run waits in the bounded
// fair queue under its class when every shard is at capacity, and the
// request context frees the queue slot if the client gives up. A
// deadline_ms bound rides on that same context, so it also feeds
// deadline-aware admission.
func (s *Server) admitRun(w http.ResponseWriter, r *http.Request, what string, deadlineMS int64,
	open func(ctx context.Context) (*trackedRun, error)) *trackedRun {
	ctx := r.Context()
	if deadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMS)*time.Millisecond)
		defer cancel()
	}
	run, err := open(ctx)
	var shedErr *engine.DeadlineShedError
	switch {
	case err == nil:
		return run
	case errors.As(err, &shedErr):
		// The predicted queue wait is the honest backoff hint: resubmitting
		// sooner would just be shed again under the same conditions.
		writeReject(w, http.StatusTooManyRequests, "deadline_shed", shedErr.Predicted, err)
	case errors.Is(err, errSessionLimit):
		writeReject(w, http.StatusTooManyRequests, "session_limit", s.eng.RetryAfterHint(), err)
	case IsSaturated(err):
		writeReject(w, http.StatusTooManyRequests, "queue_full", s.eng.RetryAfterHint(), err)
	case IsDraining(err):
		writeReject(w, http.StatusServiceUnavailable, "draining", drainingRetryAfter, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client abandoned the queued request (or its deadline_ms
		// expired while queued); nothing to answer.
		writeError(w, http.StatusServiceUnavailable, "%s: %v", what, err)
	default:
		writeError(w, http.StatusInternalServerError, "%s: %v", what, err)
	}
	return nil
}

// handleSubmit is POST /queries: track a run whose counter source is the
// in-process executor.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	wl := s.eng.Workload()
	if req.Query < 0 || req.Query >= wl.NumQueries() {
		writeError(w, http.StatusBadRequest, "query index %d out of range [0,%d)", req.Query, wl.NumQueries())
		return
	}
	run := s.admitRun(w, r, "submit", req.DeadlineMS, func(ctx context.Context) (*trackedRun, error) {
		run := &trackedRun{query: req.Query, workload: wl.inner.Spec.Name}
		return run, s.queries.track(run, func() (*Monitor, error) {
			return s.eng.StartTagged(ctx, req.Query, req.Client)
		})
	})
	if run != nil {
		info := run.info(false)
		info.Text = wl.QueryText(req.Query)
		writeJSON(w, http.StatusAccepted, info)
	}
}

// handleList is GET /queries and GET /sessions.
func (t *runTable) handleList(w http.ResponseWriter, _ *http.Request) {
	runs := t.list()
	infos := make([]runInfo, 0, len(runs))
	for _, run := range runs {
		infos = append(infos, run.info(false))
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleProgress is GET /queries/{id}/progress and GET
// /sessions/{id}/progress: the run plus its freshest update.
func (t *runTable) handleProgress(w http.ResponseWriter, r *http.Request) {
	if run := t.find(w, r); run != nil {
		writeJSON(w, http.StatusOK, run.info(true))
	}
}

// find resolves the request's {id}, answering 404 itself when unknown.
func (t *runTable) find(w http.ResponseWriter, r *http.Request) *trackedRun {
	run, ok := t.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown %s %q", t.noun, r.PathValue("id"))
		return nil
	}
	return run
}

// modelsResponse is the GET /models wire form.
type modelsResponse struct {
	// Current is the id of the serving version (0 before the first
	// publication).
	Current int `json:"current"`
	// CorpusSize is the number of harvested examples retained on disk.
	CorpusSize int `json:"corpus_size"`
	// Corpus is the corpus shape — segment count, on-disk bytes,
	// per-family example counts — and the compaction counters.
	Corpus CorpusStats `json:"corpus"`
	// Harvest are the lifetime harvesting counters.
	Harvest HarvestStats `json:"harvest"`
	// Versions is the publication history, oldest first, including
	// quality-gate-rejected versions (decision "rejected") that never
	// served.
	Versions []ModelVersion `json:"versions"`
	// Drift is the serving version's observed-vs-predicted standing — its
	// windowed live error against its holdout baseline, the drift flag,
	// and the last retrain trigger — once it has served a harvested
	// query (a list of at most one).
	Drift []DriftStatus `json:"drift"`
	// Canaries is the challenger currently in champion/challenger
	// confirmation, shadow-scoring on live traffic before it may hot-swap
	// (a list of at most one; empty unless canary serving is enabled).
	Canaries []CanaryStatus `json:"canaries"`
	// Decisions is the retrainer's bounded decision history, oldest
	// first: which trigger (manual, auto, drift) trained each version and
	// how the quality gate ruled.
	Decisions []RetrainDecision `json:"decisions"`
	// PersistError, when set, means the on-disk model manifest trails the
	// serving version (a restart would resume from the last successfully
	// persisted model); the next successful persist clears it.
	PersistError string `json:"persist_error,omitempty"`
	// TrainingError, when set, is the most recent failure of the
	// background loop (training or compaction), e.g. a model that could
	// not be fit or a corpus segment compaction could not read; a fully
	// successful retrain clears it.
	TrainingError string `json:"training_error,omitempty"`
}

// learning returns the attached learning loop, or writes a 404 and
// returns nil when continuous learning is not enabled.
func (s *Server) learning(w http.ResponseWriter) *Learning {
	if l := s.eng.learning(); l != nil {
		return l
	}
	writeError(w, http.StatusNotFound, "continuous learning not enabled (start with a learning corpus)")
	return nil
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	l := s.learning(w)
	if l == nil {
		return
	}
	drift, decisions := l.driftReport()
	resp := modelsResponse{
		CorpusSize: l.CorpusSize(),
		Corpus:     l.CorpusStats(),
		Harvest:    l.HarvestStats(),
		Versions:   l.Versions(),
		Drift:      drift,
		Canaries:   l.Canaries(),
		Decisions:  decisions,
	}
	if perr := l.PersistError(); perr != nil {
		resp.PersistError = perr.Error()
	}
	if terr := l.LastTrainingError(); terr != nil {
		resp.TrainingError = terr.Error()
	}
	if cur, ok := l.Current(); ok {
		resp.Current = cur.ID
	}
	if resp.Versions == nil {
		resp.Versions = []ModelVersion{}
	}
	if resp.Drift == nil {
		resp.Drift = []DriftStatus{}
	}
	if resp.Canaries == nil {
		resp.Canaries = []CanaryStatus{}
	}
	if resp.Decisions == nil {
		resp.Decisions = []RetrainDecision{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// driftResponse is the GET /models/drift wire form.
type driftResponse struct {
	// Targets is the serving version's observed-vs-predicted standing,
	// once it has served a harvested query (a list of at most one).
	Targets []DriftStatus `json:"targets"`
	// Decisions is the retrainer's decision history, oldest first —
	// "drift"-triggered entries record which verdicts turned into
	// retrains.
	Decisions []RetrainDecision `json:"decisions"`
}

func (s *Server) handleDrift(w http.ResponseWriter, _ *http.Request) {
	l := s.learning(w)
	if l == nil {
		return
	}
	targets, decisions := l.driftReport()
	resp := driftResponse{Targets: targets, Decisions: decisions}
	if resp.Targets == nil {
		resp.Targets = []DriftStatus{}
	}
	if resp.Decisions == nil {
		resp.Decisions = []RetrainDecision{}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRetrain(w http.ResponseWriter, _ *http.Request) {
	l := s.learning(w)
	if l == nil {
		return
	}
	v, err := l.Retrain()
	switch {
	case IsEmptyCorpus(err):
		writeError(w, http.StatusConflict, "retrain: %v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "retrain: %v", err)
	default:
		writeJSON(w, http.StatusOK, v)
	}
}

// rollbackRequest is the optional POST /models/rollback body.
type rollbackRequest struct {
	// Family is refused when non-empty: one model serves every query, so
	// there is no per-family model to roll back. Without the check a
	// client written for per-family routing would silently roll back the
	// one model instead.
	Family string `json:"family"`
}

// rollbackResponse is the POST /models/rollback wire form: the
// rolled-back-to version, plus the outcome of persisting the change.
type rollbackResponse struct {
	ModelVersion
	// PersistError, when set, means the rollback applied in memory but
	// the on-disk manifest could not be rewritten — a restart would
	// resume from the previously persisted model. The same
	// failure shows as "persist_error" in GET /models until a later
	// sync repairs it.
	PersistError string `json:"persist_error,omitempty"`
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	l := s.learning(w)
	if l == nil {
		return
	}
	var req rollbackRequest
	if !decodeBody(w, r, &req, true) {
		return
	}
	if req.Family != "" {
		writeError(w, http.StatusBadRequest, "rollback: one model serves every family; omit \"family\"")
		return
	}
	v, persistErr, err := l.rollback()
	switch {
	case IsNoRollback(err):
		writeError(w, http.StatusConflict, "rollback: %v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "rollback: %v", err)
	default:
		resp := rollbackResponse{ModelVersion: v}
		if persistErr != nil {
			resp.PersistError = persistErr.Error()
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleSessionOpen is POST /sessions: validate the plan spec, then track
// a run whose counter source is the observations route. Admission
// refusals answer exactly as query submissions do.
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	// The spec copies what it keeps of the body, so the scratch goes back
	// before the admission wait, not after it.
	sc := scratchPool.Get().(*requestScratch)
	body, ok := sc.readBody(w, r, "open session")
	var spec *ingest.Spec
	var err error
	if ok {
		spec, err = ingest.DecodeSpec(bytes.NewReader(body))
	}
	sc.release(nil)
	if !ok {
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "open session: %v", err)
		return
	}
	if spec.Family == "" {
		writeError(w, http.StatusBadRequest, "open session: family is required (it is the admission class and the corpus tag)")
		return
	}
	model, err := ingest.Build(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "open session: %v", err)
		return
	}
	run := s.admitRun(w, r, "open session", spec.DeadlineMS, func(ctx context.Context) (*trackedRun, error) {
		return s.openSession(ctx, spec, model)
	})
	if run != nil {
		writeJSON(w, http.StatusCreated, run.info(false))
	}
}

// observeResponse is the POST /sessions/{id}/observations wire form.
type observeResponse struct {
	ID string `json:"id"`
	// Added is the number of snapshots this batch ingested.
	Added int `json:"added"`
	// Observations is the session's ingested snapshot total.
	Observations int64 `json:"observations"`
	// State is the session's state after the batch ("completed" once the
	// Done marker applied).
	State string `json:"state"`
}

// handleSessionObserve is POST /sessions/{id}/observations: one strict
// observation batch. Validation failures map onto the ingest error
// taxonomy — 400 malformed, 409 ordering/regression/already-completed,
// 413 size or retention limits — and a rejected batch leaves the session
// at its last consistent prefix. The body and the decoded batch live in
// pooled scratch that goes back when the handler returns: apply copies
// what the session keeps.
func (s *Server) handleSessionObserve(w http.ResponseWriter, r *http.Request) {
	run := s.sessions.find(w, r)
	if run == nil {
		return
	}
	sc := scratchPool.Get().(*requestScratch)
	var batch *ingest.Batch
	defer func() { sc.release(batch) }()
	body, ok := sc.readBody(w, r, "observations")
	if !ok {
		return
	}
	batch, err := sc.dec.Decode(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "observations: %v", err)
		return
	}
	added, state, err := s.apply(run, batch)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ingest.ErrOutOfOrder), errors.Is(err, ingest.ErrRegression),
			errors.Is(err, ingest.ErrCompleted):
			status = http.StatusConflict
		case errors.Is(err, ingest.ErrLimit):
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "observations: %v", err)
		return
	}
	run.mu.Lock()
	total := run.ingested
	run.mu.Unlock()
	writeJSON(w, http.StatusOK, observeResponse{
		ID: run.id, Added: added, Observations: total,
		State: state.String(),
	})
}

// handleSessionDelete aborts an open session (idempotent: a terminal
// session just reports its state).
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if run := s.sessions.find(w, r); run != nil {
		writeJSON(w, http.StatusOK, map[string]string{
			"id":    run.id,
			"state": s.abort(run).String(),
		})
	}
}
