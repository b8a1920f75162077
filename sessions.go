package progressest

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"progressest/internal/exec"
	"progressest/internal/ingest"
)

// SessionConfig sizes the external counter-ingestion session layer (the
// POST /sessions surface).
type SessionConfig struct {
	// TTL expires an open session that has ingested nothing for this long
	// (default 2m; negative disables expiry). Progress reads do not count
	// as activity: a session is alive while its engine streams counters,
	// not while someone watches it.
	TTL time.Duration
	// MaxSessions bounds the concurrently open sessions (default 256);
	// opening beyond it is rejected like a full admission queue.
	MaxSessions int
	// MaxObservations caps the snapshots one session may ingest
	// (default ingest.DefaultMaxObservations). External engines control
	// their own cadence, so the cap rejects instead of thinning.
	MaxObservations int
	// MaxKept bounds retained terminal (completed/aborted/expired)
	// sessions for listing and progress reads (default 256); the oldest
	// are evicted first.
	MaxKept int
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.TTL == 0 {
		c.TTL = 2 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.MaxKept <= 0 {
		c.MaxKept = 256
	}
	return c
}

// requestScratch is one session-route request's working memory: the
// body's bytes and, for an observation batch, the decoder whose slabs the
// decoded Batch lives in. Both are valid until the handler returns and
// no longer — nothing decoded from a request may be retained past apply,
// which is why ingest.Runner copies every delta and end time it keeps.
// Scratch is pooled per process, not per session or connection, so an
// idle daemon holds none of it past the next two GC cycles.
type requestScratch struct {
	body []byte
	dec  ingest.BatchDecoder
}

var scratchPool = sync.Pool{New: func() any { return new(requestScratch) }}

// maxPooledBody keeps a scratch grown by one huge body (a hundred times
// the usual batch) from pinning that memory in the pool.
const maxPooledBody = 256 << 10

// scratchReleased, when a test sets it, sees every scratch on its way
// back to the pool: the whole body buffer and the batch decoded into the
// slabs (nil if the request decoded none).
var scratchReleased func(body []byte, batch *ingest.Batch)

func (sc *requestScratch) release(batch *ingest.Batch) {
	if scratchReleased != nil {
		scratchReleased(sc.body[:cap(sc.body)], batch)
	}
	if cap(sc.body) <= maxPooledBody {
		scratchPool.Put(sc)
	}
}

// readBody is the session routes' bounded body read, into the scratch's
// buffer (sized from Content-Length when the client sent one). On
// failure it answers — 413 past ingest.MaxBatchBytes, 400 for a broken
// read — and returns false.
func (sc *requestScratch) readBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, bool) {
	const limit = ingest.MaxBatchBytes
	tooLarge := r.ContentLength > limit
	buf := sc.body[:0]
	var err error
	if !tooLarge {
		// One byte more than announced: the Read that reports EOF needs room.
		if need := int(max(r.ContentLength+1, 512)); need > cap(buf) {
			buf = make([]byte, 0, need)
		}
		for err == nil && len(buf) <= limit {
			if len(buf) == cap(buf) {
				buf = append(buf, 0)[:len(buf)]
			}
			var n int
			n, err = r.Body.Read(buf[len(buf):min(cap(buf), limit+1)])
			buf = buf[:len(buf)+n]
		}
		sc.body = buf
		tooLarge = len(buf) > limit
	}
	switch {
	case tooLarge:
		writeError(w, http.StatusRequestEntityTooLarge, "%s: %v (%d bytes)", what, ingest.ErrBatchTooLarge, limit)
	case err != io.EOF:
		writeError(w, http.StatusBadRequest, "%s: %v", what, err)
	default:
		return buf, true
	}
	return nil, false
}

// openSession tracks a new external session. The spec must already have
// passed ingest.Build (model is its validated form); admission waits in
// the engine's bounded fair queue under the session's class exactly as a
// native submission would, honoring ctx's deadline. The counter source
// it attaches is an ingest.Runner, fed by apply.
func (s *Server) openSession(ctx context.Context, spec *ingest.Spec, model *ingest.Model) (*trackedRun, error) {
	r := &trackedRun{query: -1, workload: spec.Workload, lastSeen: time.Now()}
	if r.workload == "" {
		r.workload = "external"
	}
	err := s.sessions.track(r, func() (*Monitor, error) {
		m, err := s.eng.admit(ctx, spec.Family, spec.Client,
			func(opts MonitorOptions) (*Monitor, error) {
				if spec.UpdateEvery > 0 {
					opts.UpdateEvery = spec.UpdateEvery
				}
				opts.Pace = 0 // pacing slows the executor; sessions have none
				return newMonitor(model.Plan, model.Pipes, nil, r.workload, spec.Family, -1, opts, true)
			})
		if err != nil {
			return nil, err
		}
		r.mon = m
		r.runner = ingest.NewRunnerOn(m.hist, model, m.obs, m.obs.every, s.sessionCfg.MaxObservations)
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	s.startJanitor()
	return r, nil
}

// apply ingests one observation batch into the session. The returned
// count is the snapshots the batch added. A validation error leaves the
// session open at its last consistent prefix (the client may correct and
// resend); only a Done batch that fully applies completes it.
func (s *Server) apply(r *trackedRun, b *ingest.Batch) (added int, state runState, err error) {
	r.feed.Lock()
	defer r.feed.Unlock()
	r.mu.Lock()
	runner, mon := r.runner, r.mon
	state = r.state
	r.lastSeen = time.Now() // any ingest traffic proves the engine alive
	r.mu.Unlock()
	if runner == nil {
		return 0, state, fmt.Errorf("session is %s: %w", state, ingest.ErrCompleted)
	}
	before := runner.Observations()
	err = runner.Apply(b)
	added = runner.Observations() - before
	if err == nil {
		r.mu.Lock()
		r.ingested += int64(added)
		r.mu.Unlock()
		s.batches.Add(1)
		s.observations.Add(int64(added))
		if b.Done {
			// Only end-time validation fails here; the events above applied,
			// so the session stays open and a corrected Done batch may follow.
			var tr *exec.Trace
			if tr, err = runner.Finish(b.Ends); err == nil {
				// The Done update this emits completes r once mirrored;
				// the batch is not acknowledged before that. Then no one
				// reads the trace again.
				mon.finish(tr, nil)
				r.mirrored.Wait()
				mon.handBack(tr)
				state = runCompleted
			}
		}
	}
	if err != nil {
		s.rejectedBatches.Add(1)
	}
	return added, state, err
}

// abort ends an open session without completion (DELETE /sessions/{id}).
func (s *Server) abort(r *trackedRun) runState {
	return r.terminate(runAborted, errSessionAborted)
}

// sweep expires open sessions idle past the TTL, as of now. The janitor
// calls it on a timer; tests call it directly.
func (s *Server) sweep(now time.Time) int {
	ttl := s.sessionCfg.TTL
	if ttl < 0 {
		return 0
	}
	n := 0
	for _, r := range s.sessions.list() {
		r.mu.Lock()
		idle := r.state == runRunning && now.Sub(r.lastSeen) > ttl
		r.mu.Unlock()
		if idle && r.terminate(runExpired, errSessionExpired) == runExpired {
			n++
		}
	}
	return n
}

// startJanitor starts the TTL sweeper on first use.
func (s *Server) startJanitor() {
	ttl := s.sessionCfg.TTL
	if ttl < 0 {
		return
	}
	s.janitor.Do(func() {
		interval := min(max(ttl/2, 10*time.Millisecond), 30*time.Second)
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-s.stopCh:
					return
				case now := <-t.C:
					s.sweep(now)
				}
			}
		}()
	})
}

// sessionStats snapshots the session-layer counters for GET /engine/stats.
func (s *Server) sessionStats() *IngestStats {
	t := s.sessions
	return &IngestStats{
		OpenSessions:    int(t.open.Load()),
		Opened:          t.opened.Load(),
		Completed:       t.ended[runCompleted].Load(),
		Expired:         t.ended[runExpired].Load(),
		Aborted:         t.ended[runAborted].Load(),
		Batches:         s.batches.Load(),
		RejectedBatches: s.rejectedBatches.Load(),
		Observations:    s.observations.Load(),
		TTLSeconds:      s.sessionCfg.TTL.Seconds(),
	}
}
