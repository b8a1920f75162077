package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"progressest"
	"progressest/internal/exec"
	"progressest/internal/ingest"
	"progressest/internal/pipeline"
	"progressest/internal/workload"
)

// snapshotsPerBatch is how many counter snapshots one observation batch
// carries: ~400 snapshots per query make ~26 batches per session.
const snapshotsPerBatch = 16

// sessionInput is one external session, encoded once in set-up so the
// measured loop marshals nothing.
type sessionInput struct {
	query     int
	spec      []byte
	batches   [][]byte
	snapshots int
	trace     *exec.Trace // the recorded native run (probes replay it)
}

// recordSessions executes every query of w (the serving workload in its
// internal form) once and records it as an external engine would present
// it: the plan as a session spec, the counter stream as observation
// batches.
func recordSessions(w *workload.Workload) ([]sessionInput, error) {
	out := make([]sessionInput, len(w.Queries))
	for i, q := range w.Queries {
		pl, err := w.Planner.Plan(q)
		if err != nil {
			return nil, fmt.Errorf("plan query %d: %w", i, err)
		}
		tr := exec.RunDecomposed(w.DB, pl, pipeline.Decompose(pl), exec.Options{})
		in := sessionInput{query: i, snapshots: len(tr.Snapshots), trace: tr}
		if in.spec, err = json.Marshal(ingest.SpecFromTrace(tr, "bench-ext", w.QueryFamily(i))); err != nil {
			return nil, err
		}
		for _, b := range ingest.RecordBatches(tr, snapshotsPerBatch) {
			wire, err := json.Marshal(b)
			if err != nil {
				return nil, err
			}
			in.batches = append(in.batches, wire)
		}
		out[i] = in
	}
	return out, nil
}

// finals remembers the final update of the first completion of each
// input, for the delivery-path determinism check.
type finals struct {
	mu    sync.Mutex
	first map[int]*progressest.ProgressUpdate
}

func (f *finals) check(query int, u *progressest.ProgressUpdate) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if first, ok := f.first[query]; ok {
		return sameFinal(first, u)
	}
	f.first[query] = u
	return nil
}

// sessionOp is one external session: open it, then per batch one POST
// of observations and one GET of progress, the last batch carrying done.
func (c *caller) sessionOp(inputs []sessionInput, fin *finals, opID int64) error {
	in := &inputs[c.walk.next(len(inputs))]
	run := func(root int64) error {
		start := time.Now()
		status, dur, err := c.do(http.MethodPost, "/sessions", in.spec, "client.session_open", opID, root)
		if err != nil {
			return err
		}
		if status != http.StatusCreated {
			return fmt.Errorf("POST /sessions: status %d: %s", status, c.body.Bytes())
		}
		c.rec.partA = append(c.rec.partA, dur)
		var info struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(c.body.Bytes(), &info); err != nil || info.ID == "" {
			return fmt.Errorf("POST /sessions: bad body %q: %v", c.body.Bytes(), err)
		}
		observe := "/sessions/" + info.ID + "/observations"
		progress := "/sessions/" + info.ID + "/progress"
		lastSeq := 0
		read := func() (*progressBody, error) {
			status, _, err := c.do(http.MethodGet, progress, nil, "client.session_read", opID, root)
			if err != nil {
				return nil, err
			}
			if status != http.StatusOK {
				return nil, fmt.Errorf("GET %s: status %d: %s", progress, status, c.body.Bytes())
			}
			c.rec.reads++
			var p progressBody
			if err := json.Unmarshal(c.body.Bytes(), &p); err != nil {
				return nil, fmt.Errorf("GET %s: %v", progress, err)
			}
			if p.Update != nil {
				if err := checkUpdate(p.Update, lastSeq); err != nil {
					return nil, fmt.Errorf("GET %s: %v", progress, err)
				}
				lastSeq = p.Update.Seq
			}
			return &p, nil
		}
		for i, batch := range in.batches {
			status, dur, err := c.do(http.MethodPost, observe, batch, "client.observe", opID, root)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("POST %s: status %d: %s", observe, status, c.body.Bytes())
			}
			c.rec.partB = append(c.rec.partB, dur)
			if i == len(in.batches)-1 {
				break // the done batch: its reads follow below
			}
			if _, err := read(); err != nil {
				return err
			}
		}
		// The session is completed once the done batch is acknowledged,
		// but its final update reaches the read mirror on another
		// goroutine: read until it shows (nearly always the first read).
		for reads := 0; reads < maxReads; reads++ {
			p, err := read()
			if err != nil {
				return err
			}
			if !p.Done {
				return fmt.Errorf("GET %s: session not completed after its done batch", progress)
			}
			if p.Update == nil || !p.Update.Done {
				continue
			}
			if err := checkFinal(p.Update); err != nil {
				return fmt.Errorf("GET %s: %v", progress, err)
			}
			if err := fin.check(in.query, p.Update); err != nil {
				return fmt.Errorf("GET %s: %v", progress, err)
			}
			c.rec.ops = append(c.rec.ops, sample{dur: time.Since(start)})
			return nil
		}
		return fmt.Errorf("GET %s: final update never showed", progress)
	}
	var err error
	c.tr.record("client.op", opID, 0, func(id int64) { err = run(id) })
	return err
}

// runSession is session_stream: the same queries and selector as
// native_closed, fed through the ingestion front instead of the executor.
func runSession(e *env, cfg runConfig, rep *report) error {
	eng := progressest.NewEngine(e.serving, servingEngineConfig(), progressest.MonitorOptions{Selector: e.selector})
	fin := &finals{first: make(map[int]*progressest.ProgressUpdate)}
	op := func(c *caller, opID int64) error { return c.sessionOp(e.sessions, fin, opID) }
	if err := runHTTPLoop(eng, e, cfg, rep, cfg.seconds, sessionWarmOps, "/sessions", op); err != nil {
		return err
	}
	total := 0
	for _, in := range e.sessions {
		total += in.snapshots
	}
	rep.Notes["snapshots_per_session"] = float64(total) / float64(len(e.sessions))
	if m, ok := rep.Metrics["ops_per_s"]; ok {
		rep.Notes["obs_per_s"] = m.Value * rep.Notes["snapshots_per_session"]
	}
	return nil
}
