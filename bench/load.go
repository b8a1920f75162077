package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"progressest"
)

// daemon is the system under test, in-process behind a real socket.
type daemon struct {
	eng *progressest.Engine
	srv *progressest.Server
	ts  *httptest.Server
}

func startDaemon(eng *progressest.Engine, tr *tracer) *daemon {
	srv := progressest.NewEngineServer(eng)
	var h http.Handler = srv
	if tr != nil {
		h = tracedHandler(tr, srv)
	}
	return &daemon{eng: eng, srv: srv, ts: httptest.NewServer(h)}
}

// stop closes the socket, drains the engine and stops the session
// janitor: no goroutine of the daemon outlives it.
func (d *daemon) stop() error {
	d.ts.Close()
	err := drain(d.srv.Drain)
	d.srv.Close()
	return err
}

// caller is one closed-loop client: one keep-alive connection, one
// request in flight.
type caller struct {
	base   string
	client *http.Client
	tr     *tracer // nil with tracing off
	body   bytes.Buffer
	walk   walker
	rec    clientRec
}

// walker visits n items in a seeded permutation, drawing a fresh one at
// the end of each: every item recurs equally often, in an order the seed
// fixes, so the mix of queries a run sends does not change with the seed.
type walker struct {
	rng   *rand.Rand
	order []int
	pos   int
}

func newWalker(seed int64) walker { return walker{rng: rand.New(rand.NewSource(seed))} }

func (w *walker) next(n int) int {
	if w.pos == len(w.order) {
		w.order = w.rng.Perm(n)
		w.pos = 0
	}
	i := w.order[w.pos]
	w.pos++
	return i
}

// clientRec is what one caller measured; callers never share one.
type clientRec struct {
	ops          []sample
	partA, partB []time.Duration
	reads        int
	attempted    int
	failed       int
	firstErr     error
}

func newCaller(base string, rt http.RoundTripper, seed int64, id int, tr *tracer) *caller {
	return &caller{
		base:   base,
		client: &http.Client{Transport: rt},
		tr:     tr,
		walk:   newWalker(seed*1000003 + int64(id)),
	}
}

func newCallers(d *daemon, n int, seed int64, tr *tracer) []*caller {
	out := make([]*caller, n)
	for i := range out {
		out[i] = newCaller(d.ts.URL, &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}, seed, i, tr)
	}
	return out
}

func closeCallers(cs []*caller) {
	for _, c := range cs {
		c.client.CloseIdleConnections()
	}
}

// do sends one request and reads the whole response into c.body. With
// tracing on it records the round trip as a span under parent.
func (c *caller) do(method, path string, body []byte, span string, op, parent int64) (status int, dur time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	send := func() {
		start := time.Now()
		var resp *http.Response
		if resp, err = c.client.Do(req); err != nil {
			return
		}
		c.body.Reset()
		_, err = c.body.ReadFrom(resp.Body)
		resp.Body.Close()
		status, dur = resp.StatusCode, time.Since(start)
	}
	c.tr.record(span, op, parent, func(id int64) {
		if id != 0 { // tracing: the handler's span names this one as parent
			req.Header.Set(headerOp, strconv.FormatInt(op, 10))
			req.Header.Set(headerSpan, strconv.FormatInt(id, 10))
		}
		send()
	})
	return status, dur, err
}

// progressBody covers both progress wire forms (queries and sessions).
type progressBody struct {
	ID     string                      `json:"id"`
	Done   bool                        `json:"done"`
	Update *progressest.ProgressUpdate `json:"update"`
}

// maxReads bounds the polls of one op, so a query that never reports
// done fails the run instead of hanging it.
const maxReads = 1 << 20

// checkUpdate is the per-read check: every estimate in [0,1] and the
// sequence number never below the last one seen.
func checkUpdate(u *progressest.ProgressUpdate, lastSeq int) error {
	if u.Seq < lastSeq {
		return fmt.Errorf("seq went back from %d to %d", lastSeq, u.Seq)
	}
	// Written so that NaN fails too.
	if !(u.Query >= 0 && u.Query <= 1) {
		return fmt.Errorf("query estimate %v outside [0,1]", u.Query)
	}
	for _, p := range u.Pipelines {
		if !(p.Estimate >= 0 && p.Estimate <= 1) {
			return fmt.Errorf("pipeline %d estimate %v outside [0,1]", p.Pipeline, p.Estimate)
		}
	}
	return nil
}

// checkFinal is the completion check: the final update says done, the
// query stands at exactly 1 and so does every pipeline.
func checkFinal(u *progressest.ProgressUpdate) error {
	if u == nil {
		return errors.New("done without an update")
	}
	if !u.Done || u.Query != 1 || u.TrueProgress != 1 {
		return fmt.Errorf("final update done=%v query=%v true_progress=%v, want true/1/1", u.Done, u.Query, u.TrueProgress)
	}
	for _, p := range u.Pipelines {
		if !p.Done || p.Estimate != 1 {
			return fmt.Errorf("final update pipeline %d done=%v estimate=%v, want true/1", p.Pipeline, p.Done, p.Estimate)
		}
	}
	return nil
}

// sameFinal is the delivery-path determinism check: two completions of
// the same input must end on the same update, field for field.
func sameFinal(first, again *progressest.ProgressUpdate) error {
	if !reflect.DeepEqual(first, again) {
		return fmt.Errorf("final update differs from the first completion of the same input:\n first %+v\n again %+v", *first, *again)
	}
	return nil
}

// nativeOp is one native operation: POST /queries, then GET
// /queries/{id}/progress back to back until done.
func (c *caller) nativeOp(bodies [][]byte, opID int64) error {
	q := c.walk.next(len(bodies))
	run := func(root int64) error {
		start := time.Now()
		status, dur, err := c.do(http.MethodPost, "/queries", bodies[q], "client.submit", opID, root)
		if err != nil {
			return err
		}
		if status != http.StatusAccepted {
			return fmt.Errorf("POST /queries: status %d: %s", status, c.body.Bytes())
		}
		c.rec.partA = append(c.rec.partA, dur)
		var info struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(c.body.Bytes(), &info); err != nil || info.ID == "" {
			return fmt.Errorf("POST /queries: bad body %q: %v", c.body.Bytes(), err)
		}
		path := "/queries/" + info.ID + "/progress"
		lastSeq := 0
		for reads := 0; reads < maxReads; reads++ {
			status, dur, err := c.do(http.MethodGet, path, nil, "client.read", opID, root)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("GET %s: status %d: %s", path, status, c.body.Bytes())
			}
			c.rec.partB = append(c.rec.partB, dur)
			c.rec.reads++
			var p progressBody
			if err := json.Unmarshal(c.body.Bytes(), &p); err != nil {
				return fmt.Errorf("GET %s: %v", path, err)
			}
			if p.Update != nil {
				if err := checkUpdate(p.Update, lastSeq); err != nil {
					return fmt.Errorf("GET %s: %v", path, err)
				}
				lastSeq = p.Update.Seq
			}
			if p.Done {
				if err := checkFinal(p.Update); err != nil {
					return fmt.Errorf("GET %s: %v", path, err)
				}
				c.rec.ops = append(c.rec.ops, sample{dur: time.Since(start)})
				return nil
			}
		}
		return fmt.Errorf("GET %s: not done after %d reads", path, maxReads)
	}
	var err error
	c.tr.record("client.op", opID, 0, func(id int64) { err = run(id) })
	return err
}

// loopResult is one closed-loop window.
type loopResult struct {
	window    time.Duration // 0 for a warm-up
	elapsed   time.Duration
	ops       []sample
	partA     []time.Duration
	partB     []time.Duration
	reads     int
	attempted int
	failed    int
	firstErr  error
	mem       memDelta
}

// memDelta is what the whole process allocated over a window. Generator
// and daemon share the process, so the client's share is included.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNS      uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		mallocs:   after.Mallocs - before.Mallocs,
		bytes:     after.TotalAlloc - before.TotalAlloc,
		gcCycles:  after.NumGC - before.NumGC,
		gcPauseNS: after.PauseTotalNs - before.PauseTotalNs,
	}
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(readMem().HeapAlloc) / (1 << 20)
}

var opIDs atomic.Int64

// maxFailures stops a caller whose operations keep failing: the run is
// already lost, and a broken daemon must not spin the loop to its end.
const maxFailures = 10

// closedLoop runs op on every caller back to back until window has
// passed (window > 0) or minOps operations have completed (the warm-up
// form). Each sample's end is its offset into the window.
func closedLoop(callers []*caller, window time.Duration, minOps int, op func(c *caller, opID int64) error) loopResult {
	for _, c := range callers {
		c.rec = clientRec{}
	}
	var done atomic.Int64
	var wg sync.WaitGroup
	before := readMem()
	start := time.Now()
	for _, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if window > 0 && time.Since(start) >= window {
					return
				}
				if window <= 0 && done.Load() >= int64(minOps) {
					return
				}
				if c.rec.failed >= maxFailures {
					return
				}
				c.rec.attempted++
				n := len(c.rec.ops)
				if err := op(c, opIDs.Add(1)); err != nil {
					c.rec.failed++
					if c.rec.firstErr == nil {
						c.rec.firstErr = err
					}
					continue
				}
				if len(c.rec.ops) == n+1 {
					c.rec.ops[n].end = time.Since(start)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	res := loopResult{window: window, elapsed: time.Since(start), mem: memSince(before)}
	for _, c := range callers {
		res.ops = append(res.ops, c.rec.ops...)
		res.partA = append(res.partA, c.rec.partA...)
		res.partB = append(res.partB, c.rec.partB...)
		res.reads += c.rec.reads
		res.attempted += c.rec.attempted
		res.failed += c.rec.failed
		if res.firstErr == nil {
			res.firstErr = c.rec.firstErr
		}
	}
	return res
}

func durMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
