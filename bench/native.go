package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"progressest"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	setups  int     // full set-ups timed; setup_s is their median
	dir     string  // scratch directory of this run, removed at its end
	tr      *tracer // set with trace
}

// Shares of --seconds a traced run gives its two windows; the probe suite
// takes the rest.
const tracedWindowShare = 0.3

// servingEngineConfig is the engine both HTTP loops run against: wide
// enough that the closed loop's few callers never queue.
func servingEngineConfig() progressest.EngineConfig {
	return progressest.EngineConfig{Shards: 2, MaxLivePerShard: 64, QueueDepth: 64}
}

// Warm-up sizes: past the retention bounds (defaultMaxKept 1024 finished
// queries, SessionConfig.MaxKept 256 finished sessions), so the eviction
// scan on every submit and open is in steady state and every plan cache is
// filled before the window opens.
const (
	nativeWarmOps  = 1100
	sessionWarmOps = 300
)

func submitBodies(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(`{"query":%d}`, i))
	}
	return out
}

// runNative is native_closed: clients callers, each submitting a query
// and polling its progress until done, against a fixed seed selector.
func runNative(e *env, cfg runConfig, rep *report) error {
	eng := progressest.NewEngine(e.serving, servingEngineConfig(), progressest.MonitorOptions{Selector: e.selector})
	bodies := submitBodies(e.serving.NumQueries())
	op := func(c *caller, opID int64) error { return c.nativeOp(bodies, opID) }
	return runHTTPLoop(eng, e, cfg, rep, cfg.seconds, nativeWarmOps, "/queries", op)
}

// runHTTPLoop drives a closed-loop HTTP workload against a fresh daemon:
// warm-up, then the measured window — or, traced, an untraced and a
// traced window of the same length, whose rates give the tracing
// overhead.
func runHTTPLoop(eng *progressest.Engine, e *env, cfg runConfig, rep *report, window time.Duration, warmOps int, listPath string, op func(*caller, int64) error) (err error) {
	d := startDaemon(eng, cfg.tr)
	defer func() {
		if stopErr := d.stop(); stopErr != nil && err == nil {
			err = fmt.Errorf("drain daemon: %w", stopErr)
		}
	}()
	callers := newCallers(d, e.clients, cfg.seed, nil)
	defer closeCallers(callers)

	measure := func(name string, window time.Duration, minOps int) loopResult {
		res := closedLoop(callers, window, minOps, op)
		rep.phase(name, res.elapsed, res.attempted, res.failed)
		if res.firstErr != nil {
			rep.fail("%s: %v", name, res.firstErr)
		}
		return res
	}
	measure("warmup", 0, warmOps)
	if !cfg.trace {
		res := measure("measure", window, 0)
		rep.putLoop(res, tailPercentile[rep.Workload])
		rep.put("live_heap_mb", liveHeapMB(), 1)
		rep.Notes["reads_per_op"] = float64(res.reads) / float64(max(len(res.ops), 1))
		return nil
	}

	window = time.Duration(float64(cfg.seconds) * tracedWindowShare)
	untraced := measure("untraced", window, 0)
	for _, c := range callers {
		c.tr = cfg.tr
	}
	cfg.tr.on.Store(true)
	traced := measure("traced", window, 0)
	cfg.tr.on.Store(false)
	spans := cfg.tr.snapshot()
	rep.putTraceWindow(untraced, traced, len(spans))
	rep.Budgets["window"] = windowBudget(spans)
	rep.put("server.reads_per_op", float64(traced.reads)/float64(max(len(traced.ops), 1)), len(traced.ops))
	retained, err := listLen(d, listPath)
	if err != nil {
		return err
	}
	rep.put("server.retained", float64(retained), 0)
	rep.putEngine(eng.Stats())
	return nil
}

// listLen is the number of entries GET path lists.
func listLen(d *daemon, path string) (int, error) {
	resp, err := d.ts.Client().Get(d.ts.URL + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	var entries []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		return 0, fmt.Errorf("GET %s: %w", path, err)
	}
	return len(entries), nil
}
