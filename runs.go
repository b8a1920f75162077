package progressest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"progressest/internal/engine"
	"progressest/internal/ingest"
)

// runState is the tracked-run state machine:
// running → completed | aborted | expired.
type runState int

const (
	runRunning runState = iota
	runCompleted
	runAborted
	runExpired
)

// String is the state's wire name. A running run reads "open", the name
// the session routes have always used: it is still open to counters.
func (s runState) String() string {
	switch s {
	case runRunning:
		return "open"
	case runCompleted:
		return "completed"
	case runAborted:
		return "aborted"
	default:
		return "expired"
	}
}

var (
	// errSessionLimit rejects an open beyond the table's open bound (429).
	errSessionLimit = errors.New("progressest: open session limit reached")
	// errSessionAborted and errSessionExpired are the Wait errors of
	// sessions that ended without completing.
	errSessionAborted = errors.New("progressest: session aborted")
	errSessionExpired = errors.New("progressest: session expired (idle past TTL)")
)

// trackedRun is the one record behind both resource trees: a native
// query (counters from exec.RunDecomposed on a goroutine) or an external
// session (counters from an ingest.Runner fed by POST …/observations).
// It mirrors its monitor's update stream, so the freshest update and the
// state move together under one lock.
type trackedRun struct {
	table *runTable
	// mirrored is done once the monitor's update stream has closed and all
	// of it is in the record.
	mirrored sync.WaitGroup

	// Identity, fixed once the run is registered.
	id       string
	query    int    // workload query index; -1 for an external session
	workload string // bundled workload name, or the session's engine tag
	family   string
	class    string // admission class (family, or family|client)
	shard    int    // engine slot the run occupies
	model    int    // selector version serving it (0 = v0, the fixed estimator)

	// feed serialises a session's counter source — observation batches,
	// abort and expiry. A native run is fed by its exec goroutine alone
	// and never takes it.
	feed sync.Mutex

	mu     sync.Mutex
	state  runState
	latest ProgressUpdate
	seen   bool
	// Session machinery, nil for native runs and after any terminal
	// transition: what is retained is the record, so a finished session
	// costs what a finished query does.
	runner   *ingest.Runner
	mon      *Monitor
	lastSeen time.Time // last ingest traffic (TTL clock)
	ingested int64     // counter snapshots ingested
}

// mirror copies the monitor's conflated updates into the record until
// the stream closes. The Done update carries the completed transition
// with it, so completion is never readable before the final update is.
//
// It runs on a goroutine of its own, not as a sink the executor calls: a
// native query is CPU-bound for its whole life, and the parked mirror's
// wake-ups are what let a saturated scheduler serve progress reads
// mid-query. Measured on the native_closed benchmark (2 CPUs, 2 callers),
// the sink made 71% of first reads wait for the query to end (read p50
// 0.10 → 0.18 ms).
func (r *trackedRun) mirror(updates <-chan ProgressUpdate) {
	defer r.mirrored.Done()
	for u := range updates {
		r.mu.Lock()
		r.latest, r.seen = u, true
		if u.Done {
			r.endLocked(runCompleted)
		}
		r.mu.Unlock()
	}
}

// endLocked is the one terminal transition: the state moves, the
// machinery goes, the table's open count comes back. r.mu must be held.
func (r *trackedRun) endLocked(state runState) {
	r.state = state
	r.runner, r.mon = nil, nil
	r.table.open.Add(-1)
	r.table.ended[state].Add(1)
}

// terminate ends a session without completion — DELETE, drain, TTL — and
// returns the state it is left in: Wait unblocks with cause, the update
// stream closes with no Done update, the admission slot comes back, the
// snapshot history goes back to the executor's free list. A run
// that is already terminal, or native (only its executor ends it), is
// left as it is.
func (r *trackedRun) terminate(state runState, cause error) runState {
	r.feed.Lock()
	defer r.feed.Unlock()
	r.mu.Lock()
	mon, cur := r.mon, r.state
	r.mu.Unlock()
	if mon == nil {
		return cur
	}
	mon.finish(nil, cause)
	r.mirrored.Wait()
	r.mu.Lock()
	r.endLocked(state)
	r.mu.Unlock()
	mon.handBack(nil)
	return state
}

// runInfo is the one wire form of a tracked run — the union of what the
// submit, open, list and progress routes of both trees have always
// answered, so every route carries every field. For an external session
// "query" is -1; "observations" counts snapshots received over the
// session wire, so it stays 0 for a native query.
type runInfo struct {
	ID string `json:"id"`
	// Query is the workload query index and Text its pseudo-SQL (submit
	// response only); Workload is the bundled workload's name, or the
	// session's engine tag.
	Query    int    `json:"query"`
	Text     string `json:"text,omitempty"`
	Workload string `json:"workload"`
	// Family is the run's workload family (its corpus tag); Class the
	// admission class it was admitted under (the family, or
	// "family|client" — the QoS scheduling key).
	Family string `json:"family"`
	Class  string `json:"class"`
	// Shard is the engine slot whose capacity the run occupies.
	Shard int `json:"shard"`
	// Model is the selector version that serves the run (0 = v0, the
	// fixed DNE estimator, or an explicitly configured selector).
	Model int `json:"model,omitempty"`
	// State is "open", "completed", "aborted" or "expired"; Done is
	// State == "completed".
	State string `json:"state"`
	Done  bool   `json:"done"`
	// Observations is the number of counter snapshots ingested so far.
	Observations int64 `json:"observations"`
	// Update is the freshest conflated ProgressUpdate (progress routes).
	Update *ProgressUpdate `json:"update,omitempty"`
}

func (r *trackedRun) info(withUpdate bool) runInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	ri := runInfo{
		ID: r.id, Query: r.query, Workload: r.workload,
		Family: r.family, Class: r.class, Shard: r.shard,
		Model: r.model,
		State: r.state.String(), Done: r.state == runCompleted,
		Observations: r.ingested,
	}
	if withUpdate && r.seen {
		u := r.latest
		ri.Update = &u
	}
	return ri
}

// runTable holds tracked runs: id map, arrival order, id counter, the
// open bound and the retention bound. The server instantiates it twice
// ("q…" queries, "s…" sessions) so each tree keeps its own id namespace
// and sizing.
type runTable struct {
	// noun names the table's runs in error texts ("query", "session"); its
	// first letter prefixes their ids.
	noun string

	mu sync.Mutex
	// maxKept bounds the table: beyond it the oldest terminal runs are
	// evicted (open runs never are). maxOpen bounds the concurrently open
	// runs; 0 means the admission gate is the only bound.
	maxKept  int
	maxOpen  int
	runs     map[string]*trackedRun
	order    []*trackedRun // arrival order, for stable listings + eviction
	nextID   int
	draining bool

	// open counts running runs plus reservations still in admission;
	// opened and ended are lifetime counters over the state machine.
	open   atomic.Int64
	opened atomic.Int64
	ended  [runExpired + 1]atomic.Int64
}

func newRunTable(noun string, maxKept int) *runTable {
	return &runTable{noun: noun, maxKept: maxKept, runs: make(map[string]*trackedRun)}
}

// track is the constructor both POST routes share. It reserves a place
// among the open runs BEFORE admission (so concurrent opens cannot
// overshoot maxOpen while they wait in the gate), lets attach admit the
// run and attach its counter source, copies the placement off the
// monitor, starts mirroring its updates, and registers the record under
// the next id. The reservation
// is given back if attach fails, and by the run's terminal transition
// otherwise.
func (t *runTable) track(r *trackedRun, attach func() (*Monitor, error)) error {
	t.mu.Lock()
	switch {
	case t.draining:
		t.mu.Unlock()
		return fmt.Errorf("progressest: open %s: %w", t.noun, engine.ErrDraining)
	case t.maxOpen > 0 && t.open.Load() >= int64(t.maxOpen):
		t.mu.Unlock()
		return errSessionLimit
	}
	t.open.Add(1)
	t.mu.Unlock()

	r.table = t
	m, err := attach()
	if err != nil {
		t.open.Add(-1)
		return err
	}
	r.family, r.class, r.shard = m.Family(), m.Class(), m.Shard()
	r.model = m.ModelVersion()
	r.mirrored.Add(1)
	go r.mirror(m.Updates)

	t.mu.Lock()
	t.nextID++
	r.id = fmt.Sprintf("%s%d", t.noun[:1], t.nextID)
	t.runs[r.id] = r
	t.order = append(t.order, r)
	t.evictLocked()
	draining := t.draining
	t.mu.Unlock()
	t.opened.Add(1)
	if draining {
		// Drain began while the run was in admission, after drain's own
		// sweep of the table: end it the way drain would have.
		r.terminate(runAborted, engine.ErrDraining)
		return fmt.Errorf("progressest: open %s: %w", t.noun, engine.ErrDraining)
	}
	return nil
}

// drain refuses new runs and aborts the open sessions, releasing their
// admission slots so the engine drain behind it can finish.
func (t *runTable) drain() {
	t.mu.Lock()
	t.draining = true
	t.mu.Unlock()
	for _, r := range t.list() {
		r.terminate(runAborted, errSessionAborted)
	}
}

// lookup returns the run by id.
func (t *runTable) lookup(id string) (*trackedRun, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.runs[id]
	return r, ok
}

// list snapshots the runs in arrival order.
func (t *runTable) list() []*trackedRun {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*trackedRun(nil), t.order...)
}

// evictLocked drops the oldest terminal runs beyond the retention bound,
// so a long-running daemon's memory stays bounded. t.mu must be held.
func (t *runTable) evictLocked() {
	excess := len(t.order) - t.maxKept
	if excess <= 0 {
		return
	}
	kept := t.order[:0]
	for i, r := range t.order {
		if excess == 0 {
			// Everything from here on stays whatever its state: one copy,
			// not a lock per retained run.
			kept = append(kept, t.order[i:]...)
			break
		}
		r.mu.Lock()
		terminal := r.state != runRunning
		r.mu.Unlock()
		if terminal {
			delete(t.runs, r.id)
			excess--
			continue
		}
		kept = append(kept, r)
	}
	t.order = kept
}
