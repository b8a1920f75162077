// Package engine is the admission core of progressd: a fixed pool of
// shards — buckets of MaxLivePerShard admission slots each, so
// Shards × that bound is the concurrency cap — behind one gate with a
// bounded wait queue, least-loaded dispatch and a draining shutdown
// path. The pool's size is set when the gate is built. The gate is
// execution-agnostic — it hands out shard slots and the caller runs
// whatever work the slot admits (all of it on one shared workload),
// releasing it on completion — so the admission logic is unit-testable
// without a database, a trained model or an HTTP layer.
//
// Admission is QoS-aware: waiters queue under named classes (workload
// families, optionally per client) scheduled by the internal/qos
// weighted fair queue instead of one global FIFO, every admission's
// queue wait and admission-to-done latency land in per-class windows,
// and with deadline admission enabled a request whose remaining
// deadline cannot cover the predicted queue wait is shed immediately
// (ErrDeadlineShed) instead of queueing to die.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"progressest/internal/qos"
)

// Config sizes the gate.
type Config struct {
	// Shards is the number of slot buckets behind the gate (default 1).
	Shards int
	// MaxLivePerShard bounds the queries executing concurrently on one
	// shard (default 64).
	MaxLivePerShard int
	// QueueDepth bounds the admissions waiting for a slot once every
	// shard is at capacity; 0 disables queueing, so a saturated gate
	// rejects immediately.
	QueueDepth int

	// Weights maps admission classes (workload families; "family|client"
	// names inherit the family weight) to their fair-queueing weight.
	// Classes absent here weigh 1. With a single class — or no Weights
	// at all — scheduling degenerates to the old global FIFO.
	Weights map[string]int
	// ClassQueueDepth bounds one class's share of the admission queue
	// (default QueueDepth: no per-class tightening).
	ClassQueueDepth int
	// DeadlineAdmission sheds an admission whose ctx deadline cannot
	// cover the predicted queue wait with ErrDeadlineShed instead of
	// letting it occupy a queue slot it is doomed to time out of.
	DeadlineAdmission bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxLivePerShard <= 0 {
		c.MaxLivePerShard = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	return c
}

// ErrSaturated is returned by Admit when every shard is at capacity and
// the wait queue (shared or the class's bounded share of it) is full.
var ErrSaturated = errors.New("engine: all shards at capacity and the admission queue is full")

// ErrDraining is returned by Admit once Drain has begun: the gate admits
// nothing new, and already queued admissions fail rather than strand.
var ErrDraining = errors.New("engine: draining, not accepting new queries")

// ErrDeadlineShed is the sentinel behind DeadlineShedError: the
// admission was refused because its remaining deadline cannot cover the
// predicted queue wait.
var ErrDeadlineShed = errors.New("engine: deadline cannot cover the predicted queue wait")

// DeadlineShedError reports one deadline-aware admission shed, carrying
// what the decision was made from (the HTTP layer's Retry-After hint).
type DeadlineShedError struct {
	// Class is the admission class the request was judged under.
	Class string
	// Predicted is the queue wait the scheduler predicted; Remaining
	// was the request's remaining deadline budget at admission.
	Predicted time.Duration
	Remaining time.Duration
}

func (e *DeadlineShedError) Error() string {
	return fmt.Sprintf("engine: shed class %q admission: predicted queue wait %s exceeds remaining deadline %s",
		e.Class, e.Predicted, e.Remaining)
}

func (e *DeadlineShedError) Unwrap() error { return ErrDeadlineShed }

// shardState is one shard's admission bookkeeping. Shards are identified
// by their index in the gate's slice, which is fixed for the gate's life.
type shardState struct {
	live     int
	admitted int64
}

// Slot is one admitted unit of work, pinned to a shard. Release it
// exactly when the work finishes; Release is idempotent.
type Slot struct {
	// Shard is the index of the shard the admission was dispatched to.
	Shard int

	g    *Gate
	cls  *qos.Class
	at   time.Time // Admit entry (admission-to-done accounting)
	once sync.Once
}

// Release frees the slot, recording its class's admission-to-done
// latency and dispatching the next scheduled admission if one waits.
func (s *Slot) Release() {
	s.once.Do(func() { s.g.release(s.Shard, s.cls, s.at) })
}

// Gate is the admission gate in front of the shard pool. Admissions are
// dispatched to the least-loaded shard; when every shard is at its
// per-shard live bound they wait in a bounded queue scheduled by
// weighted fair queueing across admission classes (FIFO within a class).
type Gate struct {
	cfg Config

	mu       sync.Mutex
	shards   []shardState
	sched    *qos.Sched
	admitted int64
	rejected int64
	shed     int64
	draining bool
}

// NewGate builds a gate for cfg.
func NewGate(cfg Config) *Gate {
	cfg = cfg.withDefaults()
	return &Gate{
		cfg:    cfg,
		shards: make([]shardState, cfg.Shards),
		sched: qos.New(qos.Options{
			Weights:    cfg.Weights,
			TotalDepth: cfg.QueueDepth,
			ClassDepth: cfg.ClassQueueDepth,
		}),
	}
}

// NumShards returns the number of shards in the pool.
func (g *Gate) NumShards() int { return len(g.shards) }

// leastLoadedLocked returns the shard with the fewest live queries that
// still has capacity, or -1 when all are full. Ties break to the lowest
// index, which keeps dispatch deterministic (and spreads a burst
// round-robin across idle shards).
func (g *Gate) leastLoadedLocked() int {
	best := -1
	for s := range g.shards {
		sh := &g.shards[s]
		if sh.live >= g.cfg.MaxLivePerShard {
			continue
		}
		if best < 0 || sh.live < g.shards[best].live {
			best = s
		}
	}
	return best
}

func (g *Gate) grantLocked(shard int) {
	g.shards[shard].live++
	g.shards[shard].admitted++
	g.admitted++
}

// dispatchLocked grants scheduled admissions while capacity remains.
// The fair queue decides WHO goes next; the least-loaded scan decides
// WHERE.
func (g *Gate) dispatchLocked() {
	for g.sched.Len() > 0 {
		s := g.leastLoadedLocked()
		if s < 0 {
			break
		}
		w := g.sched.Next(time.Now())
		g.grantLocked(s)
		w.C <- s
	}
}

// Admit claims a slot under the default admission class — AdmitClass
// with class "". A single-class gate schedules exactly like the old
// global FIFO.
func (g *Gate) Admit(ctx context.Context) (*Slot, error) {
	return g.AdmitClass(ctx, "")
}

// AdmitClass claims a slot on the least-loaded shard for one admission
// of the named class. When every shard is at capacity
// the admission waits in the bounded fair queue until the scheduler
// grants it a freed slot, its queue (class or shared) overflows
// (ErrSaturated), the gate starts draining (ErrDraining), deadline
// admission sheds it (ErrDeadlineShed — the request never occupies a
// queue slot) or ctx expires. A nil ctx never expires. The entry
// timestamp is taken before the fast path, so queue-wait percentiles
// are exact over all admissions, contended or not.
func (g *Gate) AdmitClass(ctx context.Context, class string) (*Slot, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t0 := time.Now()
	g.mu.Lock()
	if g.draining {
		g.rejected++
		g.mu.Unlock()
		return nil, ErrDraining
	}
	cls := g.sched.Lookup(class)
	if s := g.leastLoadedLocked(); s >= 0 {
		g.grantLocked(s)
		g.sched.FastAdmit(cls, time.Since(t0))
		g.mu.Unlock()
		return &Slot{Shard: s, g: g, cls: cls, at: t0}, nil
	}
	// Deadline-aware admission: a request that would queue but whose
	// remaining deadline cannot cover the predicted wait is dead on
	// arrival — shed it now, before it consumes a queue slot another
	// request could actually use.
	if g.cfg.DeadlineAdmission {
		if dl, ok := ctx.Deadline(); ok {
			remaining := dl.Sub(t0)
			pred := g.sched.PredictWait(cls)
			if remaining <= 0 || pred > remaining {
				cls.Shed()
				g.shed++
				g.mu.Unlock()
				return nil, &DeadlineShedError{Class: class, Predicted: pred, Remaining: remaining}
			}
		}
	}
	w := qos.NewWaiter()
	if err := g.sched.Enqueue(cls, w, t0); err != nil {
		g.rejected++
		g.mu.Unlock()
		return nil, fmt.Errorf("%w (%v)", ErrSaturated, err)
	}
	g.mu.Unlock()

	select {
	case s, ok := <-w.C:
		if !ok {
			return nil, ErrDraining
		}
		return &Slot{Shard: s, g: g, cls: cls, at: t0}, nil
	case <-ctx.Done():
		g.mu.Lock()
		if g.sched.Remove(w) {
			g.rejected++
			g.mu.Unlock()
			return nil, ctx.Err()
		}
		g.mu.Unlock()
		// The waiter was granted (or drained) concurrently with the
		// cancellation; the channel op below never blocks, because the
		// dispatcher sends before releasing the lock and the drain path
		// closes the channel. A granted slot is released so the abandoned
		// admission cannot leak capacity.
		if s, ok := <-w.C; ok {
			(&Slot{Shard: s, g: g, cls: cls, at: t0}).Release()
		}
		return nil, ctx.Err()
	}
}

// release frees one slot, records the admission-to-done latency, and
// dispatches scheduled admissions while capacity remains.
func (g *Gate) release(shard int, cls *qos.Class, at time.Time) {
	g.mu.Lock()
	g.shards[shard].live--
	if cls != nil {
		cls.RecordDone(time.Since(at))
	}
	g.dispatchLocked()
	g.mu.Unlock()
}

// Drain stops admission: new Admit calls and every already queued waiter
// — across every class — fail with ErrDraining immediately, so a
// shutdown under load cannot strand queued requests; then Drain waits
// until every live slot releases or ctx expires.
func (g *Gate) Drain(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	g.rejected += int64(g.sched.Drain(func(w *qos.Waiter) { close(w.C) }))
	g.mu.Unlock()
	for {
		g.mu.Lock()
		live := 0
		for i := range g.shards {
			live += g.shards[i].live
		}
		g.mu.Unlock()
		if live == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("engine: drain: %d queries still live: %w", live, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// QueueWaitHint returns the gate-wide windowed p90 queue wait — the
// serving layer's Retry-After suggestion for rejected admissions.
func (g *Gate) QueueWaitHint() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sched.WaitSummary().P90
}

// ShardStats is one shard's live/lifetime counters (the GET /engine/stats
// "shards" entries).
type ShardStats struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Live is the number of queries holding one of the shard's slots
	// right now.
	Live int `json:"live"`
	// Admitted counts the queries ever dispatched to the shard.
	Admitted int64 `json:"admitted"`
}

// Stats is a point-in-time snapshot of the gate, taken under one lock so
// the shard counters, the queue and the per-class accounting agree.
type Stats struct {
	Shards          []ShardStats `json:"shards"`
	Queued          int          `json:"queued"`
	QueueDepth      int          `json:"queue_depth"`
	MaxLivePerShard int          `json:"max_live_per_shard"`
	Admitted        int64        `json:"admitted"`
	Rejected        int64        `json:"rejected"`
	Shed            int64        `json:"shed"`
	Draining        bool         `json:"draining"`

	// Classes is the per-admission-class QoS accounting, sorted by
	// class name; QueueWait summarizes the gate-wide windowed queue wait
	// (Retry-After hints read its P90).
	Classes   []qos.ClassStats `json:"-"`
	QueueWait qos.Summary      `json:"-"`
}

// Stats snapshots the gate's counters.
func (g *Gate) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := Stats{
		Shards:          make([]ShardStats, len(g.shards)),
		Queued:          g.sched.Len(),
		QueueDepth:      g.cfg.QueueDepth,
		MaxLivePerShard: g.cfg.MaxLivePerShard,
		Admitted:        g.admitted,
		Rejected:        g.rejected,
		Shed:            g.shed,
		Draining:        g.draining,
		Classes:         g.sched.Stats(),
		QueueWait:       g.sched.WaitSummary(),
	}
	for s := range g.shards {
		st.Shards[s] = ShardStats{
			Shard:    s,
			Live:     g.shards[s].live,
			Admitted: g.shards[s].admitted,
		}
	}
	return st
}
