package progressest

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"progressest/internal/engine"
	"progressest/internal/qos"
)

// EngineConfig sizes the sharded execution engine.
type EngineConfig struct {
	// Shards is the number of shards in the pool (default 1), fixed for
	// the engine's life. A shard is a bucket of MaxLivePerShard admission
	// slots, not a copy of anything: every shard executes on the engine's
	// one Workload, so the pool size only sets the concurrency cap.
	Shards int
	// MaxLivePerShard bounds the queries holding a slot of one shard at
	// once (default 64); the engine-wide live bound is
	// Shards × MaxLivePerShard.
	MaxLivePerShard int
	// QueueDepth bounds the admissions waiting for a slot once every
	// shard is at capacity; 0 disables queueing, so a saturated engine
	// rejects immediately (IsSaturated).
	QueueDepth int
	// Deprecated: ignored; one model serves every query. Kept only so
	// bench/ builds; removed with ROADMAP item 16.
	RouteByFamily bool

	// QoSWeights maps workload families to their weighted-fair-queueing
	// admission weight (default 1 each). Queued admissions are scheduled
	// per class — the query's family, suffixed "|client" when the
	// submission carries a client tag, which inherits the family weight
	// — so under saturation every class converges to at least its weight
	// share of the admissions instead of one hot family monopolizing
	// every slot.
	QoSWeights map[string]int
	// ClassQueueDepth bounds one class's share of the admission queue
	// (default QueueDepth: no per-class tightening).
	ClassQueueDepth int
	// DeadlineAdmission sheds a submission whose remaining deadline
	// cannot cover the predicted queue wait with an IsDeadlineShed error
	// immediately, instead of letting it occupy a queue slot it is
	// doomed to time out of.
	DeadlineAdmission bool
}

// ParseQoSWeights parses an operator weight spec of the form
// "tpch=9,tpcds=1" (the cmd/progressd -qos-weights flag) into the
// EngineConfig.QoSWeights map. Weights must be positive integers, and a
// family may be listed once.
func ParseQoSWeights(s string) (map[string]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if !ok || name == "" || err != nil || w < 1 {
			return nil, fmt.Errorf("progressest: qos weight %q: want family=positive-integer", part)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("progressest: qos weight %q: family %q listed twice", part, name)
		}
		out[name] = w
	}
	return out, nil
}

// Engine is the sharded execution engine: one Workload behind one
// admission gate (bounded fair queue, per-shard live bound, least-loaded
// dispatch) and one Learning loop — every query harvests into the same
// corpus and is served from the same hot-swapped model registry. Its
// shards are buckets of admission slots: Shards × MaxLivePerShard is the
// concurrency cap, fixed when the engine is built. It is the serving
// core progressd wraps in HTTP.
type Engine struct {
	w        *Workload
	opts     MonitorOptions
	gate     *engine.Gate
	deadline bool
}

// NewEngine builds an engine of cfg.Shards shards over w. The monitor
// options apply to every query the engine starts. Defaulting of the gate
// bounds (pool size, per-shard live limit, queue depth) is owned by the
// internal gate.
func NewEngine(w *Workload, cfg EngineConfig, opts MonitorOptions) *Engine {
	return &Engine{
		w:    w,
		opts: opts.withDefaults(),
		gate: engine.NewGate(engine.Config{
			Shards:            cfg.Shards,
			MaxLivePerShard:   cfg.MaxLivePerShard,
			QueueDepth:        cfg.QueueDepth,
			Weights:           cfg.QoSWeights,
			ClassQueueDepth:   cfg.ClassQueueDepth,
			DeadlineAdmission: cfg.DeadlineAdmission,
		}),
		deadline: cfg.DeadlineAdmission,
	}
}

// Workload returns the workload every shard of the engine executes on —
// also the handle for query metadata like NumQueries and QueryText.
func (e *Engine) Workload() *Workload { return e.w }

// NumShards returns the number of shards in the pool.
func (e *Engine) NumShards() int { return e.gate.NumShards() }

// learning returns the shared learning loop, or nil.
func (e *Engine) learning() *Learning { return e.opts.Learning }

// Start admits query i through the gate — waiting in the bounded fair
// queue under the query family's admission class when every shard is at
// capacity — then plans and executes it in a slot of the least-loaded
// shard, streaming progress through the returned Monitor (whose Shard
// reports the placement). It fails with an IsSaturated error when the queue is
// full, an IsDeadlineShed error when deadline admission sheds it, an
// IsDraining error after Drain began, or ctx's error if it expires
// while queued.
func (e *Engine) Start(ctx context.Context, i int) (*Monitor, error) {
	return e.StartTagged(ctx, i, "")
}

// StartTagged is Start with a caller-supplied client tag: a non-empty
// client refines the admission class from the query's family to
// "family|client" (inheriting the family's weight), so fairness holds
// between a family's clients too — one flooding client cannot starve
// the rest of its own family. Monitor.Class reports the class used.
func (e *Engine) StartTagged(ctx context.Context, i int, client string) (*Monitor, error) {
	return e.start(ctx, i, client, false)
}

// startServed is StartTagged for a run the server owns: nothing reads
// its trace after the final update, so the run records its snapshot
// history on memory borrowed from the executor's free list and hands it
// back once finished. A run started through StartTagged keeps its trace
// for Wait.
func (e *Engine) startServed(ctx context.Context, i int, client string) (*Monitor, error) {
	return e.start(ctx, i, client, true)
}

// start admits query i and runs it on its own goroutine; served is
// Monitor.execute's.
func (e *Engine) start(ctx context.Context, i int, client string, served bool) (*Monitor, error) {
	if n := e.w.NumQueries(); i < 0 || i >= n {
		return nil, fmt.Errorf("progressest: query index %d out of range [0,%d)", i, n)
	}
	var run func()
	m, err := e.admit(ctx, e.w.QueryFamily(i), client, func(opts MonitorOptions) (m *Monitor, err error) {
		m, run, err = e.w.prepare(i, opts, served)
		return m, err
	})
	if err != nil {
		return nil, err
	}
	go run()
	return m, nil
}

// admit is the one admission path, for native queries and external
// sessions alike: it derives the class (family, or "family|client"),
// waits for a slot in the gate's bounded fair queue, has build set the
// run's monitor up under the engine's monitor options, stamps the
// placement, and ties the slot to the run's end —
// Monitor.finish releases it, whoever ends the run. The slot is held for
// the run's whole life: an open session IS a live query from the gate's
// point of view, so session load and native load share one capacity
// model. build must not start the counter source; nothing may feed the
// monitor until admit returns.
func (e *Engine) admit(ctx context.Context, family, client string,
	build func(opts MonitorOptions) (*Monitor, error)) (*Monitor, error) {
	class := family
	if client != "" {
		class = class + "|" + client
	}
	slot, err := e.gate.AdmitClass(ctx, class)
	if err != nil {
		return nil, err
	}
	m, err := build(e.opts)
	if err != nil {
		slot.Release()
		return nil, err
	}
	m.shard, m.class, m.release = slot.Shard, class, slot.Release
	return m, nil
}

// RetryAfterHint suggests how long a rejected client should back off
// before resubmitting: the gate-wide windowed p90 queue wait (0 before
// any admission was observed).
func (e *Engine) RetryAfterHint() time.Duration { return e.gate.QueueWaitHint() }

// Drain stops admission — queued submissions fail immediately with an
// IsDraining error instead of stranding — and waits until every
// in-flight query finishes or ctx expires. New Start calls fail for the
// rest of the engine's life.
func (e *Engine) Drain(ctx context.Context) error { return e.gate.Drain(ctx) }

// ShardStats is one shard's live/lifetime admission counters.
type ShardStats = engine.ShardStats

// LatencyStats is one windowed latency distribution's wire form:
// nearest-rank percentiles over the most recent Samples observations,
// in milliseconds.
type LatencyStats struct {
	// Samples is the number of windowed observations behind the
	// percentiles; Total counts lifetime observations including
	// rolled-off ones.
	Samples int   `json:"samples"`
	Total   int64 `json:"total"`
	// P50MS, P90MS and P99MS are the nearest-rank percentiles.
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
}

func latencyStats(s qos.Summary) LatencyStats {
	const ms = float64(time.Millisecond)
	return LatencyStats{
		Samples: s.Samples,
		Total:   s.Total,
		P50MS:   float64(s.P50) / ms,
		P90MS:   float64(s.P90) / ms,
		P99MS:   float64(s.P99) / ms,
	}
}

// ClassStats is one admission class's QoS accounting in GET
// /engine/stats: its fair-queueing weight, queue occupancy, lifetime
// admission/rejection/shed counters, and windowed latency percentiles.
type ClassStats struct {
	// Class is the admission class: the workload family, optionally
	// suffixed "|client" for client-tagged submissions.
	Class string `json:"class"`
	// Weight is the class's weighted-fair-queueing weight.
	Weight int `json:"weight"`
	// Queued is the number of admissions of this class waiting right
	// now.
	Queued int `json:"queued"`
	// Admitted, Rejected and Shed are lifetime counters: grants,
	// queue-overflow rejections, and deadline-admission sheds.
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	Shed     int64 `json:"shed"`
	// QueueWait is the windowed Admit-to-grant latency (fast-path
	// admissions record their ~0 wait too, so the percentiles cover all
	// admissions); Latency the windowed admission-to-done latency
	// (Admit entry to release, queue wait included).
	QueueWait LatencyStats `json:"queue_wait"`
	Latency   LatencyStats `json:"latency"`
}

// EngineStats is a point-in-time snapshot of the engine (the GET
// /engine/stats wire form).
type EngineStats struct {
	// Shards holds the per-shard counters, one entry per shard of the
	// pool.
	Shards []ShardStats `json:"shards"`
	// Queued is the number of admissions waiting for a slot; QueueDepth
	// is the queue's bound.
	Queued     int `json:"queued"`
	QueueDepth int `json:"queue_depth"`
	// MaxLivePerShard is the per-shard live bound.
	MaxLivePerShard int `json:"max_live_per_shard"`
	// Admitted and Rejected are lifetime engine-wide counters; ShedTotal
	// counts submissions deadline admission shed before they could occupy
	// a queue slot (always 0 with DeadlineAdmission off).
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`
	ShedTotal int64 `json:"shed_total"`
	// QueueWait is the gate-wide windowed Admit-to-grant latency across
	// every class (the distribution Retry-After hints are computed from).
	QueueWait LatencyStats `json:"queue_wait"`
	// Classes is the per-admission-class QoS accounting, sorted by class
	// name (empty before the first admission).
	Classes []ClassStats `json:"classes,omitempty"`
	// DeadlineAdmission reports whether deadline-aware shedding is on.
	DeadlineAdmission bool `json:"deadline_admission"`
	// Draining is true once Drain began.
	Draining bool `json:"draining"`
	// Ingest is the external counter-ingestion session accounting, when
	// the stats come from a Server with the session layer attached.
	Ingest *IngestStats `json:"ingest,omitempty"`
}

// IngestStats is the external estimation-session accounting inside GET
// /engine/stats: live and lifetime session counts plus ingestion volume.
type IngestStats struct {
	// OpenSessions is the number of sessions open right now (each holds
	// an engine admission slot), plus opens still waiting for theirs.
	OpenSessions int `json:"open_sessions"`
	// Opened, Completed, Expired and Aborted are lifetime counters over
	// the session state machine.
	Opened    int64 `json:"opened"`
	Completed int64 `json:"completed"`
	Expired   int64 `json:"expired"`
	Aborted   int64 `json:"aborted"`
	// Batches and Observations count successfully ingested observation
	// batches and the counter snapshots they carried; RejectedBatches the
	// batches refused by validation (out-of-order times, counter
	// regressions, retention limits).
	Batches         int64 `json:"batches"`
	RejectedBatches int64 `json:"rejected_batches"`
	Observations    int64 `json:"observations"`
	// TTLSeconds is the idle-session expiry in seconds (negative:
	// disabled).
	TTLSeconds float64 `json:"ttl_seconds"`
}

// Stats snapshots the engine's admission counters.
func (e *Engine) Stats() EngineStats {
	gs := e.gate.Stats()
	st := EngineStats{
		Shards:          gs.Shards,
		Queued:          gs.Queued,
		QueueDepth:      gs.QueueDepth,
		MaxLivePerShard: gs.MaxLivePerShard,
		Admitted:        gs.Admitted,
		Rejected:        gs.Rejected,
		ShedTotal:       gs.Shed,
		QueueWait:       latencyStats(gs.QueueWait),
		Draining:        gs.Draining,

		DeadlineAdmission: e.deadline,
	}
	for _, c := range gs.Classes {
		st.Classes = append(st.Classes, ClassStats{
			Class:     c.Class,
			Weight:    c.Weight,
			Queued:    c.Queued,
			Admitted:  c.Admitted,
			Rejected:  c.Rejected,
			Shed:      c.Shed,
			QueueWait: latencyStats(c.QueueWait),
			Latency:   latencyStats(c.Latency),
		})
	}
	return st
}

// IsSaturated reports whether err means the engine rejected a query
// because every shard is at capacity and the admission queue is full —
// the HTTP layer's 429.
func IsSaturated(err error) bool { return errors.Is(err, engine.ErrSaturated) }

// IsDeadlineShed reports whether err means deadline-aware admission shed
// the query because its remaining deadline could not cover the predicted
// queue wait — the HTTP layer's 429 with reason "deadline_shed". Use
// errors.As with *engine.DeadlineShedError for the prediction behind the
// decision.
func IsDeadlineShed(err error) bool { return errors.Is(err, engine.ErrDeadlineShed) }

// IsDraining reports whether err means the engine is shutting down and no
// longer admits queries — the HTTP layer's 503.
func IsDraining(err error) bool { return errors.Is(err, engine.ErrDraining) }
