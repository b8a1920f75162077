package progressest

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"progressest/internal/engine"
	"progressest/internal/qos"
)

// EngineConfig sizes the sharded execution engine.
type EngineConfig struct {
	// Shards is the number of Workload replicas the pool starts with
	// (default 1, clamped into [MinShards, MaxShards]). Replicas share
	// the immutable database and query set, so extra shards cost planner
	// state, not a database copy.
	Shards int
	// MaxLivePerShard bounds the queries executing concurrently on one
	// replica (default 64); the engine-wide live bound is
	// active shards × MaxLivePerShard.
	MaxLivePerShard int
	// QueueDepth bounds the admissions waiting for a slot once every
	// replica is at capacity; 0 disables queueing, so a saturated engine
	// rejects immediately (IsSaturated).
	QueueDepth int
	// RouteByFamily serves each query with the selector version trained
	// for its workload family (falling back to the global model) when the
	// monitor options carry a Learning loop.
	RouteByFamily bool

	// MinShards and MaxShards bound runtime resizing (both default to the
	// initial pool size, i.e. a fixed pool; MinShards wins when they
	// conflict). When MaxShards > MinShards and autoscaling is not
	// disabled, a background controller grows the pool while the
	// admission queue runs hot and shrinks it back while replicas idle —
	// see the Autoscale* knobs. Resize is available either way.
	MinShards int
	MaxShards int
	// DisableAutoscale keeps the pool at its initial size unless Resize
	// (or POST /engine/resize) moves it.
	DisableAutoscale bool
	// AutoscaleInterval is the controller's poll period (default 2s).
	AutoscaleInterval time.Duration
	// AutoscaleGrowPolls is the number of consecutive polls the admission
	// queue must be more than half full (or rejecting) before one shard
	// is added (default 3); AutoscaleShrinkPolls the consecutive polls
	// with an empty queue and an idle replica before one is drained
	// (default 10). AutoscaleCooldown is the minimum gap between two
	// resizes (default 3× the interval). The hysteresis exists so one
	// bursty poll never flaps the pool.
	AutoscaleGrowPolls   int
	AutoscaleShrinkPolls int
	AutoscaleCooldown    time.Duration

	// QoSWeights maps workload families to their weighted-fair-queueing
	// admission weight (default 1 each). Queued admissions are scheduled
	// per class — the query's family, suffixed "|client" when the
	// submission carries a client tag, which inherits the family weight
	// — so under saturation every class converges to at least its weight
	// share of the admissions instead of one hot family monopolizing
	// every replica.
	QoSWeights map[string]int
	// ClassQueueDepth bounds one class's share of the admission queue
	// (default QueueDepth: no per-class tightening).
	ClassQueueDepth int
	// SLOQueueWaitP99, when positive, declares the latency SLO the
	// autoscaler defends: a sustained breach of the windowed p99 queue
	// wait counts as a hot poll, so the pool grows BEFORE the queue
	// fills and admissions start being rejected.
	SLOQueueWaitP99 time.Duration
	// DeadlineAdmission sheds a submission whose remaining deadline
	// cannot cover the predicted queue wait with an IsDeadlineShed error
	// immediately, instead of letting it occupy a queue slot it is
	// doomed to time out of.
	DeadlineAdmission bool
}

// ParseQoSWeights parses an operator weight spec of the form
// "tpch=9,tpcds=1" (the cmd/progressd -qos-weights flag) into the
// EngineConfig.QoSWeights map. Weights must be positive integers.
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
		out[name] = w
	}
	return out, nil
}

// Engine is the sharded execution engine: a pool of Workload replicas
// behind one admission gate (bounded queue, per-replica live bound,
// least-loaded dispatch), sharing one Learning loop — every replica
// harvests into the same corpus and serves from the same hot-swapped
// model registry, optionally routed per workload family. The pool is
// elastic: Resize grows and shrinks it at runtime, and an optional
// autoscaler drives Resize from the gate's own queue-depth and rejection
// signals. It is the serving core progressd wraps in HTTP.
type Engine struct {
	opts MonitorOptions
	gate *engine.Gate
	// replicas is the slot-indexed replica pool, published atomically so
	// the Start hot path never takes the resize lock. The slice only ever
	// grows (shrink marks gate slots draining, it never compacts), and a
	// slot becomes dispatchable only AFTER its replica is published, so
	// indexing the freshest slice with a granted Slot.Shard is always in
	// bounds.
	replicas atomic.Pointer[[]*Workload]
	// resizeMu serialises resizes: replica growth and the gate resize
	// must be one atomic step from other resizers' point of view.
	resizeMu sync.Mutex

	minShards, maxShards int
	sloP99               time.Duration
	deadline             bool
	scaler               *engine.Autoscaler // nil with autoscaling off
}

// NewEngine builds an engine of cfg.Shards replicas of w. The monitor
// options apply to every query the engine starts; cfg.RouteByFamily
// switches them to per-family model routing. Defaulting of the gate
// bounds (per-shard live limit, queue depth) is owned by the internal
// gate; the initial pool size is clamped into [MinShards, MaxShards].
func NewEngine(w *Workload, cfg EngineConfig, opts MonitorOptions) *Engine {
	opts = opts.withDefaults()
	// Family routing needs a model registry to route over; without a
	// Learning loop the flag would only make Stats report a capability
	// that cannot act.
	opts.RouteByFamily = (opts.RouteByFamily || cfg.RouteByFamily) && opts.Learning != nil
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	minShards := cfg.MinShards
	if minShards < 1 {
		minShards = shards
	}
	maxShards := cfg.MaxShards
	if maxShards < 1 {
		// Unset defaults to the requested pool size, NOT to MinShards —
		// `Shards: 10, MinShards: 2` means "start at 10, allowed to shrink
		// to 2", not a 2-shard pool.
		maxShards = shards
	}
	if maxShards < minShards {
		maxShards = minShards
	}
	if shards < minShards {
		shards = minShards
	}
	if shards > maxShards {
		shards = maxShards
	}
	gate := engine.NewGate(engine.Config{
		Shards:            shards,
		MaxLivePerShard:   cfg.MaxLivePerShard,
		QueueDepth:        cfg.QueueDepth,
		Weights:           cfg.QoSWeights,
		ClassQueueDepth:   cfg.ClassQueueDepth,
		DeadlineAdmission: cfg.DeadlineAdmission,
	})
	replicas := make([]*Workload, shards)
	replicas[0] = w
	for i := 1; i < shards; i++ {
		replicas[i] = w.replica()
	}
	e := &Engine{
		opts:      opts,
		gate:      gate,
		minShards: minShards,
		maxShards: maxShards,
		sloP99:    cfg.SLOQueueWaitP99,
		deadline:  cfg.DeadlineAdmission,
	}
	e.replicas.Store(&replicas)
	if !cfg.DisableAutoscale && maxShards > minShards {
		e.scaler = engine.NewAutoscaler(engine.AutoscalerConfig{
			Min:             minShards,
			Max:             maxShards,
			Interval:        cfg.AutoscaleInterval,
			GrowAfter:       cfg.AutoscaleGrowPolls,
			ShrinkAfter:     cfg.AutoscaleShrinkPolls,
			Cooldown:        cfg.AutoscaleCooldown,
			SLOQueueWaitP99: cfg.SLOQueueWaitP99,
		}, gate.Stats, func(from, to int, reason string) error {
			return e.resize(from, to, "autoscale", reason)
		})
		e.scaler.Start()
	}
	return e
}

// Workload returns the engine's primary replica (slot 0) — the handle
// for query metadata like NumQueries and QueryText. Slot 0 can be
// drained out of dispatch by a shrink, but its workload handle stays
// valid for the engine's life.
func (e *Engine) Workload() *Workload { return (*e.replicas.Load())[0] }

// NumShards returns the number of active (dispatchable) replicas right
// now; a resize changes it.
func (e *Engine) NumShards() int { return e.gate.NumShards() }

// learning returns the shared learning loop, or nil.
func (e *Engine) learning() *Learning { return e.opts.Learning }

// maxResizePool bounds any requested pool size: a replica costs real
// memory (planner state), so an absurd operator request must fail fast
// instead of allocating its way to an OOM. A configured MaxShards above
// it raises the bound.
const maxResizePool = 256

// errResizeInvalid marks a resize request refused by validation (the
// HTTP layer's 400, vs. IsDraining's 409).
var errResizeInvalid = errors.New("invalid resize")

// Resize sets the active replica count to n (operator override of the
// autoscaler; POST /engine/resize in the daemon). Grow publishes fresh
// replicas and then widens the gate, admitting queued work immediately;
// shrink marks the emptiest replicas draining — they finish their live
// queries, receive nothing new, and are reaped once empty, keeping their
// lifetime counters in Stats. n may land outside [MinShards, MaxShards]
// (the bounds steer the autoscaler, not the operator, whose override
// also restarts the controller's hysteresis) but never above
// max(256, MaxShards) — each replica costs planner state. Resizing fails
// with an IsDraining error once Drain began.
func (e *Engine) Resize(n int) error {
	return e.resize(-1, n, "operator", "operator resize request")
}

// resizeCap is the largest acceptable pool size.
func (e *Engine) resizeCap() int {
	if e.maxShards > maxResizePool {
		return e.maxShards
	}
	return maxResizePool
}

// resize applies one pool resize. expectFrom >= 0 makes it conditional
// on the active count still being expectFrom (the autoscaler's
// compare-and-swap against concurrent operator overrides); -1 applies
// unconditionally.
func (e *Engine) resize(expectFrom, n int, source, reason string) error {
	if n < 1 {
		return fmt.Errorf("progressest: %w: %d shards, need at least 1", errResizeInvalid, n)
	}
	if bound := e.resizeCap(); n > bound {
		return fmt.Errorf("progressest: %w: %d shards exceeds the pool cap %d", errResizeInvalid, n, bound)
	}
	e.resizeMu.Lock()
	defer e.resizeMu.Unlock()
	gs := e.gate.Stats()
	// Fail fast BEFORE allocating replicas — a refusal the gate would
	// issue anyway (draining, stale CAS) must not cost a pool's worth of
	// planner state. The gate re-checks both authoritatively under its
	// own lock; losing that race just means the rollback below fires.
	if gs.Draining {
		return engine.ErrDraining
	}
	if expectFrom >= 0 && gs.ActiveShards != expectFrom {
		return engine.ErrResizeConflict
	}
	// Publish replicas for every slot the gate could make dispatchable
	// BEFORE widening it, because queued waiters are granted inside
	// Resize itself. The gate grows by reactivating draining slots
	// (replica still present — pruning only touches slots observed
	// reaped, under this same mutex), then resurrecting reaped slots
	// lowest-index first (replica was reclaimed on reap, rebuild it),
	// then appending. A draining slot can reap between this snapshot
	// and the gate's commit, shifting which reaped slots the gate picks,
	// so provision the reachable SUPERSET — the first `need` reaped
	// slots with no draining discount (any commit-time pick is provably
	// within it) — rather than mirroring the gate's exact selection; the
	// prune after a successful resize reclaims whatever went unused. A
	// deep-shrunk pool growing by one still rebuilds one replica, not
	// every reclaimed slot.
	old := *e.replicas.Load()
	grew := false
	if need := n - gs.ActiveShards; need > 0 {
		size := len(old)
		if n > size {
			size = n
		}
		grown := make([]*Workload, size)
		copy(grown, old)
		left := need
		for i, sh := range gs.Shards {
			if left == 0 {
				break
			}
			if sh.State == engine.ShardReaped {
				if grown[i] == nil {
					grown[i] = old[0].replica()
					grew = true
				}
				left--
			}
		}
		for i := len(gs.Shards); left > 0 && i < len(grown); i++ {
			grown[i] = old[0].replica()
			grew = true
			left--
		}
		if grew {
			e.replicas.Store(&grown)
		}
	}
	var err error
	if expectFrom >= 0 {
		err = e.gate.ResizeFrom(expectFrom, n, source, reason)
	} else {
		err = e.gate.Resize(n, source, reason)
	}
	if err != nil {
		// None of the fresh slots became dispatchable; drop them again.
		if grew {
			e.replicas.Store(&old)
		}
		return err
	}
	e.pruneReapedLocked()
	return nil
}

// pruneReapedLocked reclaims the planner state of reaped slots — the
// point of shrinking an idle pool — by dropping their replicas from the
// published slice, and returns the gate snapshot it judged against so
// the caller need not take a second one. resizeMu must be held: it
// excludes the resize path that resurrects reaped slots, and a slot
// observed reaped here cannot be granted work (the gate only grants to
// active slots, and a granted slot has live > 0 until released, so it
// can never read as reaped). Slot 0 is never pruned: it is the engine's
// primary Workload handle and the template future replicas are cloned
// from.
func (e *Engine) pruneReapedLocked() engine.Stats {
	gs := e.gate.Stats()
	old := *e.replicas.Load()
	var pruned []*Workload
	for i, sh := range gs.Shards {
		if i == 0 || i >= len(old) || old[i] == nil || sh.State != engine.ShardReaped {
			continue
		}
		if pruned == nil {
			pruned = append([]*Workload(nil), old...)
		}
		pruned[i] = nil
	}
	if pruned != nil {
		e.replicas.Store(&pruned)
	}
	return gs
}

// Start admits query i through the gate — waiting in the bounded fair
// queue under the query family's admission class when every replica is
// at capacity — then plans and executes it on the least-loaded replica,
// streaming progress through the returned Monitor (whose Shard reports
// the placement). It fails with an IsSaturated error when the queue is
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
	w := e.Workload()
	if n := w.NumQueries(); i < 0 || i >= n {
		return nil, fmt.Errorf("progressest: query index %d out of range [0,%d)", i, n)
	}
	var run func()
	m, err := e.admit(ctx, w.QueryFamily(i), client, func(w *Workload, opts MonitorOptions) (m *Monitor, err error) {
		m, run, err = w.prepare(i, opts)
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
// run's monitor up on the granted replica under the engine's monitor
// options, stamps the placement, and ties the slot to the run's end —
// Monitor.finish releases it, whoever ends the run. The slot is held for
// the run's whole life: an open session IS a live query from the gate's
// point of view, so session load and native load share one capacity
// model. build must not start the counter source; nothing may feed the
// monitor until admit returns.
func (e *Engine) admit(ctx context.Context, family, client string,
	build func(w *Workload, opts MonitorOptions) (*Monitor, error)) (*Monitor, error) {
	class := family
	if client != "" {
		class = class + "|" + client
	}
	slot, err := e.gate.AdmitClass(ctx, class)
	if err != nil {
		return nil, err
	}
	m, err := build((*e.replicas.Load())[slot.Shard], e.opts)
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

// Drain stops the autoscaler and admission — queued submissions fail
// immediately with an IsDraining error instead of stranding — and waits
// until every in-flight query finishes or ctx expires. New Start calls
// fail for the rest of the engine's life.
func (e *Engine) Drain(ctx context.Context) error {
	if e.scaler != nil {
		e.scaler.Stop()
	}
	return e.gate.Drain(ctx)
}

// ShardStats is one replica's live/lifetime admission counters.
type ShardStats struct {
	// Shard is the replica index.
	Shard int `json:"shard"`
	// Live is the number of queries executing on the replica right now.
	Live int `json:"live"`
	// Admitted counts the queries ever dispatched to the replica; a
	// reaped replica keeps its count.
	Admitted int64 `json:"admitted"`
	// State is the replica's pool state: "active" (dispatchable),
	// "draining" (shrink-marked: finishing live queries, receiving
	// nothing new) or "reaped" (out of the pool; counters retained).
	State string `json:"state"`
}

// ResizeEvent is one applied pool resize (the GET /engine/stats
// "resize_events" entries, newest last, bounded history).
type ResizeEvent struct {
	// At is when the resize was applied.
	At time.Time `json:"at"`
	// From and To are the active shard counts before and after.
	From int `json:"from"`
	To   int `json:"to"`
	// Source is who asked: "autoscale" or "operator".
	Source string `json:"source"`
	// Reason is the requester's rationale.
	Reason string `json:"reason,omitempty"`
}

// AutoscaleDecision is the controller's most recent poll verdict.
type AutoscaleDecision struct {
	At     time.Time `json:"at"`
	Action string    `json:"action"` // "grow", "shrink" or "hold"
	From   int       `json:"from"`
	To     int       `json:"to"`
	Reason string    `json:"reason,omitempty"`
}

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
	// Shards holds the per-replica counters, including draining and
	// reaped replicas (whose lifetime counters survive a shrink).
	Shards []ShardStats `json:"shards"`
	// CurrentShards is the active (dispatchable) replica count;
	// MinShards and MaxShards are the autoscaler's bounds.
	CurrentShards int `json:"current_shards"`
	MinShards     int `json:"min_shards"`
	MaxShards     int `json:"max_shards"`
	// Autoscale reports whether the load-driven controller is running.
	Autoscale bool `json:"autoscale"`
	// Queued is the number of admissions waiting for a slot; QueueDepth
	// is the queue's bound.
	Queued     int `json:"queued"`
	QueueDepth int `json:"queue_depth"`
	// MaxLivePerShard is the per-replica live bound.
	MaxLivePerShard int `json:"max_live_per_shard"`
	// Admitted and Rejected are lifetime engine-wide counters; ShedTotal
	// counts submissions deadline admission shed before they could occupy
	// a queue slot (always 0 with DeadlineAdmission off).
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`
	ShedTotal int64 `json:"shed_total"`
	// QueueWait is the gate-wide windowed Admit-to-grant latency across
	// every class (the distribution the SLOQueueWaitP99 autoscaler signal
	// and Retry-After hints are computed from).
	QueueWait LatencyStats `json:"queue_wait"`
	// Classes is the per-admission-class QoS accounting, sorted by class
	// name (empty before the first admission).
	Classes []ClassStats `json:"classes,omitempty"`
	// SLOQueueWaitP99MS is the declared p99 queue-wait SLO in
	// milliseconds (0: none declared); DeadlineAdmission reports whether
	// deadline-aware shedding is on.
	SLOQueueWaitP99MS float64 `json:"slo_queue_wait_p99_ms,omitempty"`
	DeadlineAdmission bool    `json:"deadline_admission"`
	// Resizes counts applied pool resizes; ResizeEvents is the bounded
	// event history, oldest first.
	Resizes      int64         `json:"resizes"`
	ResizeEvents []ResizeEvent `json:"resize_events,omitempty"`
	// LastDecision is the autoscaler's most recent poll verdict (absent
	// before its first poll or with autoscaling off).
	LastDecision *AutoscaleDecision `json:"last_decision,omitempty"`
	// Draining is true once Drain began.
	Draining bool `json:"draining"`
	// RouteByFamily reports whether per-family model routing is on.
	RouteByFamily bool `json:"route_by_family"`
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
	// Opportunistically reclaim the replicas of shards reaped since the
	// last resize — a loaded shard drains first and reaps on its final
	// release, outside any resize call — reusing the prune's own gate
	// snapshot for the report. TryLock: a stats poll must never wait
	// behind a resize building replicas.
	var gs engine.Stats
	if e.resizeMu.TryLock() {
		gs = e.pruneReapedLocked()
		e.resizeMu.Unlock()
	} else {
		gs = e.gate.Stats()
	}
	st := EngineStats{
		Shards:          make([]ShardStats, len(gs.Shards)),
		CurrentShards:   gs.ActiveShards,
		MinShards:       e.minShards,
		MaxShards:       e.maxShards,
		Autoscale:       e.scaler != nil,
		Queued:          gs.Queued,
		QueueDepth:      gs.QueueDepth,
		MaxLivePerShard: gs.MaxLivePerShard,
		Admitted:        gs.Admitted,
		Rejected:        gs.Rejected,
		ShedTotal:       gs.Shed,
		QueueWait:       latencyStats(gs.QueueWait),
		Resizes:         gs.Resizes,
		Draining:        gs.Draining,
		RouteByFamily:   e.opts.RouteByFamily,

		SLOQueueWaitP99MS: float64(e.sloP99) / float64(time.Millisecond),
		DeadlineAdmission: e.deadline,
	}
	for i, sh := range gs.Shards {
		st.Shards[i] = ShardStats(sh)
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
	for _, ev := range gs.ResizeEvents {
		st.ResizeEvents = append(st.ResizeEvents, ResizeEvent(ev))
	}
	if e.scaler != nil {
		if d, ok := e.scaler.Last(); ok {
			dec := AutoscaleDecision(d)
			st.LastDecision = &dec
		}
	}
	return st
}

// IsSaturated reports whether err means the engine rejected a query
// because every replica is at capacity and the admission queue is full —
// the HTTP layer's 429.
func IsSaturated(err error) bool { return errors.Is(err, engine.ErrSaturated) }

// IsDeadlineShed reports whether err means deadline-aware admission shed
// the query because its remaining deadline could not cover the predicted
// queue wait — the HTTP layer's 429 with reason "deadline_shed". Use
// errors.As with *engine.DeadlineShedError for the prediction behind the
// decision.
func IsDeadlineShed(err error) bool { return errors.Is(err, engine.ErrDeadlineShed) }

// IsDraining reports whether err means the engine is shutting down and no
// longer admits queries (nor resizes) — the HTTP layer's 503 (and the
// resize endpoint's 409).
func IsDraining(err error) bool { return errors.Is(err, engine.ErrDraining) }
